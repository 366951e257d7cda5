#include "src/util/hash.h"

#include <bit>
#include <cstring>

namespace dtaint {

uint64_t Fnv1a(std::span<const uint8_t> bytes, uint64_t seed) {
  uint64_t h = seed;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Fnv1a(std::string_view text, uint64_t seed) {
  uint64_t h = seed;
  for (char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

namespace {

/// splitmix64 finalizer: full-avalanche mixing of one 64-bit lane.
uint64_t Avalanche(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::string Hash128::ToHex() const {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(hi >> (4 * i)) & 0xF];
    out[31 - i] = kDigits[(lo >> (4 * i)) & 0xF];
  }
  return out;
}

Fingerprint128& Fingerprint128::Mix(std::string_view text) {
  // Length first so "ab"+"c" and "a"+"bc" mix differently. Then one
  // big-endian word per 8 bytes (the first byte most significant), and
  // the remaining bytes packed the same way into a last, shorter word.
  Mix(static_cast<uint64_t>(text.size()));
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  size_t n = text.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    Mix(word);
  }
  if (n > 0) {
    uint64_t word = 0;
    for (size_t i = 0; i < n; ++i) word = (word << 8) | p[i];
    Mix(word);
  }
  return *this;
}

Fingerprint128& Fingerprint128::Mix(std::span<const uint8_t> bytes) {
  return Mix(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size()));
}

Hash128 Fingerprint128::Digest() const {
  Hash128 digest;
  digest.hi = Avalanche(a_ + 0x2545F4914F6CDD1DULL * length_);
  digest.lo = Avalanche(b_ ^ Avalanche(a_));
  return digest;
}

}  // namespace dtaint

#include "src/firmware/extractor.h"

#include "src/firmware/packer.h"
#include "src/resilience/fault.h"
#include "src/util/hash.h"

namespace dtaint {

namespace {

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}
  bool ok() const { return ok_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return bytes_[pos_++];
  }
  uint16_t U16() {
    uint16_t lo = U8();
    return static_cast<uint16_t>(lo | (uint16_t{U8()} << 8));
  }
  uint32_t U32() {
    uint32_t lo = U16();
    return lo | (uint32_t{U16()} << 16);
  }
  uint64_t U64() {
    uint64_t lo = U32();
    return lo | (uint64_t{U32()} << 32);
  }
  std::string Str() {
    uint16_t len = U16();
    if (!Need(len)) return {};
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  std::vector<uint8_t> Bytes(size_t n) {
    if (!Need(n)) return {};
    std::vector<uint8_t> out(bytes_.begin() + pos_, bytes_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

 private:
  bool Need(size_t n) {
    if (pos_ + n > bytes_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::optional<size_t> FirmwareExtractor::FindMagic(
    std::span<const uint8_t> blob) {
  if (blob.size() < 4) return std::nullopt;
  for (size_t i = 0; i + 4 <= blob.size(); ++i) {
    if (blob[i] == kFwMagic[0] && blob[i + 1] == kFwMagic[1] &&
        blob[i + 2] == kFwMagic[2] && blob[i + 3] == kFwMagic[3]) {
      return i;
    }
  }
  return std::nullopt;
}

Result<ExtractionResult> FirmwareExtractor::Extract(
    std::span<const uint8_t> blob, std::string_view origin) {
  const std::string where =
      origin.empty() ? std::string() : std::string(origin) + ": ";
  if (FaultPlan::Global().ShouldFail(FaultSite::kExtract, origin)) {
    return Internal(where + "injected extract fault");
  }
  auto magic_off = FindMagic(blob);
  if (!magic_off) {
    return NotFound(where + "no firmware signature found in blob");
  }
  Reader r(blob.subspan(*magic_off));
  (void)r.Bytes(4);  // magic
  uint8_t version = r.U8();
  if (version != 1) {
    return Unsupported(where + "unsupported firmware format version");
  }
  uint8_t packing_raw = r.U8();
  if (packing_raw > static_cast<uint8_t>(Packing::kUnknown)) {
    return CorruptData(where + "bad packing tag");
  }
  Packing packing = static_cast<Packing>(packing_raw);
  uint8_t arch_raw = r.U8();
  if (arch_raw > static_cast<uint8_t>(Arch::kDtMips)) {
    return CorruptData(where + "bad architecture tag");
  }
  (void)r.U8();  // reserved

  ExtractionResult result;
  FirmwareImage& image = result.image;
  image.packing = packing;
  image.arch = static_cast<Arch>(arch_raw);
  image.vendor = r.Str();
  image.product = r.Str();
  image.version = r.Str();
  image.release_year = r.U16();
  uint64_t want_checksum = r.U64();
  uint32_t fs_size = r.U32();
  if (!r.ok() || fs_size > r.remaining()) {
    return CorruptData(where + "firmware header truncated");
  }
  std::vector<uint8_t> fs = r.Bytes(fs_size);

  // Undo recoverable packing; refuse unrecoverable ones, like binwalk
  // does for vendor-encrypted images.
  switch (packing) {
    case Packing::kPlain:
      break;
    case Packing::kXor:
      for (uint8_t& b : fs) b ^= kXorKey;
      break;
    case Packing::kEncrypted:
      return Unsupported(where +
                         "vendor-encrypted filesystem (no key available)");
    case Packing::kUnknown:
      return Unsupported(where + "unrecognized filesystem/compression format");
  }

  uint64_t got_checksum =
      Fnv1a(std::span<const uint8_t>(fs.data(), fs.size()));
  if (got_checksum != want_checksum) {
    return CorruptData(where + "filesystem checksum mismatch after unpack");
  }

  Reader fr(fs);
  uint32_t n_files = fr.U32();
  if (n_files > 1u << 16) {
    return CorruptData(where + "implausible file count");
  }
  for (uint32_t i = 0; i < n_files; ++i) {
    FirmwareFile f;
    f.path = fr.Str();
    uint32_t size = fr.U32();
    if (!fr.ok() || size > fr.remaining()) {
      return CorruptData(where + "file entry truncated: " + f.path);
    }
    f.bytes = fr.Bytes(size);
    image.files.push_back(std::move(f));
  }
  if (!fr.ok()) return CorruptData(where + "filesystem table truncated");
  return result;
}

}  // namespace dtaint

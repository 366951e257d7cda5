// Test-side reader of the summary cache's pack files (layout in
// src/cache/summary_cache.h), so corruption tests can damage exactly
// the bytes they mean to: one blob, every blob, or the index.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "src/util/hash.h"

namespace dtaint {
namespace testing_util {

inline constexpr size_t kPackHeaderBytes = 12;  // magic, version, count
inline constexpr size_t kPackRecordBytes = 20;  // key.hi, key.lo, length
inline constexpr size_t kPackChecksumBytes = 8;

/// Every `.dtsp` file in `dir`, sorted by name.
inline std::vector<std::filesystem::path> PackFiles(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> packs;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".dtsp") packs.push_back(it->path());
  }
  std::sort(packs.begin(), packs.end());
  return packs;
}

inline std::vector<uint8_t> ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

inline void WriteBytes(const std::filesystem::path& path,
                       const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

inline uint64_t LoadLe(const std::vector<uint8_t>& bytes, size_t at,
                       int width) {
  uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    value |= static_cast<uint64_t>(bytes.at(at + i)) << (8 * i);
  }
  return value;
}

/// One blob of a pack: its key and where its bytes sit in the file.
struct PackBlob {
  Hash128 key;
  size_t offset = 0;
  size_t length = 0;
};

/// The blobs of a pack's bytes, in index order.
inline std::vector<PackBlob> PackBlobs(const std::vector<uint8_t>& pack) {
  const size_t count = LoadLe(pack, 8, 4);
  size_t offset =
      kPackHeaderBytes + count * kPackRecordBytes + kPackChecksumBytes;
  std::vector<PackBlob> blobs;
  for (size_t i = 0; i < count; ++i) {
    const size_t record = kPackHeaderBytes + i * kPackRecordBytes;
    PackBlob blob;
    blob.key = Hash128{LoadLe(pack, record, 8), LoadLe(pack, record + 8, 8)};
    blob.offset = offset;
    blob.length = LoadLe(pack, record + 16, 4);
    offset += blob.length;
    blobs.push_back(blob);
  }
  EXPECT_EQ(offset, pack.size()) << "pack length disagrees with its index";
  return blobs;
}

/// Flips one byte inside `key`'s blob in the pack at `path`. Returns
/// whether the pack holds `key`.
inline bool CorruptBlob(const std::filesystem::path& path, const Hash128& key) {
  std::vector<uint8_t> bytes = ReadBytes(path);
  for (const PackBlob& blob : PackBlobs(bytes)) {
    if (!(blob.key == key)) continue;
    bytes[blob.offset + blob.length / 2] ^= 0xFF;
    WriteBytes(path, bytes);
    return true;
  }
  return false;
}

}  // namespace testing_util
}  // namespace dtaint

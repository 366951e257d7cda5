// FirmwareExtractor — the repo's Binwalk stand-in.
//
// Scans a blob for the DTFW magic (images may be wrapped in vendor
// headers / padding), parses the filesystem, undoes recoverable
// packing (plain, xor), verifies the payload checksum, and returns the
// unpacked FirmwareImage (LoadImageBinary, src/core/scan_image.h, picks
// a binary out of it).
// Encrypted/unknown packings fail with a descriptive status, modeling
// the >65% unpack-failure rate reported in the paper (§VI).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/firmware/image.h"
#include "src/util/status.h"

namespace dtaint {

struct ExtractionResult {
  FirmwareImage image;
};

class FirmwareExtractor {
 public:
  /// Extracts the first firmware image found in `blob`. `origin` (the
  /// blob's file name or fleet label) is woven into error messages so
  /// corpus-scan incident logs name the offending image.
  static Result<ExtractionResult> Extract(std::span<const uint8_t> blob,
                                          std::string_view origin = {});

  /// Finds the offset of the DTFW magic, scanning like binwalk does.
  static std::optional<size_t> FindMagic(std::span<const uint8_t> blob);
};

}  // namespace dtaint

// BinaryLoader: parses DTBIN bytes back into a Binary, verifying the
// container checksum and structural well-formedness. This is the repo's
// "ELF loader" stage — the first thing DTaint's pipeline does once the
// firmware extractor has produced a candidate binary.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "src/binary/binary.h"
#include "src/util/status.h"

namespace dtaint {

class BinaryLoader {
 public:
  /// Parses and validates a serialized DTBIN image. `origin` (a file
  /// path or firmware-member path) is woven into every error message
  /// together with the byte offset the parse failed at, so a fleet
  /// scan's incident log pinpoints the bad input without re-parsing.
  static Result<Binary> Load(std::span<const uint8_t> bytes,
                             std::string_view origin = {});

  /// Quick magic check without a full parse (used by the firmware
  /// extractor to pick executable files out of a root filesystem).
  static bool LooksLikeBinary(std::span<const uint8_t> bytes);
};

}  // namespace dtaint

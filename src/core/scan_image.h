// Image scan — the one entry point from a vendor firmware blob to a
// report: unpack the image (the paper's Binwalk step), load the binary
// out of its root filesystem, analyze it. corpus_scan (in process and
// in supervisor workers), dtaint_cli and router_audit all scan through
// ScanImage, so a failure maps to a status the same way everywhere:
// extractor Unsupported (vendor encryption, unknown packing) is
// "unextractable" with no incident; any other extraction error, a
// binary_path the image lacks, a loader error or an Analyze error is
// "failed" with one incident. `extract` and `load` are obs::Phases, so
// extract + load + binary tile the image_begin..image_end span.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/dtaint.h"
#include "src/firmware/image.h"
#include "src/resilience/supervisor.h"

namespace dtaint {

/// The binary at `binary_path` in `image`, or the first executable in
/// rootfs order when the path is empty; NotFound when there is none.
/// `origin` goes to BinaryLoader::Load (error text, `load` fault site).
Result<Binary> LoadImageBinary(const FirmwareImage& image,
                               std::string_view binary_path,
                               std::string_view origin = {});

struct ImageScan {
  /// Status, row ("FAILED: extract", "FAILED: no binary", "FAILED:
  /// load", "FAILED: analyze" for a failure), the failure's incident or
  /// the report's incidents relabeled with the label, and the report's
  /// complete/functions/findings. The findings JSON and score are the
  /// caller's to fill.
  ScanOutcome outcome;
  Status error;  // why the image did not scan; OK when "ok"
  std::optional<AnalysisReport> report;  // set exactly when "ok"
};

/// image_begin's fields after `image`, in emission order.
using ImageFields =
    std::vector<std::pair<std::string_view, std::string_view>>;

/// Scans a packed firmware image, or a bare DTBIN binary (no
/// `extract`). `label` names the image in events and incidents and is
/// the extract fault-site origin; `label + binary_path` is the load
/// origin. Consults the `crash` fault site right after image_begin (the
/// consult that kills a supervisor running tasks in process).
ImageScan ScanImage(std::span<const uint8_t> blob,
                    std::string_view binary_path, std::string_view label,
                    const DTaintConfig& config,
                    const ImageFields& begin_fields = {});

}  // namespace dtaint

#include "src/core/scan_image.h"

#include <algorithm>
#include <cstdlib>

#include "src/binary/loader.h"
#include "src/firmware/extractor.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/phase.h"
#include "src/resilience/fault.h"

namespace dtaint {

Result<Binary> LoadImageBinary(const FirmwareImage& image,
                               std::string_view binary_path,
                               std::string_view origin) {
  auto file = std::ranges::find_if(image.files, [&](const FirmwareFile& f) {
    return binary_path.empty() ? BinaryLoader::LooksLikeBinary(f.bytes)
                               : f.path == binary_path;
  });
  if (file == image.files.end()) {
    return NotFound("no " +
                    std::string(binary_path.empty() ? "executable"
                                                    : binary_path) +
                    " in extracted image");
  }
  return BinaryLoader::Load(file->bytes, origin);
}

ImageScan ScanImage(std::span<const uint8_t> blob,
                    std::string_view binary_path, std::string_view label,
                    const DTaintConfig& config,
                    const ImageFields& begin_fields) {
  obs::EventStream& events = obs::EventStream::Global();
  obs::Stopwatch image_watch;
  const std::string image(label), path(binary_path);
  if (events.enabled()) {
    obs::Event begin("image_begin");
    begin.Str("image", image);
    for (const auto& [key, value] : begin_fields) begin.Str(key, value);
    events.Emit(begin);
  }
  // Kill-mid-scan oracle hook: dies with image_begin on disk and no
  // image_end, the torn stream scan_report must triage.
  if (FaultPlan::Global().ShouldFail(FaultSite::kCrash, image)) std::abort();

  ImageScan scan;
  ScanOutcome& out = scan.outcome;
  auto fail = [&](const char* row, const char* phase, std::string detail,
                  const Status& status) {
    out.status = "failed";
    out.row = row;
    scan.error = status;
    out.incidents.push_back({image, phase, std::move(detail), status, {}});
    if (events.enabled()) EmitIncident(events, out.incidents.back());
    DTAINT_LOG(obs::LogLevel::kWarn, "scan", "%s",
               out.incidents.back().ToString().c_str());
  };
  std::optional<ExtractionResult> rootfs;  // none for a bare binary
  if (!BinaryLoader::LooksLikeBinary(blob)) {
    obs::Phase extract("extract");
    auto extracted = FirmwareExtractor::Extract(blob, image);
    extract.Finish();
    if (extracted.ok()) {
      rootfs = std::move(*extracted);
    } else if (extracted.status().code() == StatusCode::kUnsupported) {
      out.status = out.row = "unextractable";  // expected attrition
      scan.error = extracted.status();
    } else {
      fail("FAILED: extract", "extract", image, extracted.status());
    }
  }
  if (out.status.empty()) {
    auto binary = [&] {
      obs::Phase load("load");
      if (!rootfs) return BinaryLoader::Load(blob, image + path);
      auto loaded = LoadImageBinary(rootfs->image, path, image + path);
      rootfs.reset();  // freed inside the phase
      return loaded;
    }();
    const Status& status = binary.status();
    if (status.code() == StatusCode::kNotFound) {
      fail("FAILED: no binary", "load", path,
           NotFound(image + ": " + status.message()));
    } else if (!binary.ok()) {
      fail("FAILED: load", "load", path, status);
    } else if (auto report = DTaint(config).Analyze(*binary); !report.ok()) {
      fail("FAILED: analyze", "analyze", binary->soname, report.status());
    } else {
      // The copies carry the image label, so a fleet log is unambiguous
      // across images that share a soname; the report keeps its own.
      for (Incident incident : report->incidents) {
        incident.binary = image;
        out.incidents.push_back(std::move(incident));
      }
      out.status = out.row = "ok";
      out.complete = report->complete;
      out.functions = report->analyzed_functions;
      out.findings = report->findings.size();
      scan.report = std::move(*report);
    }
  }
  if (events.enabled()) {
    events.Emit(obs::Event("image_end")
                    .Str("image", image)
                    .Str("status", out.status)
                    .Bool("complete", out.complete)
                    .Num("functions", out.functions)
                    .Num("findings", out.findings)
                    .Double("duration_ms", image_watch.Seconds() * 1e3));
  }
  return scan;
}

}  // namespace dtaint

// Table V: "Zero-day vulnerabilities discovered using our tool" —
// firmware, vulnerability type, bug status, count.
//
// The paper's 13 zero-days map to the "unknown"-labeled plants; this
// bench verifies DTaint rediscovers each and prints the per-firmware
// tally in the table's shape.
#include <cstdio>
#include <map>

#include "src/core/dtaint.h"
#include "src/core/scan_image.h"
#include "src/obs/bench.h"
#include "src/report/scoring.h"
#include "src/report/table.h"
#include "src/synth/paper_images.h"

using namespace dtaint;

int main(int argc, char** argv) {
  bench::Harness harness("table5_zero_days", argc, argv);
  std::printf("=== Table V: zero-day vulnerabilities ===\n\n");
  TextTable table({"Firmware", "Type", "Bug status", "Bugs",
                   "Detected"});

  int total_zero_days = 0, total_detected = 0;
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    auto fw = BuildPaperImage(spec);
    if (!fw.ok()) return harness.Finish(false);
    auto binary = LoadImageBinary(fw->image, spec.firmware.binary_path);
    if (!binary.ok()) return harness.Fail("load", binary.status());
    Result<AnalysisReport> report = InvalidArgument("not analyzed");
    DetectionScore score;
    // One run per image: detection time and per-phase seconds are
    // gated by ratio, the zero-day rediscovery tallies are deterministic
    // counts held exactly.
    harness.Run(
        spec.firmware.vendor + "_" + spec.firmware.product,
        [&](bench::Rep& rep) {
          DTaint detector;
          report = detector.AnalyzeFunctions(*binary, spec.focus);
          if (!report.ok()) return;
          score = ScoreFindings(report->findings, fw->ground_truth);
          rep.Value("total_seconds", report->total_seconds);
          bench::RecordPhaseSeconds(rep, report->metrics,
                                    report->total_seconds);
        });
    if (!report.ok()) return harness.Finish(false);

    // Group the unknown plants by (class, status) like the paper does.
    struct Tally {
      int bugs = 0;
      int detected = 0;
    };
    std::map<std::pair<std::string, std::string>, Tally> rows;
    for (const PlantedVuln& plant : fw->ground_truth) {
      if (plant.sanitized) continue;
      if (plant.cve_label.find("unknown") == std::string::npos) continue;
      std::string status = "-";
      if (plant.cve_label.find("repaired") != std::string::npos) {
        status = "repaired";
      } else if (plant.cve_label.find("reviewing") != std::string::npos) {
        status = "reviewing";
      } else if (plant.cve_label.find("reported") != std::string::npos) {
        status = "reported";
      }
      Tally& t = rows[{std::string(VulnClassName(plant.vuln_class)),
                       status}];
      ++t.bugs;
      ++total_zero_days;
      for (const std::string& id : score.found_ids) {
        if (id == plant.id) {
          ++t.detected;
          ++total_detected;
        }
      }
    }
    std::string label =
        spec.firmware.vendor + " " + spec.firmware.product;
    for (const auto& [key, tally] : rows) {
      table.AddRow({label, key.first, key.second,
                    std::to_string(tally.bugs),
                    std::to_string(tally.detected)});
      label = "";  // only print the firmware name on its first row
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("rediscovered %d / %d planted zero-days "
              "(paper: 13 zero-days across 4 vendors)\n",
              total_detected, total_zero_days);
  harness.AddExternalRun(
      "totals", 0.0,
      {{"zero_days", static_cast<double>(total_zero_days)},
       {"detected", static_cast<double>(total_detected)}});
  return harness.Finish(total_detected == total_zero_days);
}

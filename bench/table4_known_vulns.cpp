// Table IV: "The previous reported vulnerabilities with the taint
// style using DTaint" — vulnerability label, sink, source, security
// check (all 'N': unchecked).
//
// Runs detection over the images carrying CVE-labeled plants and
// reports, for every known-vulnerability plant, whether DTaint
// recovered exactly the paper's sink/source pair.
#include <cstdio>

#include "src/core/dtaint.h"
#include "src/core/scan_image.h"
#include "src/obs/bench.h"
#include "src/report/scoring.h"
#include "src/report/table.h"
#include "src/synth/paper_images.h"

using namespace dtaint;

namespace {

struct ImageScore {
  PaperImageSpec spec;
  std::vector<PlantedVuln> ground_truth;
  DetectionScore score;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("table4_known_vulns", argc, argv);
  std::printf("=== Table IV: previously reported vulnerabilities ===\n\n");
  TextTable table({"Vulnerability", "Sink", "Source", "Security check",
                   "Detected"});

  // One run covering the whole detection sweep: the per-CVE hits are
  // deterministic counts the regression gate holds exactly.
  Status failed;  // the first build, load or analysis failure
  std::vector<ImageScore> scored;
  harness.Run("detect_all", [&](bench::Rep& rep) {
    scored.clear();
    double detect_seconds = 0.0;
    for (const PaperImageSpec& spec : PaperImageSpecs()) {
      auto fw = BuildPaperImage(spec);
      if (!fw.ok()) {
        failed = fw.status();
        return;
      }
      auto binary = LoadImageBinary(fw->image, spec.firmware.binary_path);
      if (!binary.ok()) {
        failed = binary.status();
        return;
      }
      DTaint detector;
      auto report = detector.AnalyzeFunctions(*binary, spec.focus);
      if (!report.ok()) {
        failed = report.status();
        return;
      }
      detect_seconds += report->total_seconds;
      scored.push_back({spec, fw->ground_truth,
                        ScoreFindings(report->findings, fw->ground_truth)});
    }
    rep.Value("detect_seconds", detect_seconds);
  });
  if (!failed.ok()) return harness.Fail("detection", failed);

  int detected = 0, total = 0;
  for (const ImageScore& image : scored) {
    const DetectionScore& score = image.score;
    for (const PlantedVuln& plant : image.ground_truth) {
      if (plant.sanitized) continue;
      // Table IV covers the CVE/EDB-labeled (previously known) bugs.
      if (plant.cve_label.empty() ||
          plant.cve_label.find("unknown") != std::string::npos) {
        continue;
      }
      ++total;
      bool found = false;
      for (const std::string& id : score.found_ids) {
        if (id == plant.id) found = true;
      }
      if (found) ++detected;
      table.AddRow({plant.cve_label, plant.sink, plant.source, "N",
                    found ? "yes" : "NO"});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("detected %d / %d known vulnerabilities "
              "(paper: 8 of 8 across Tables IV rows)\n",
              detected, total);
  harness.AddExternalRun("totals", 0.0,
                         {{"known_vulns", static_cast<double>(total)},
                          {"detected", static_cast<double>(detected)}});
  return harness.Finish(detected == total);
}

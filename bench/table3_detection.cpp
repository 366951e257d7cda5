// Table III: "The summary of the taint-style vulnerabilities that
// DTaint found" — per image: analyzed functions, sink count, execution
// time, vulnerable paths, vulnerabilities.
//
// Runs the full DTaint pipeline over the six paper-shaped images.
// "Vulnerabilities" here are scored against the synthesizer's ground
// truth (TPs), which is the automated analogue of the paper's manual
// validation on real devices. Table I (sources and sinks) is printed
// first for reference.
//
// Each image's run also exports the pipeline's per-phase seconds (the
// obs::Phase histograms) and their coverage of the binary's total. A
// last run prices the instrumentation itself: the six images scanned
// with the event stream off, then on.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "src/core/dtaint.h"
#include "src/core/scan_image.h"
#include "src/obs/bench.h"
#include "src/obs/events.h"
#include "src/obs/stopwatch.h"
#include "src/report/scoring.h"
#include "src/report/table.h"
#include "src/symexec/libmodels.h"
#include "src/synth/paper_images.h"
#include "src/util/strings.h"

using namespace dtaint;

int main(int argc, char** argv) {
  bench::Harness harness("table3_detection", argc, argv);
  std::printf("=== Table I: sources and sinks ===\n\n");
  {
    std::vector<std::string> sink_names, source_names;
    for (const LibFunction& lib : AllLibFunctions()) {
      if (lib.IsSink()) sink_names.emplace_back(lib.name);
      if (lib.IsSource()) source_names.emplace_back(lib.name);
    }
    // The loop copy is a code pattern the path finder seeds itself.
    sink_names.push_back("loop");
    std::printf("  Sensitive sinks: %s\n",
                Join(sink_names, ", ").c_str());
    std::printf("  Input sources:   %s\n\n",
                Join(source_names, ", ").c_str());
  }

  std::printf("=== Table III: detection summary ===\n\n");
  TextTable table({"Firmware", "Analysis fns", "Sinks", "Time (min)",
                   "Vuln paths", "Vulns (TP)", "Missed", "FP",
                   "Precision", "Recall"});
  TextTable paper({"Firmware", "Analysis fns", "Sinks", "Time (min)",
                   "Vuln paths", "Vulns"});

  struct Scanned {
    Binary binary;
    std::vector<std::string> focus;
  };
  std::vector<Scanned> scanned;
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    auto fw = BuildPaperImage(spec);
    if (!fw.ok()) return harness.Fail("build", fw.status());
    auto binary = LoadImageBinary(fw->image, spec.firmware.binary_path);
    if (!binary.ok()) return harness.Fail("load", binary.status());
    Result<AnalysisReport> report = InvalidArgument("not analyzed");
    DetectionScore score;
    // One run per image: the full detection pipeline, with detection
    // quality captured as deterministic counts and the pipeline's
    // phase split (ssa/ddg and every phase) as gated time metrics.
    harness.Run(spec.firmware.vendor + "_" + spec.firmware.product,
                [&](bench::Rep& rep) {
                  DTaint detector;
                  report = detector.AnalyzeFunctions(*binary, spec.focus);
                  if (!report.ok()) return;
                  score = ScoreFindings(report->findings, fw->ground_truth);
                  rep.Value("total_seconds", report->total_seconds);
                  rep.Value("ssa_seconds", report->ssa_seconds);
                  rep.Value("ddg_seconds", report->ddg_seconds);
                  bench::RecordPhaseSeconds(rep, report->metrics,
                                            report->total_seconds);
                  rep.Value("analyzed_functions",
                            static_cast<double>(report->analyzed_functions));
                  // Gated exactly: each analysed function is summarized
                  // once, however often its summaries are linked.
                  rep.Value("summary_functions",
                            static_cast<double>(report->metrics.CounterValue(
                                "summary.functions")));
                  rep.Value("sinks",
                            static_cast<double>(report->sink_count));
                  rep.Value("vuln_paths",
                            static_cast<double>(report->vulnerable_paths));
                  rep.Value("true_positives",
                            static_cast<double>(score.true_positives));
                  rep.Value("false_negatives",
                            static_cast<double>(score.false_negatives));
                  rep.Value("false_positives",
                            static_cast<double>(score.false_positives +
                                                score.safe_twin_hits));
                });
    if (!report.ok()) return harness.Fail("analysis", report.status());

    std::string label = spec.firmware.vendor + " " + spec.firmware.product;
    table.AddRow({label, std::to_string(report->analyzed_functions),
                  std::to_string(report->sink_count),
                  FmtDouble(report->total_seconds / 60.0, 3),
                  std::to_string(report->vulnerable_paths),
                  std::to_string(score.true_positives),
                  std::to_string(score.false_negatives),
                  std::to_string(score.false_positives +
                                 score.safe_twin_hits),
                  FmtDouble(score.Precision(), 2),
                  FmtDouble(score.Recall(), 2)});
    paper.AddRow(
        {label, std::to_string(spec.paper_table3.analysis_functions),
         std::to_string(spec.paper_table3.sinks),
         FmtDouble(spec.paper_table3.minutes, 2),
         std::to_string(spec.paper_table3.vulnerable_paths),
         std::to_string(spec.paper_table3.vulnerabilities)});
    scanned.push_back({std::move(*binary), spec.focus});
  }

  // Instrumentation priced on a real scan: every image with the event
  // stream off and on, over kOverheadPairs pass pairs whose order
  // alternates (off first, then on first, ...), so neither side always
  // runs on the cache state the other left. The ratio is the median
  // per-pair on/off ratio and is informational; the event count of one
  // pass is deterministic.
  harness.Run("instrumentation_overhead", [&](bench::Rep& rep) {
    constexpr int kOverheadPairs = 3;
    const std::string events_path = "bench_table3_events.ndjson";
    obs::EventStream& events = obs::EventStream::Global();
    uint64_t emitted = 0;
    // Scans every image and returns the seconds, with the stream on or
    // off; a negative value when the stream cannot be opened.
    auto scan_all = [&](bool with_events) {
      if (with_events && !events.Open(events_path, "table3_detection")) {
        return -1.0;
      }
      obs::Stopwatch watch;
      for (const Scanned& image : scanned) {
        DTaint detector;
        (void)detector.AnalyzeFunctions(image.binary, image.focus);
      }
      const double seconds = watch.Seconds();
      if (with_events) {
        emitted = events.EventCount();
        events.Close("ok");
      }
      return seconds;
    };
    std::vector<double> ratios;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      const bool on_first = pair % 2 == 1;
      const double first = scan_all(on_first);
      const double second = scan_all(!on_first);
      if (first < 0 || second < 0) return;
      const double off = on_first ? second : first;
      const double on = on_first ? first : second;
      ratios.push_back(on / off);
      std::printf("instrumentation pair %d: %.3fs off, %.3fs with events "
                  "on (%.3fx)\n",
                  pair + 1, off, on, on / off);
    }
    std::filesystem::remove(events_path);
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[ratios.size() / 2];
    rep.Value("events_emitted", static_cast<double>(emitted));
    rep.Value("instrumentation_overhead_ratio", median);
    std::printf("instrumentation: median per-pair ratio %.3fx over %d "
                "pairs\n\n",
                median, kOverheadPairs);
  });
  std::printf("measured (this reproduction; precision/recall vs planted "
              "ground truth):\n%s\n",
              table.Render().c_str());
  std::printf("paper-reported:\n%s", paper.Render().c_str());
  return harness.Finish(true);
}

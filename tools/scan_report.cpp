// scan_report: fleet summary over one or more NDJSON event streams.
//
//   scan_report [--json] [--top N] [--chrome-trace OUT]
//               events.ndjson [more.ndjson ...]
//
// Aggregates the streams written by `corpus_scan --events-out` /
// `dtaint_cli --events-out` — including truncated ones left by killed
// or crashed workers — into a per-image status table, phase time
// breakdown, top-N hot functions, and incident/degradation counts.
// Markdown by default (drop it into a PR comment or
// $GITHUB_STEP_SUMMARY); --json for machines. `--chrome-trace OUT`
// also writes the streams' binary → phase → function timeline (and
// corpus_scan's images) as a Chrome trace for chrome://tracing or
// Perfetto. A torn final line or malformed record is skipped and
// counted, never fatal; an unreadable file or a bad flag exits 2.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/cli_flags.h"
#include "src/obs/scan_report.h"

using namespace dtaint;

int main(int argc, char** argv) {
  bool json = false;
  bool help = false;
  obs::ScanReportOptions options;
  uint64_t top = options.top_functions;
  std::string chrome_trace;
  FlagSet flags;
  flags.Switch("--json", &json);
  flags.Uint("--top", &top);
  flags.String("--chrome-trace", &chrome_trace);
  flags.Switch("--help", &help);
  std::vector<std::string> paths;
  std::string error;
  if (!flags.Parse(argc - 1, argv + 1, &paths, &error)) {
    std::fprintf(stderr, "scan_report: %s (--help for usage)\n",
                 error.c_str());
    return 2;
  }
  if (help) {
    std::printf("usage: scan_report [--json] [--top N] [--chrome-trace OUT] "
                "events.ndjson [more.ndjson ...]\n");
    return 0;
  }
  if (paths.empty()) {
    std::fprintf(stderr, "scan_report: no event stream files given "
                         "(--help for usage)\n");
    return 2;
  }
  auto streams = obs::ReadEventFiles(paths);
  if (!streams.ok()) {
    std::fprintf(stderr, "scan_report: %s\n",
                 streams.status().ToString().c_str());
    return 2;
  }
  if (!chrome_trace.empty()) {
    std::ofstream out(chrome_trace, std::ios::binary | std::ios::trunc);
    out << obs::EventsToChromeTrace(*streams) << '\n';
    if (!out.good()) {
      std::fprintf(stderr, "scan_report: cannot write %s\n",
                   chrome_trace.c_str());
      return 2;
    }
  }
  obs::ScanAggregate agg;
  for (const std::string& text : *streams) obs::AggregateEvents(text, &agg);
  options.top_functions = static_cast<size_t>(top);
  obs::FinalizeAggregate(&agg, options);
  std::string out = json ? obs::AggregateToJson(agg)
                         : obs::AggregateToMarkdown(agg);
  std::fputs(out.c_str(), stdout);
  if (out.empty() || out.back() != '\n') std::fputc('\n', stdout);
  return 0;
}

// bench_diff — compares two BENCH_*.json documents or trees and gates
// on regressions. The CI bench-regression job runs it against the
// committed baselines in bench/baselines/; locally:
//
//   bench_diff bench/baselines build/bench_out            # whole tree
//   bench_diff BENCH_cache_warm.json fresh.json --all     # one bench
//
// Flags:
//   --threshold X      time-metric regression ratio gate (default 1.5)
//   --noise-floor S    seconds below which times are not gated (0.02)
//   --noise-floor-nanos N  same for `_nanos` metrics (50)
//   --rel-tol T        tolerance for deterministic counts (default 0)
//   --allow-missing    missing runs/metrics become notes, not failures
//   --all              print every row, not just the notable ones
//
// Prints a markdown delta table per bench. Exit codes: 0 = no
// regression (improvements included), 1 = regression / drifted count /
// missing metric, 2 = usage, I/O, or parse error. An unknown flag, a
// missing value or a value that is not a non-negative number is a
// usage error naming the flag (src/core/cli_flags.h).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/cli_flags.h"
#include "src/obs/benchdiff.h"
#include "src/util/strings.h"

using namespace dtaint;

namespace {

bool ReadFile(const std::filesystem::path& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// A path names either one document or a tree of BENCH_*.json files;
/// returns filename -> path.
std::map<std::string, std::filesystem::path> CollectDocs(
    const std::filesystem::path& path) {
  std::map<std::string, std::filesystem::path> docs;
  if (std::filesystem::is_directory(path)) {
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && StartsWith(name, "BENCH_") &&
          name.ends_with(".json")) {
        docs[name] = entry.path();
      }
    }
  } else {
    docs[path.filename().string()] = path;
  }
  return docs;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff BASELINE CURRENT [--threshold X] "
               "[--noise-floor S] [--noise-floor-nanos N] [--rel-tol T] "
               "[--allow-missing] [--all]\n"
               "  BASELINE/CURRENT: a BENCH_*.json file or a directory "
               "of them\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  bench::DiffOptions options;
  bool print_all = false;
  FlagSet flags;
  flags.Double("--threshold", &options.time_threshold);
  flags.Double("--noise-floor", &options.noise_floor_seconds);
  flags.Double("--noise-floor-nanos", &options.noise_floor_nanos);
  flags.Double("--rel-tol", &options.value_rel_tol);
  flags.Switch("--allow-missing", &options.allow_missing);
  flags.Switch("--all", &print_all);
  std::string error;
  if (!flags.Parse(argc - 1, argv + 1, &positional, &error)) {
    std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
    return Usage();
  }
  if (options.time_threshold <= 1.0) {
    std::fprintf(stderr, "bench_diff: --threshold must exceed 1\n");
    return Usage();
  }
  if (positional.size() != 2) return Usage();

  auto baselines = CollectDocs(positional[0]);
  auto currents = CollectDocs(positional[1]);
  if (baselines.empty()) {
    std::fprintf(stderr, "bench_diff: no BENCH_*.json under %s\n",
                 positional[0].c_str());
    return 2;
  }

  // When diffing file-vs-file the filenames may differ; pair them up
  // directly (DiffBenchDocs still insists the bench names match).
  if (baselines.size() == 1 && currents.size() == 1 &&
      baselines.begin()->first != currents.begin()->first &&
      !std::filesystem::is_directory(positional[0]) &&
      !std::filesystem::is_directory(positional[1])) {
    auto doc = currents.begin()->second;
    currents.clear();
    currents[baselines.begin()->first] = doc;
  }

  bool regression = false;
  bool compared_any = false;
  for (const auto& [name, base_path] : baselines) {
    auto cur_it = currents.find(name);
    if (cur_it == currents.end()) {
      std::printf("## %s\n\nmissing from %s%s\n\n", name.c_str(),
                  positional[1].c_str(),
                  options.allow_missing ? " (allowed)" : " — REGRESSION");
      if (!options.allow_missing) regression = true;
      continue;
    }
    std::string base_text, cur_text;
    if (!ReadFile(base_path, &base_text) ||
        !ReadFile(cur_it->second, &cur_text)) {
      std::fprintf(stderr, "bench_diff: cannot read %s\n", name.c_str());
      return 2;
    }
    auto report = bench::DiffBenchJson(base_text, cur_text, options);
    if (!report.ok()) {
      std::fprintf(stderr, "bench_diff: %s: %s\n", name.c_str(),
                   report.status().ToString().c_str());
      return 2;
    }
    compared_any = true;
    std::printf("## %s\n\n%s\n", name.c_str(),
                report->ToMarkdown(!print_all).c_str());
    regression = regression || report->HasRegression();
  }
  for (const auto& [name, path] : currents) {
    if (baselines.find(name) == baselines.end()) {
      std::printf("## %s\n\nnew bench (no baseline yet)\n\n", name.c_str());
    }
  }
  if (!compared_any && !regression) {
    std::fprintf(stderr, "bench_diff: nothing compared\n");
    return 2;
  }
  std::printf("%s\n", regression ? "RESULT: REGRESSION" : "RESULT: ok");
  return regression ? 1 : 0;
}

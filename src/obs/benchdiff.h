// Comparison engine for BENCH_*.json documents (src/obs/bench.h) —
// the library behind the tools/bench_diff binary and the CI
// bench-regression gate.
//
// Each (run, metric) pair in the baseline is matched against the
// current document and classified by the metric-naming contract:
//
//  * time metrics (`wall_seconds`, names ending `_seconds` /
//    `_nanos`): gated on the current/baseline ratio. A regression
//    needs ratio > threshold AND the current value above the noise
//    floor (tiny absolute times are scheduler noise, not signal);
//    ratio < 1/threshold is reported as an improvement.
//  * informational metrics (names ending `_ratio`, `_speedup`,
//    `_pct`, `_mb`): machine-dependent; reported, never gated.
//  * everything else: deterministic counts (findings, hits, paths).
//    Any mismatch beyond `value_rel_tol` is a behavioral drift and
//    fails the gate even when timings look fine.
//  * the run's work counters (`metrics.counters`: engine.state_forks,
//    lift.blocks, link.*, pathfind.*, ...), reported as
//    `counters.<name>`: counts whatever their name, gated exactly like
//    the counts above. They measure each layer's work without timing
//    noise. kUngatedCounters names the few that depend on thread
//    scheduling; those are reported and never gated.
//
// Runs or metrics present in the baseline but missing from the current
// document fail the gate (a silently dropped measurement is how perf
// coverage rots); metrics only present in the current document are
// reported as new and pass.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/util/json.h"
#include "src/util/status.h"

namespace dtaint::bench {

struct DiffOptions {
  /// Time-metric regression gate: fail when current/baseline exceeds
  /// this (and the current value clears the noise floor).
  double time_threshold = 1.5;
  /// Seconds below which `_seconds` metrics are never gated.
  double noise_floor_seconds = 0.02;
  /// Nanoseconds below which `_nanos` metrics are never gated.
  double noise_floor_nanos = 50.0;
  /// Relative tolerance for deterministic-count metrics (0 = exact).
  double value_rel_tol = 0.0;
  /// Downgrade missing runs/metrics from failures to notes.
  bool allow_missing = false;
};

enum class MetricClass { kTimeSeconds, kTimeNanos, kInformational, kCount };

/// Work counters that differ between runs of the same build and input
/// (measured over repeated table3/table5 runs at 1, 2 and 8 summary
/// threads): shard-lock waits depend on how threads interleave.
inline constexpr std::string_view kUngatedCounters[] = {"intern.contended"};

/// Prefix of the diff rows that compare work counters.
inline constexpr std::string_view kCounterPrefix = "counters.";

/// False for the counters in kUngatedCounters.
bool IsGatedCounter(std::string_view name);

/// How a metric name is gated; exposed for tests and the doc table.
MetricClass ClassifyMetric(std::string_view name);

enum class DiffStatus {
  kOk,         // within threshold / exact match
  kImproved,   // time metric got >= threshold faster
  kBelowFloor, // time metric under the noise floor, not gated
  kInfo,       // informational metric, never gated
  kRegressed,  // time metric blew the ratio gate
  kChanged,    // deterministic count drifted
  kMissing,    // baseline metric/run absent from current
  kNew,        // current metric/run absent from baseline
};

struct MetricDelta {
  std::string bench;
  std::string run;
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;  // current / baseline; 0 when baseline is 0
  DiffStatus status = DiffStatus::kOk;
};

struct DiffReport {
  std::vector<MetricDelta> rows;

  /// True when any row fails the gate (the bench_diff exit-1 signal).
  bool HasRegression() const;

  /// Markdown delta table; `only_notable` hides kOk/kBelowFloor rows.
  std::string ToMarkdown(bool only_notable) const;
};

/// Diffs two parsed BENCH documents. Errors on schema-version mismatch
/// or documents that don't look like bench output.
Result<DiffReport> DiffBenchDocs(const JsonValue& baseline,
                                 const JsonValue& current,
                                 const DiffOptions& options);

/// Convenience: parse + diff two documents from JSON text.
Result<DiffReport> DiffBenchJson(std::string_view baseline_text,
                                 std::string_view current_text,
                                 const DiffOptions& options);

}  // namespace dtaint::bench

// Benchmark telemetry harness — the shared measurement spine of every
// bench binary (bench/*.cpp). It owns the three things the benches
// used to hand-roll or skip entirely:
//
//  * repetition: warmup + median-of-N per named run, with the median
//    picked by a designated key metric (default wall_seconds) so one
//    noisy scheduler tick can't swing a headline ratio;
//  * attribution: a MetricsRegistry snapshot before and after every
//    rep, so each result carries a clean per-rep metrics delta
//    (per-phase seconds, cache hit rates, intern stats) with no manual
//    timers and no cross-rep bleed;
//  * evidence: environment capture (git sha, compiler + flags, build
//    type, cpu count, DTAINT_* env) and a stable versioned JSON
//    document written via `--json-out BENCH_<name>.json`, the unit the
//    bench_diff tool and the CI bench-regression gate consume.
//
// Flags every harness-using bench accepts:
//   --json-out FILE   write the BENCH json document
//   --reps N          override each run's rep count
// Environment:
//   DTAINT_BENCH_N       same as --reps (CI sets 1 for the fast gate)
//   DTAINT_BENCH_WARMUP  override each run's warmup count
//
// Metric naming contract (what bench_diff gates on — see
// src/obs/benchdiff.h): names ending in `_seconds` (and the built-in
// wall_seconds) are wall-clock time, ratio-gated above a noise floor;
// `_nanos` likewise at nanosecond scale; names ending in `_ratio`,
// `_speedup`, `_pct`, or `_mb` are machine-dependent and informational
// only; every other value is treated as a deterministic count and must
// match the baseline exactly.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace dtaint::bench {

/// Bumped whenever the BENCH_*.json document shape changes; bench_diff
/// refuses to compare documents across versions.
inline constexpr int kBenchSchemaVersion = 1;

/// Build/host provenance embedded in every BENCH document.
struct EnvBlock {
  std::string git_sha;
  std::string compiler;
  std::string compiler_flags;
  std::string build_type;
  std::string os;
  unsigned cpu_count = 0;
  /// DTAINT_* variables present in the process environment.
  std::map<std::string, std::string, std::less<>> env;
};

EnvBlock CaptureEnv();

/// Handed to the measured body once per rep; the body records the
/// scalar results it wants in the BENCH document.
class Rep {
 public:
  void Value(std::string_view name, double v) {
    values_[std::string(name)] = v;
  }

 private:
  friend class Harness;
  std::map<std::string, double, std::less<>> values_;
};

struct RunOptions {
  int reps = 1;    // DTAINT_BENCH_N / --reps override this
  int warmup = 0;  // DTAINT_BENCH_WARMUP overrides this
  /// Rep-ranking key for median selection; falls back to wall_seconds
  /// when a rep didn't record it.
  std::string median_key = "wall_seconds";
};

/// One named measurement: the median rep's values + metrics delta,
/// with the wall-clock spread across reps for honesty.
struct RunResult {
  std::string name;
  int reps = 0;
  int warmup = 0;
  std::string median_key;
  double wall_seconds = 0.0;  // median rep
  double wall_min = 0.0;
  double wall_max = 0.0;
  std::map<std::string, double, std::less<>> values;
  obs::MetricsSnapshot metrics;  // median rep's per-rep registry delta
};

/// Records what an obs::Phase-instrumented run spent per phase: one
/// `<phase>_seconds` value per `phase.<phase>_micros` histogram with
/// samples in `metrics` (the run's per-run delta), and
/// `phase_coverage_ratio`, their sum over `total_seconds`.
void RecordPhaseSeconds(Rep& rep, const obs::MetricsSnapshot& metrics,
                        double total_seconds);

class Harness {
 public:
  /// Parses --json-out / --reps out of argv (other flags are left for
  /// the bench to interpret).
  Harness(std::string name, int argc = 0, char** argv = nullptr);
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  const std::string& name() const { return name_; }

  /// Effective rep count for a run that defaults to `default_reps`,
  /// after --reps / DTAINT_BENCH_N (benches print it up front).
  int RepsFor(int default_reps) const;

  /// Executes `body` warmup+reps times, snapshotting the metrics
  /// registry around each timed rep, and records the median rep.
  const RunResult& Run(std::string run_name, const RunOptions& opts,
                       const std::function<void(Rep&)>& body);
  const RunResult& Run(std::string run_name,
                       const std::function<void(Rep&)>& body) {
    return Run(std::move(run_name), RunOptions{}, body);
  }

  /// Records a run measured by an external framework (google-benchmark
  /// in bench/micro_engine.cpp) so it lands in the same document.
  const RunResult& AddExternalRun(
      std::string run_name, double wall_seconds,
      std::map<std::string, double, std::less<>> values);

  /// Freeform provenance line surfaced in the document's "notes".
  void Note(std::string note);

  /// A deque so the references Run()/AddExternalRun() return stay
  /// valid across later runs (benches hold results for summary rows).
  const std::deque<RunResult>& runs() const { return runs_; }

  /// The full BENCH document; `ok` is the bench's self-check verdict.
  std::string ToJson(bool ok) const;

  /// Writes --json-out if requested and returns the bench's exit code:
  /// `ok ? 0 : 1`, or 2 when the write failed.
  int Finish(bool ok);
  /// Prints "<what> failed: <status>" and returns Finish(false).
  int Fail(std::string_view what, const Status& status);

  // ---- test hooks ----------------------------------------------------------
  /// Replaces the wall clock (monotonic seconds) for deterministic
  /// median-selection tests.
  void SetClockForTest(std::function<double()> now_seconds);
  /// Redirects per-rep snapshots to a private registry.
  void SetRegistryForTest(obs::MetricsRegistry* registry);

 private:
  std::string name_;
  std::string json_out_;
  int reps_override_ = 0;    // 0 = none
  int warmup_override_ = -1;  // -1 = none
  std::function<double()> now_;
  obs::MetricsRegistry* registry_;
  std::deque<RunResult> runs_;
  std::deque<std::string> notes_;
};

}  // namespace dtaint::bench

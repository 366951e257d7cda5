// DTaint — the end-to-end detector facade.
//
// Pipeline (paper Fig. 4 + §IV): load binary -> build CFG skeletons ->
// per-function static symbolic analysis (bottom-up, once per function)
// with pointer-alias recognition -> indirect-call resolution by
// data-structure-layout similarity -> interprocedural linking ->
// sink-to-source backward path search -> sanitization constraint
// checks -> vulnerability report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/binary/binary.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/interproc.h"
#include "src/core/pathfinder.h"
#include "src/core/sanitizer.h"
#include "src/core/structsim.h"
#include "src/obs/metrics.h"
#include "src/symexec/intern.h"
#include "src/util/status.h"

namespace dtaint {

struct DTaintConfig {
  EngineConfig engine;
  InterprocConfig interproc;
  PathFinderConfig pathfinder;
  /// Feature toggles (for the ablation benches).
  bool enable_alias = true;
  bool enable_structsim = true;
};

/// One reported vulnerability (an unsanitized source->sink path).
struct Finding {
  TaintPath path;
  /// Keeps the expressions in `path` valid for as long as the finding
  /// (or any copy of it) lives: the pin of the analysis that found it.
  InternPin pin = nullptr;
  std::string Summary() const;
};

/// Full result of analyzing one binary.
struct AnalysisReport {
  std::string binary_name;
  Arch arch = Arch::kDtArm;

  // Program shape (paper Table II columns).
  size_t functions = 0;
  size_t blocks = 0;
  size_t call_graph_edges = 0;

  // Detection results (paper Table III columns).
  size_t analyzed_functions = 0;
  size_t sink_count = 0;
  size_t vulnerable_paths = 0;     // paths surviving sanitization check
  size_t total_paths = 0;          // all sink->source paths found
  std::vector<Finding> findings;

  // Phase timings (paper Tables VI/VII): sums of obs::Phase seconds;
  // each phase's own time is `phase.<name>_micros` in `metrics`.
  double ssa_seconds = 0.0;    // lift, filter, callgraph, summary, link
  double ddg_seconds = 0.0;    // structsim through report
  double total_seconds = 0.0;  // the whole call, on its own clock

  // Internals for inspection.
  InterprocStats interproc_stats;
  size_t indirect_calls_resolved = 0;

  /// Path-search effort for this run (sanitized_away filled in here:
  /// total_paths - vulnerable_paths). Deterministic, unlike timings.
  PathFinderStats pathfinder_stats;

  /// Per-run metrics delta (global registry counters as deltas over
  /// this Analyze call; gauges/histograms as current values). Embedded
  /// in the JSON report as the "metrics" object.
  obs::MetricsSnapshot metrics;

  // Resilience accounting (PR: budgets, degraded summaries, error
  // isolation). `complete` is the one-bit triage answer: did any
  // effort cap, degradation, lift failure, or suppression fire? When
  // false the absence of findings is NOT a clean bill of health.
  bool complete = true;
  /// Functions replaced by the conservative degraded summary.
  size_t degraded_functions = 0;
  /// Vulnerable paths withheld because they crossed degraded
  /// (over-approximated) data flow. Guarantees a tight-budget run
  /// reports a subset of a generous-budget run's findings.
  size_t suppressed_findings = 0;
  /// Isolated per-function failures: lift errors and budget
  /// exhaustions, with phase/detail/status/budget counters.
  std::vector<Incident> incidents;
};

class DTaint {
 public:
  explicit DTaint(DTaintConfig config = {}) : config_(config) {}

  /// Analyzes one loaded binary end to end.
  Result<AnalysisReport> Analyze(const Binary& binary) const;

  /// Analyzes only the named functions (the paper manually restricts
  /// huge binaries to their protocol modules, §V-A3/A4). Empty filter
  /// means "all functions". Runs under an ExprInterner pin, so an
  /// analysis that starts with no other pin held recycles the
  /// expressions of the ones before it.
  Result<AnalysisReport> AnalyzeFunctions(
      const Binary& binary, const std::vector<std::string>& only) const;

  const DTaintConfig& config() const { return config_; }

 private:
  DTaintConfig config_;
};

}  // namespace dtaint

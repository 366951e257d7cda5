// Bottom-up interprocedural data flow — paper §III-E, Algorithm 2.
//
// The call graph is traversed in post-order (callees before callers;
// recursion handled by SCC condensation), and each function's
// intraprocedural summary is *linked* against its already-processed
// callees:
//
//  * ret_{callsite} symbols are replaced by the callee's actual return
//    value (ReplaceRetVariable); heap pointers returned by callees get
//    their identity re-hashed with the callsite so distinct callsites
//    yield distinct objects (Listing 1);
//  * the callee's escaping definitions — (d, u) pairs reaching the
//    exit whose root pointer is a formal argument or returned pointer
//    — are rewritten formal->actual (ReplaceFormalArgs) and pushed
//    into the caller's definition pairs (UpdateDefPairs);
//  * the callee's undefined uses are likewise rewritten and forwarded
//    to the caller (ForwardUndefinedUse).
//
// Every function's symbolic analysis runs exactly once (Summarize);
// linking (Link) is a cheap substitution pass that can be re-run over
// the same summaries once indirect calls are resolved. This is the structural reason DTaint's DDG
// generation beats the top-down worklist baseline (paper Table VII).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/resilience/budget.h"
#include "src/resilience/incident.h"
#include "src/symexec/defpairs.h"
#include "src/symexec/engine.h"

namespace dtaint {

class SummaryCache;
class OnDemandAliasOracle;

struct InterprocConfig {
  /// Attach the on-demand alias oracle to the linked analysis
  /// (ProgramAnalysis::alias_oracle). Summaries are the same either
  /// way, so this is not part of the summary-cache key.
  bool apply_alias = true;
  /// Cap on defs/uses imported per callsite (keeps linking linear on
  /// pathological fan-in).
  size_t max_imported_per_callsite = 256;
  /// Worker threads for the intraprocedural phase. Per-function
  /// symbolic analyses are independent (results are identical for any
  /// thread count — tested by the differential suite). Since the
  /// expression interner landed (src/symexec/intern.h) the per-function
  /// work no longer hammers the allocator — equality is a pointer
  /// compare and factory hits allocate nothing — so extra threads pay
  /// off on multi-core hosts; bench/scaling_threads measures the
  /// sequential-vs-N speedup of the summary phase. Set to the core
  /// count for large binaries/fleets. 1 = sequential (default, and the
  /// right choice on single-core hosts).
  int num_threads = 1;
  /// Optional persistent function-summary cache (off by default). When
  /// set, the intraprocedural phase looks up each function's summary by
  /// its content-addressed key before analyzing, and stores misses
  /// after. Results are identical with or without the cache — enforced
  /// by the differential-oracle test suite. The cache is internally
  /// synchronized; sharing one across threads and scans is safe.
  SummaryCache* cache = nullptr;
  /// Per-function analysis budget (0 limits = unbounded). Each worker
  /// charges its own BudgetTracker during symbolic exploration; an
  /// exhausted function yields the conservative degraded summary (never
  /// cached) and an Incident in the stats.
  AnalysisBudget budget;
};

/// One entry of the hot-function profile: where summary-production time
/// went (paper Tables VI/VII ask exactly this question per phase; this
/// answers it per function, which is what decides where summarization
/// or caching pays off).
struct HotFunction {
  std::string name;
  double seconds = 0.0;
  bool cached = false;  // summary served by the cache, not recomputed
};

/// Size of the hot-function profile kept in InterprocStats.
inline constexpr size_t kHotFunctionCount = 10;

struct InterprocStats {
  /// Wall time of the `summary` phase (set by DTaint::AnalyzeFunctions;
  /// zero from Summarize alone) — per-function summary production
  /// (symbolic analysis, or a cache hit). This is exactly the work a
  /// summary cache can serve, so bench/cache_warm reports its
  /// cold-vs-warm ratio separately from end-to-end time.
  double summary_seconds = 0.0;
  size_t functions_processed = 0;  // functions summarized
  /// Counters of the last Link.
  size_t defs_propagated = 0;
  size_t uses_forwarded = 0;
  size_t rets_replaced = 0;
  /// Summary-cache counters of Summarize (zero when no cache is
  /// configured). Hits + misses = functions looked up. Compatibility
  /// view: since the obs layer landed these are populated from the
  /// metrics registry ("cache.*" counters, which the cache itself
  /// increments), not read off the cache — proven equal to the cache's
  /// own CacheStats by the obs test suite. Both are deltas over
  /// Summarize.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Top functions by summary-production time, most expensive first
  /// (at most kHotFunctionCount).
  std::vector<HotFunction> hot_functions;
  /// Functions that exhausted their budget (or hit an injected summary
  /// fault) and were replaced by the conservative degraded summary.
  size_t degraded_functions = 0;
  /// Functions whose exploration hit any internal path/step cap
  /// (engine truncation or degraded — analysis incomplete either way).
  size_t truncated_functions = 0;
  /// One record per degraded function: phase "summary", the function
  /// name, and the budget counters at exhaustion.
  std::vector<Incident> incidents;
};

/// What Link changed in one summary — enough to restore the phase-1
/// summary exactly. Link only appends imported defs/uses and rewrites
/// ret symbols in place, so the record is small.
struct LinkUndo {
  size_t own_def_pairs = 0;
  size_t own_undefined_uses = 0;
  /// Phase-1 value of every def pair the ret substitution rewrote.
  std::vector<std::pair<size_t, DefPair>> rewritten_def_pairs;
  std::vector<SymRef> own_return_values;
  bool own_ret_degraded = false;
};

/// Whole-program analysis state after the bottom-up pass: per-function
/// linked summaries (def pairs now include inherited callee effects).
struct ProgramAnalysis {
  std::map<std::string, FunctionSummary> summaries;
  InterprocStats stats;
  /// Per linked function, how to undo the link (see Unlink).
  std::map<std::string, LinkUndo> link_undo;
  /// The memoized alias-query oracle consumers (pathfinder, structsim)
  /// share. Null iff the pass ran with apply_alias off.
  std::shared_ptr<OnDemandAliasOracle> alias_oracle;
};

/// Phase 1 of the bottom-up pass: every function's intraprocedural
/// summary, not yet linked, with the stats of producing them. Link
/// consumes it and Unlink gives it back, so the summaries can be linked
/// again after indirect-call resolution without summarizing any
/// function twice.
struct SummarySet {
  std::map<std::string, FunctionSummary> summaries;
  /// Summary-phase stats: cache traffic, hot functions,
  /// degraded/truncated counts, incidents. Link counters are zero.
  InterprocStats stats;
};

/// Summarizes every function of `graph` that `program` holds, exactly
/// once, on `config.num_threads` workers and through `config.cache`
/// when set. A function's IR is lifted only when the engine executes it
/// (a cache miss, or no cache) and freed when its summary is done.
SummarySet Summarize(const Program& program, const CallGraph& graph,
                     const SymEngine& engine,
                     const InterprocConfig& config = {});

/// Links phase-1 summaries per Algorithm 2, sequentially in `graph`'s
/// bottom-up order. `graph` may hold more edges than the one Summarize
/// saw (indirect calls resolved since); the result's stats are
/// `phase1.stats` plus this link's counters.
ProgramAnalysis Link(const Program& program, const CallGraph& graph,
                     SummarySet phase1, const InterprocConfig& config = {});

/// Restores the phase-1 summaries `analysis` was linked from, using its
/// link_undo records, so they can be linked again over a graph with
/// more edges. Holds one copy of the summaries, not two.
SummarySet Unlink(ProgramAnalysis analysis);

/// Summarize followed by Link. `graph` must be built over `program`
/// (with indirect calls resolved beforehand if structure-similarity
/// resolution is enabled).
ProgramAnalysis RunBottomUp(const Program& program, const CallGraph& graph,
                            const SymEngine& engine,
                            const InterprocConfig& config = {});

}  // namespace dtaint

// Sink-to-source path discovery.
//
// With linked summaries in hand, DTaint "tracks the sinks and performs
// backward depth-first traversal to generate paths from sinks to
// sources" (paper §I/§III). A trace starts at a sink call's dangerous
// argument and walks backward through:
//   * definition pairs (def-use matching by memory *region*: a load of
//     deref(buf+k) matches a whole-buffer definition deref(buf) = ...,
//     which is how source functions taint entire buffers);
//   * formal arguments (arg_i of the sink's function is traced into
//     every caller's actual argument via the recorded call events);
// until a Taint symbol (injected by a source library model) is reached
// or the search bottoms out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/interproc.h"
#include "src/symexec/libmodels.h"

namespace dtaint {

/// One hop of a sink-to-source path (backward order: sink first).
struct PathHop {
  std::string function;
  uint32_t site = 0;      // def site / callsite crossed
  std::string note;       // human-readable description
};

/// A complete source → sink data path (pre-sanitization-check).
struct TaintPath {
  // Sink side.
  std::string sink_function;   // function containing the sink call
  uint32_t sink_site = 0;      // callsite of the sink
  std::string sink_name;       // "strcpy", "system", "loop", ...
  VulnClass vuln_class = VulnClass::kBufferOverflow;
  SymRef sink_arg = nullptr;   // the dangerous argument expression
  // Loop sinks: the store address (its index term is what bounds
  // checks hit).
  SymRef sink_store_addr = nullptr;

  // Source side.
  std::string source_name;     // "recv", "getenv", ...
  uint32_t source_site = 0;

  // Trace.
  std::vector<PathHop> hops;

  /// Constraints active at the sink plus those of crossed callsites —
  /// the material the sanitization checker inspects. Copied out of the
  /// summaries' shared lists only for recorded paths.
  std::vector<PathConstraint> constraints;
  /// Expressions the tainted value passed through (sink-side first);
  /// sanitization constraints may be phrased against any of them.
  std::vector<SymRef> traced_exprs;

  /// True when any hop matched a definition pair marked `degraded`
  /// (from a budget-exhausted callee's conservative summary). Such a
  /// path rides on over-approximated data flow, not observed flow; the
  /// detector suppresses it from findings and flags the report
  /// incomplete instead — guaranteeing a tight-budget run never
  /// reports paths a generous-budget run would not.
  bool crossed_degraded = false;
};

struct PathFinderConfig {
  int max_depth = 24;          // backward-step budget per trace
  int max_paths_per_sink = 8;  // stop after this many distinct sources
};

/// Search-effort accounting for one FindAll pass. Deterministic for a
/// given program+config (the traversal is), so safe to serialize into
/// reports that are diffed byte-for-byte.
struct PathFinderStats {
  size_t sinks_visited = 0;    // sink occurrences traced (library + loop)
  size_t paths_explored = 0;   // backward Walk steps taken
  size_t pruned_by_depth = 0;  // walks cut short by the max_depth budget
  size_t paths_found = 0;      // distinct sink-to-source paths emitted
  size_t degraded_paths = 0;   // of those, paths crossing degraded pairs
  /// Library-sink callsites scanned, SinkCount() without a second walk.
  /// Not serialized: reports carry it as `sink_count`.
  size_t sink_callsites = 0;
  /// Found paths the sanitization checker later ruled safe. The
  /// checker runs after FindAll, so the *driver* (AnalyzeBinary) fills
  /// this in; it stays 0 when PathFinder is used standalone.
  size_t sanitized_away = 0;
};

class PathFinder {
 public:
  PathFinder(const Program& program, const ProgramAnalysis& analysis,
             PathFinderConfig config = {})
      : program_(program), analysis_(analysis), config_(config) {}

  /// Finds every sink-to-source path in the program.
  std::vector<TaintPath> FindAll() const;

  /// Number of sink callsites scanned (paper Table III "Sinks count").
  size_t SinkCount() const;

  /// Effort counters of the most recent FindAll call.
  const PathFinderStats& stats() const { return stats_; }

 private:
  const Program& program_;
  const ProgramAnalysis& analysis_;
  PathFinderConfig config_;
  mutable PathFinderStats stats_;
};

/// Region-sensitive match: does definition location `def_loc` define
/// (part of) the memory named by `use_expr`? Exact equality, equal
/// base with equal offset, or a whole-region def (deref(B)) covering
/// any deref(B+k) use.
bool DefCoversUse(SymRef def_loc, SymRef use_expr);

}  // namespace dtaint

// Definition pairs, uses, path constraints, call events, and the
// per-function summary produced by static symbolic analysis.
//
// The definition pair (d, u) — paper §III-B — records "location d was
// defined with value u". DTaint derives everything downstream from
// these: pointer aliases (Algorithm 1), structure layouts (§III-D),
// interprocedural flow (Algorithm 2) and the sink-to-source paths.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/symexec/constraints.h"
#include "src/symexec/symexpr.h"
#include "src/symexec/types.h"

namespace dtaint {

/// One (d, u) definition pair observed on some path.
struct DefPair {
  SymRef d = nullptr;  // location: Deref(...) for memory, or a symbol
  SymRef u = nullptr;  // defined value
  uint32_t site = 0;   // guest address of the defining store/call
  int path_id = 0;     // which explored path produced it
  /// Constraints active when the definition executed (needed by the
  /// loop-copy sink check, which has no call event to read them from).
  /// Shared with every record made on the same path prefix.
  ConstraintList constraints;
  /// True when this pair came from a budget-degraded summary (directly
  /// or imported from a degraded callee during linking). The path
  /// finder refuses to report flows built on degraded pairs — they are
  /// conservative over-approximations, not observed data flow.
  bool degraded = false;

  std::string ToString() const;
};

/// A use of a variable that had no reaching definition in the function
/// (to be forwarded to callers, Algorithm 2 ForwardUndefinedUse).
struct UseRecord {
  SymRef u = nullptr;  // the consumed value expression
  uint32_t site = 0;
  int path_id = 0;
};

/// A call observed during symbolic exploration, with fully symbolic
/// arguments and the constraint prefix active at the call.
struct CallEvent {
  uint32_t callsite = 0;        // address of the BL/BLR
  std::string callee;           // name; empty for unresolved indirect
  bool is_import = false;
  bool is_indirect = false;
  SymRef indirect_target = nullptr;  // symbolic target for indirect calls
  std::vector<SymRef> args;     // arg0..argN as seen at the call
  ConstraintList constraints;   // active constraints (shared)
  int path_id = 0;
};

/// Engine-internals counters for one function's exploration: forks,
/// CoW state traffic, taint-holding paths and pruned statements.
/// Diagnostics only — surfaced through the `engine.*` metrics and the
/// NDJSON function_end events, and deliberately NOT serialized by the
/// summary codec (cache blobs and their content-addressed fingerprints
/// are unchanged; a cache-served summary reports zeros here).
struct ExplorationStats {
  uint64_t state_forks = 0;       // path forks
  uint64_t cow_chunk_copies = 0;  // register chunks cloned on write
  uint64_t overlay_spills = 0;    // overlay commits forced by capacity
  uint64_t tainted_paths = 0;     // finished paths whose taint mask != 0
  uint64_t stmts_pruned = 0;      // IR statements PruneDeadPuts removed
};

/// Everything the engine learned about one function.
struct FunctionSummary {
  std::string name;
  uint32_t addr = 0;

  std::vector<DefPair> def_pairs;
  std::vector<UseRecord> undefined_uses;
  std::vector<CallEvent> calls;
  /// Possible return values (one per explored path that returned).
  std::vector<SymRef> return_values;
  TypeMap types;

  /// Exploration statistics.
  int paths_explored = 0;
  int blocks_visited = 0;
  bool truncated = false;  // hit a path/step budget
  /// True when the analysis budget was exhausted and this summary is
  /// the conservative stand-in from MakeDegradedSummary: every pointer
  /// argument potentially modified, return tainted-if-any-arg-tainted.
  /// Degraded summaries are never written to the persistent cache.
  bool degraded = false;
  /// Set during linking when any return value flowing into this
  /// summary originated in a degraded callee; propagated transitively
  /// so findings through such values can be suppressed.
  bool ret_degraded = false;
  /// Exploration-internals counters (never serialized; see above).
  ExplorationStats engine_stats;

  /// Definition pairs whose location root is a formal argument or a
  /// returned pointer — the part of the summary callers must see.
  std::vector<const DefPair*> EscapingDefs() const;
};

/// True if the location expression is rooted (innermost base) at a
/// formal argument / Sp0 / heap symbol; extracts the root.
SymRef RootPointerOf(SymRef expr);

/// Human-readable dump of a function summary (definition pairs,
/// undefined uses, calls, return values) — the CLI's `inspect
/// --summary` view and a debugging staple.
std::string SummaryToString(const FunctionSummary& summary,
                            size_t max_items = 64);

}  // namespace dtaint

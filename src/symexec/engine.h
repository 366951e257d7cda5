// Static symbolic analysis of one function (paper §III-B).
//
// Explores the function CFG path-by-path over its IR, lifted on entry
// and freed when the summary is done, with its dead register writes
// dropped first (prune.h):
//  * calling-convention-aware entry state (args symbolic, sp = SP);
//  * both directions of every symbolic conditional are explored, with
//    the branch condition recorded as a path constraint;
//  * the loop heuristic "blocks in the same loop are only analyzed
//    once" is realized by never revisiting a block on the same path
//    (back edges are not followed), so a block may still carry several
//    distinct symbolic states from different paths;
//  * direct library calls apply their row of the library table
//    (libmodels.h: taint injection for sources, buffer copies for
//    str*/mem* functions, heap identity for malloc); local callees yield a ret_{callsite} symbol whose
//    meaning is filled in later by the bottom-up interprocedural pass;
//  * every store becomes a definition pair, every load from undefined
//    memory becomes a lazily-named deref variable (and an undefined
//    use when rooted at an argument).
#pragma once

#include <cstdint>

#include "src/binary/binary.h"
#include "src/cfg/function.h"
#include "src/resilience/budget.h"
#include "src/symexec/defpairs.h"
#include "src/symexec/symstate.h"
#include "src/util/status.h"

namespace dtaint {

/// Revision of what the engine computes. Bumped by every change that
/// can give a different summary for the same function and
/// configuration, a renumbering of fresh unknowns included. The
/// summary cache mixes it into every key (EngineFingerprint), so no
/// summary the previous engine wrote is served. Revision 1: pruned
/// register writes (src/symexec/prune.h) draw no widening salt.
inline constexpr uint64_t kEngineRevision = 1;

struct EngineConfig {
  int max_paths = 48;          // terminated-path budget per function
  int max_block_visits = 4096; // total block executions per function
  int max_expr_depth = 96;     // widen expressions beyond this
};

class SymEngine {
 public:
  SymEngine(const Binary& binary, EngineConfig config = {})
      : binary_(binary), config_(config) {}

  /// Runs static symbolic analysis over one function, lifting its IR
  /// for the duration of the call (Lifter::LiftFunction) and dropping
  /// the register writes nothing in the summary reads (PruneDeadPuts).
  /// When a budget tracker is supplied, exploration charges it
  /// cooperatively (one step per IR statement, dropped ones included,
  /// one state per path enqueue); on exhaustion the partial
  /// exploration is discarded and the conservative MakeDegradedSummary
  /// result is returned instead, so callers always compose against a
  /// sound summary.
  FunctionSummary Analyze(const Function& fn,
                          BudgetTracker* budget = nullptr) const;

  const EngineConfig& config() const { return config_; }
  const Binary& binary() const { return binary_; }

 private:
  const Binary& binary_;
  EngineConfig config_;
};

/// The conservative stand-in emitted when a function's analysis budget
/// is exhausted (or a `summary` fault is injected): every register
/// argument is treated as a pointer whose pointee is both read
/// (undefined use, so callers forward taint into it) and potentially
/// rewritten with its own — possibly attacker-derived — contents
/// (identity def pair deref(arg_i) = deref(arg_i)); the return value
/// is the Or-fold of all argument pointees, i.e. tainted iff any
/// argument's buffer is. All pairs and the summary itself carry the
/// `degraded` flag so downstream consumers can tell over-approximation
/// from observed flow. Marked `truncated` too, and never cached.
FunctionSummary MakeDegradedSummary(const Function& fn);

}  // namespace dtaint

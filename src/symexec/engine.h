// Static symbolic analysis of one function (paper §III-B).
//
// Explores the function CFG path-by-path over its IR, lifted on entry
// and freed when the summary is done:
//  * calling-convention-aware entry state (args symbolic, sp = SP);
//  * both directions of every symbolic conditional are explored, with
//    the branch condition recorded as a path constraint;
//  * the loop heuristic "blocks in the same loop are only analyzed
//    once" is realized by never revisiting a block on the same path
//    (back edges are not followed), so a block may still carry several
//    distinct symbolic states from different paths;
//  * direct library calls apply a behavioral model (taint injection
//    for sources, buffer copies for str*/mem* functions, heap identity
//    for malloc); local callees yield a ret_{callsite} symbol whose
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

struct EngineConfig {
  int max_paths = 48;          // terminated-path budget per function
  int max_block_visits = 4096; // total block executions per function
  int max_expr_depth = 96;     // widen expressions beyond this
  bool record_types = true;
};

class SymEngine {
 public:
  SymEngine(const Binary& binary, EngineConfig config = {})
      : binary_(binary), config_(config) {}

  /// Runs static symbolic analysis over one function, lifting its IR
  /// for the duration of the call (Lifter::LiftFunction). When a
  /// budget tracker is supplied, exploration charges it cooperatively
  /// (one step per IR statement, one state per path enqueue); on
  /// exhaustion the partial exploration is discarded and the
  /// conservative MakeDegradedSummary result is returned instead, so
  /// callers always compose against a sound summary.
  FunctionSummary Analyze(const Function& fn,
                          BudgetTracker* budget = nullptr) const;

  const EngineConfig& config() const { return config_; }
  const Binary& binary() const { return binary_; }

 private:
  const Binary& binary_;
  EngineConfig config_;
};

/// Behavioral model of one library function, applied at import calls.
struct LibModel {
  std::string name;
  int taints_pointee_of_arg = -1;  // recv/read: arg index whose buffer
                                   // is overwritten with attacker data
  bool returns_tainted_buffer = false;  // getenv-style: *ret is tainted
  int copy_dst_arg = -1;           // strcpy-style copies
  int copy_src_arg = -1;
  std::vector<int> extra_dst_args; // sscanf: multiple out-pointers
  bool allocates = false;          // malloc-style: returns heap pointer
  int returns_arg = -1;            // strcpy returns dst
  int returns_deref_of_arg = -1;   // strlen-style: the return value is
                                   // a function of the buffer contents,
                                   // modeled as deref(arg) so length
                                   // checks tie back to the region
};

/// Model for a library function, or nullptr if unmodeled.
const LibModel* FindLibModel(std::string_view name);

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

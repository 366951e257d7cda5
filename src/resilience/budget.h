// Per-function analysis budgets — bounded effort for firmware-scale
// scanning.
//
// DTaint's fleet use case (paper §IV scans ~1.5k binaries across 6
// images; the crawl behind it covers 6,529) cannot afford one
// state-exploding function stalling a corpus run. Following the SSE
// follow-up work (arXiv:2109.12209), per-function effort is bounded by
// an AnalysisBudget: wall-clock deadline, symbolic-step count, queued
// symbolic states, and a ceiling on the expression nodes the
// function's exploration builds. Hot loops in the symbolic engine
// charge a BudgetTracker cooperatively; on
// exhaustion the function yields a *conservative degraded summary*
// (see MakeDegradedSummary in src/symexec/engine.h) instead of
// aborting the scan — the Sdft move (arXiv:2111.04005) of substituting
// a sound summary when precise analysis is infeasible.
//
// Semantics notes:
//  * All limits default to 0 = unlimited; the tracker is a no-op then.
//  * Step/state budgets are deterministic: the same function under the
//    same limit always degrades at the same point. Deadline budgets
//    are inherently wall-clock dependent; tests use step budgets.
//  * A degraded summary is never written to the persistent cache, so a
//    later run with a larger budget re-analyzes the function (the
//    cache only ever holds full-effort results).
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

namespace dtaint {

/// Limits on one function's analysis effort. 0 means unlimited.
struct AnalysisBudget {
  /// Wall-clock deadline per function, in milliseconds.
  double deadline_ms = 0;
  /// Symbolic statement evaluations per function. The engine runs the
  /// flat IR (src/ir/expr.h), one statement per effect of a guest
  /// instruction, so a step is about one executed instruction: an ALU
  /// op, load, store or conditional branch charges 1, a cmp 2 (one per
  /// flag register), and b/bl/blr/ret/nop/svc charge nothing. A
  /// register write the engine skips because nothing in the summary
  /// reads it (src/symexec/prune.h) is charged all the same, in one
  /// ChargeSteps per block visit, so a limit means the same guest work
  /// whatever the pass removes.
  uint64_t max_steps = 0;
  /// Symbolic states enqueued per function (path forks).
  uint64_t max_states = 0;
  /// Ceiling on the distinct expression nodes this function's symbolic
  /// exploration builds (its ScratchInterner's size, src/symexec/
  /// intern.h). The count is private to the analysing thread and
  /// starts from zero for every function, so the trip point depends
  /// neither on the other summary threads nor on what the process
  /// analysed before. The alias oracle, which runs after linking,
  /// bounds its memo table by the same number (OnDemandAliasOracle).
  uint64_t max_expr_nodes = 0;

  bool limited() const {
    return deadline_ms > 0 || max_steps > 0 || max_states > 0 ||
           max_expr_nodes > 0;
  }
};

/// Which limit tripped (kInjected: a FaultPlan rule fired).
enum class BudgetExhaustion : uint8_t {
  kNone = 0,
  kDeadline,
  kSteps,
  kStates,
  kExprNodes,
  kInjected,
};

/// "none", "deadline", "steps", "states", "expr_nodes", "injected".
std::string_view BudgetExhaustionName(BudgetExhaustion cause);

/// Point-in-time effort counters, embedded in incident records so a
/// degraded function's report says how far the analysis got.
struct BudgetCounters {
  uint64_t steps = 0;
  uint64_t states = 0;
  double elapsed_ms = 0;
  uint64_t expr_nodes = 0;  // exploration's scratch nodes at the last check
  BudgetExhaustion exhausted_by = BudgetExhaustion::kNone;
};

/// Cooperative watchdog for one function's analysis. Owned by a single
/// worker thread — not internally synchronized (each analysis in the
/// phase-1 pool constructs its own). Charging is O(1); the clock
/// (comparatively expensive) is consulted on the first step and every
/// kSlowCheckInterval steps, the scratch interner's node count only
/// every kSlowCheckInterval steps.
class BudgetTracker {
 public:
  explicit BudgetTracker(const AnalysisBudget& limits);

  /// Charges one symbolic step. Returns true when the budget is (now)
  /// exhausted; callers should stop exploring and degrade.
  bool ChargeStep() { return ChargeSteps(1); }

  /// Charges `n` symbolic steps at once, with the outcome of `n`
  /// ChargeStep calls: the same count, the same cause, and the deadline
  /// and node checks of every interval crossed before a step-limit trip
  /// (at the clock reading of this call).
  bool ChargeSteps(uint64_t n);

  /// Charges one enqueued symbolic state.
  bool ChargeState();

  /// True once any limit has tripped (sticky).
  bool exhausted() const { return cause_ != BudgetExhaustion::kNone; }
  BudgetExhaustion cause() const { return cause_; }

  /// Marks the budget as exhausted by fault injection (FaultPlan).
  void MarkInjected() { cause_ = BudgetExhaustion::kInjected; }

  /// Effort snapshot (elapsed time computed at call time).
  BudgetCounters counters() const;

  const AnalysisBudget& limits() const { return limits_; }

 private:
  // About the work of 1,024 three-address IR statements: a flat-IR
  // step does 4.6x as much on the fleet_cold corpus (DESIGN.md).
  static constexpr uint64_t kSlowCheckInterval = 256;

  /// The amortized checks ChargeStep runs (see the class comment).
  void CheckDeadline();
  void CheckExprNodes();

  AnalysisBudget limits_;
  std::chrono::steady_clock::time_point start_;
  uint64_t steps_ = 0;
  uint64_t states_ = 0;
  uint64_t expr_nodes_seen_ = 0;
  BudgetExhaustion cause_ = BudgetExhaustion::kNone;
};

}  // namespace dtaint

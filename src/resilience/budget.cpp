#include "src/resilience/budget.h"

#include <algorithm>

#include "src/symexec/intern.h"

namespace dtaint {

std::string_view BudgetExhaustionName(BudgetExhaustion cause) {
  switch (cause) {
    case BudgetExhaustion::kNone:
      return "none";
    case BudgetExhaustion::kDeadline:
      return "deadline";
    case BudgetExhaustion::kSteps:
      return "steps";
    case BudgetExhaustion::kStates:
      return "states";
    case BudgetExhaustion::kExprNodes:
      return "expr_nodes";
    case BudgetExhaustion::kInjected:
      return "injected";
  }
  return "none";
}

BudgetTracker::BudgetTracker(const AnalysisBudget& limits)
    : limits_(limits), start_(std::chrono::steady_clock::now()) {}

bool BudgetTracker::ChargeSteps(uint64_t n) {
  const uint64_t first = steps_ + 1;  // the first step charged here
  steps_ += n;
  if (n == 0 || exhausted()) return exhausted();
  if (!limits_.limited()) return false;
  // The checks run for each step up to the one that reaches max_steps,
  // which trips before its own checks.
  uint64_t last = steps_;
  const bool step_limit = limits_.max_steps > 0 && steps_ >= limits_.max_steps;
  if (step_limit) last = std::max(first, limits_.max_steps) - 1;
  if (last >= first) {
    // The first step reads the clock too, so a deadline that passed
    // before the function ran trips however few steps it charges.
    const bool interval =
        last / kSlowCheckInterval > (first - 1) / kSlowCheckInterval;
    if (interval || first == 1) CheckDeadline();
    if (interval && !exhausted()) CheckExprNodes();
  }
  if (step_limit && !exhausted()) cause_ = BudgetExhaustion::kSteps;
  return exhausted();
}

bool BudgetTracker::ChargeState() {
  ++states_;
  if (exhausted()) return true;
  if (limits_.max_states > 0 && states_ >= limits_.max_states) {
    cause_ = BudgetExhaustion::kStates;
  }
  return exhausted();
}

void BudgetTracker::CheckDeadline() {
  if (limits_.deadline_ms <= 0) return;
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  if (elapsed_ms >= limits_.deadline_ms) cause_ = BudgetExhaustion::kDeadline;
}

void BudgetTracker::CheckExprNodes() {
  // The nodes this function's exploration has built: a count private
  // to the analysing thread, so the trip point does not depend on what
  // other threads intern meanwhile. Outside an exploration (the alias
  // pass) there is no scratch interner and this limit does not apply.
  const ScratchInterner* scratch = ScratchInterner::Current();
  if (limits_.max_expr_nodes > 0 && scratch) {
    expr_nodes_seen_ = scratch->size();
    if (expr_nodes_seen_ >= limits_.max_expr_nodes) {
      cause_ = BudgetExhaustion::kExprNodes;
    }
  }
}

BudgetCounters BudgetTracker::counters() const {
  BudgetCounters c;
  c.steps = steps_;
  c.states = states_;
  c.elapsed_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  c.expr_nodes = expr_nodes_seen_;
  c.exhausted_by = cause_;
  return c;
}

}  // namespace dtaint

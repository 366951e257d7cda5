#include "src/core/alias_ondemand.h"

#include "src/obs/log.h"
#include "src/obs/metrics.h"

namespace dtaint {

namespace {

/// Canonicalization fixpoint bound: alias facts can form cycles
/// (p stored in q's cell, q stored in p's), so rewriting runs at most
/// this many rounds. Real chains are 1-2 deep.
constexpr int kMaxCanonicalRounds = 8;

/// One public oracle query: bumps alias.ondemand.queries, and
/// alias.ondemand.hits when the memo already held the answer.
void CountQuery(bool hit) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.counter("alias.ondemand.queries").Add(1);
  if (hit) registry.counter("alias.ondemand.hits").Add(1);
}

}  // namespace

OnDemandAliasOracle::OnDemandAliasOracle(const AnalysisBudget& budget)
    : budget_(budget) {}

OnDemandAliasOracle::Entry& OnDemandAliasOracle::EntryForLocked(
    const FunctionSummary& summary) {
  Entry& entry = memo_[summary.name];
  CountQuery(entry.ready);
  if (entry.ready) return entry;
  entry.facts = CollectAliasFacts(summary);
  // Memo-table budget (AnalysisBudget::max_expr_nodes): once the
  // retained twin-pair total crosses the limit, later functions keep
  // an empty twin set. Conservative — fewer alias matches can only
  // drop findings — and sticky, so one run degrades monotonically.
  if (exhausted_ ||
      (budget_.max_expr_nodes > 0 && memo_pairs_ >= budget_.max_expr_nodes)) {
    if (!exhausted_) {
      DTAINT_LOG(obs::LogLevel::kDebug, "alias",
                 "on-demand memo budget exhausted at %zu pair(s); "
                 "further twin sets degrade to empty",
                 memo_pairs_);
    }
    exhausted_ = true;
  } else {
    entry.twins = ComputeAliasTwins(summary, entry.facts);
    memo_pairs_ += entry.twins.size();
  }
  entry.ready = true;
  return entry;
}

const std::vector<DefPair>& OnDemandAliasOracle::TwinsFor(
    const FunctionSummary& summary) {
  std::lock_guard<std::mutex> lock(mu_);
  return EntryForLocked(summary).twins;
}

const std::vector<AliasFact>& OnDemandAliasOracle::FactsFor(
    const FunctionSummary& summary) {
  std::lock_guard<std::mutex> lock(mu_);
  return EntryForLocked(summary).facts;
}

SymRef OnDemandAliasOracle::CanonicalSse(const FunctionSummary& summary,
                                         SymRef expr) {
  if (!expr) return expr;
  // Copy out under the lock: CanonicalSse runs expression rewrites
  // that must not hold the memo mutex.
  std::vector<AliasFact> facts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    facts = EntryForLocked(summary).facts;
  }
  SymRef cur = expr;
  for (int round = 0; round < kMaxCanonicalRounds; ++round) {
    SymRef next = cur;
    for (const AliasFact& fact : facts) {
      if (!fact.alias_loc || !fact.base) continue;
      SymRef stored = SymAdd(fact.base, fact.offset);
      // A fact whose stored pointer mentions its own cell would grow
      // the expression every round — skip those (degenerate).
      if (stored->Contains(fact.alias_loc)) continue;
      if (!next->Contains(fact.alias_loc)) continue;
      next = SymExpr::Replace(next, fact.alias_loc, stored);
    }
    if (SymExpr::Equal(next, cur)) break;
    cur = next;
  }
  return cur;
}

bool OnDemandAliasOracle::MayAlias(const FunctionSummary& summary,
                                   SymRef a, SymRef b) {
  if (!a || !b) return false;
  if (SymExpr::Equal(a, b)) return true;
  return SymExpr::Equal(CanonicalSse(summary, a), CanonicalSse(summary, b));
}

size_t OnDemandAliasOracle::memo_functions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

size_t OnDemandAliasOracle::memo_pairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_pairs_;
}

bool OnDemandAliasOracle::exhausted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exhausted_;
}

}  // namespace dtaint

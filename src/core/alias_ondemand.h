// On-demand SSE alias resolution — the authors' follow-up to
// Algorithm 1 (arXiv 2109.12209) and the only alias implementation.
//
// Summaries carry no alias-renamed definition pairs. This oracle
// answers "may these two structured symbolic expressions name the
// same storage?" lazily, at the two places the answer is consumed:
//
//  * taint transfer: the backward path walk (src/core/pathfinder.cpp)
//    matches a use against a function's definition pairs and
//    additionally against TwinsFor(summary), Algorithm 1's
//    alias-renamed pairs computed on first demand;
//  * indirect-call resolution: structsim's SSE tier compares the
//    call-target SSE against known function-pointer stores, including
//    the oracle twins.
//
// Two properties make this more than a lazy spelling of Algorithm 1's
// per-function rewrite:
//
//  1. Queries run against *linked* summaries (after Algorithm 2
//     imported callee definitions), so aliases created across call
//     boundaries — caller stores p into a struct inside callee A,
//     callee B stores a function pointer through p — participate. A
//     per-function rewrite before linking structurally cannot see
//     these.
//  2. The hash-consed interner makes SSE equality a pointer compare,
//     so each memoized query is cheap; the cubic rewrite is paid only
//     for functions the path walk actually visits.
//
// Memoization is per function (keyed by name — summaries are unique
// per program analysis) and thread-safe. The memo table is bounded by
// AnalysisBudget::max_expr_nodes: once the total retained twin-pair
// count crosses the limit, further functions get an *empty* twin set
// (conservative: fewer alias matches can only drop findings, so a
// tiny-budget run's findings stay a subset of a generous run's —
// proven in tests/resilience_test.cpp).
//
// Metrics: alias.ondemand.queries / alias.ondemand.hits count memo
// lookups; structsim adds alias.ondemand.resolved_icalls.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/alias.h"
#include "src/resilience/budget.h"
#include "src/symexec/defpairs.h"

namespace dtaint {

class OnDemandAliasOracle {
 public:
  /// `budget.max_expr_nodes` bounds the memo table (0 = unbounded);
  /// the other limits are not consulted here.
  explicit OnDemandAliasOracle(const AnalysisBudget& budget = {});

  /// Alias-renamed twin definition pairs for `summary` — Algorithm 1's
  /// rewrite output, computed from the summary's (linked) pairs on
  /// first demand and memoized. The reference stays valid for the
  /// oracle's lifetime. Returns an empty set once the memo budget is
  /// exhausted.
  const std::vector<DefPair>& TwinsFor(const FunctionSummary& summary);

  /// The summary's alias facts (memoized alongside the twins).
  const std::vector<AliasFact>& FactsFor(const FunctionSummary& summary);

  /// Canonical SSE of `expr` under the summary's alias facts: every
  /// occurrence of an alias cell (the fact's deref location) is
  /// rewritten to the pointer it stores (base + offset), to a bounded
  /// fixpoint. Two expressions alias iff their canonical SSEs are
  /// Equal — with interning, a pointer compare.
  SymRef CanonicalSse(const FunctionSummary& summary, SymRef expr);

  /// May `a` and `b` name the same storage in `summary`? Reflexive and
  /// symmetric; defined as Equal(CanonicalSse(a), CanonicalSse(b)).
  bool MayAlias(const FunctionSummary& summary, SymRef a, SymRef b);

  // ---- introspection (tests, metrics) --------------------------------------
  size_t memo_functions() const;
  /// Total twin pairs retained across all memo entries.
  size_t memo_pairs() const;
  /// True once the memo budget tripped (sticky).
  bool exhausted() const;

 private:
  struct Entry {
    std::vector<AliasFact> facts;
    std::vector<DefPair> twins;
    bool ready = false;
  };

  /// One public query: counts it (a hit when the entry is ready) and
  /// computes or returns the entry. Must be called with mu_ held.
  Entry& EntryForLocked(const FunctionSummary& summary);

  mutable std::mutex mu_;
  std::map<std::string, Entry> memo_;
  AnalysisBudget budget_;
  size_t memo_pairs_ = 0;
  bool exhausted_ = false;
};

}  // namespace dtaint

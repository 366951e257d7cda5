#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/alias.h"

namespace dtaint {
namespace {

DefPair MakeDef(SymRef d, SymRef u) {
  DefPair dp;
  dp.d = std::move(d);
  dp.u = std::move(u);
  return dp;
}

/// Algorithm 1 over `summary`: both phases, as the oracle runs them.
std::vector<DefPair> Twins(const FunctionSummary& summary) {
  return ComputeAliasTwins(summary, CollectAliasFacts(summary));
}

bool HasTwin(const std::vector<DefPair>& twins, const std::string& d) {
  for (const DefPair& dp : twins) {
    if (dp.d->ToString() == d) return true;
  }
  return false;
}

TEST(IsPointerValue, StructuralEvidence) {
  TypeMap types;
  EXPECT_TRUE(IsPointerValue(SymExpr::Heap(1), types));
  EXPECT_TRUE(IsPointerValue(SymAdd(SymExpr::Sp0(), -0x40), types));
  // Argument-, return- and load-rooted values count without type
  // evidence: linked summaries do not carry their callees' types.
  EXPECT_TRUE(IsPointerValue(SymAdd(SymExpr::Arg(0), 8), types));
  EXPECT_TRUE(IsPointerValue(SymExpr::Ret(0x100), types));
  EXPECT_TRUE(IsPointerValue(SymExpr::Deref(SymExpr::Arg(1)), types));
  EXPECT_FALSE(IsPointerValue(SymExpr::Const(4), types));
  EXPECT_FALSE(IsPointerValue(nullptr, types));
}

TEST(AliasTwins, PaperFormulaCase) {
  // *(q+4) = p where p = heap pointer: deref(q+4) aliases p, so the
  // tainted def through p gains a twin through deref(q+4).
  FunctionSummary summary;
  SymRef q = SymExpr::Arg(0);
  SymRef p = SymExpr::Heap(42);
  SymRef store_loc = SymExpr::Deref(SymAdd(q, 4));
  summary.def_pairs.push_back(MakeDef(store_loc, p));
  // A definition through p: *(p) = taint.
  summary.def_pairs.push_back(
      MakeDef(SymExpr::Deref(p), SymExpr::Taint(0x10, "recv")));

  std::vector<AliasFact> facts = CollectAliasFacts(summary);
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_TRUE(SymExpr::Equal(facts[0].alias_loc, store_loc));
  EXPECT_TRUE(SymExpr::Equal(facts[0].base, p));
  EXPECT_EQ(facts[0].offset, 0);
  std::vector<DefPair> twins = ComputeAliasTwins(summary, facts);
  ASSERT_EQ(twins.size(), 1u);
  // The twin: deref(deref(arg0+0x4)) = taint.
  EXPECT_EQ(twins[0].d->ToString(), "deref(deref(arg0+0x4))");
  EXPECT_TRUE(twins[0].u->IsTainted());
  // The summary itself is left alone.
  EXPECT_EQ(summary.def_pairs.size(), 2u);
}

TEST(AliasTwins, OffsetAdjustment) {
  // *(q+4) = base + 8: locations through `base` rewrite to
  // deref(q+4) - 8.
  FunctionSummary summary;
  SymRef base = SymExpr::Heap(7);
  summary.types.Observe(base, ValueType::kPtr);
  SymRef store_loc = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 4));
  summary.def_pairs.push_back(MakeDef(store_loc, SymAdd(base, 8)));
  summary.def_pairs.push_back(
      MakeDef(SymExpr::Deref(SymAdd(base, 12)), SymExpr::Const(1)));

  // deref((deref(arg0+0x4)-8)+12) normalizes to
  // deref(deref(arg0+0x4)+0x4).
  EXPECT_TRUE(HasTwin(Twins(summary), "deref(deref(arg0+0x4)+0x4)"));
}

TEST(AliasTwins, NoSelfAliasLoop) {
  // deref(arg0) = arg0 + 4 must not rewrite itself endlessly.
  FunctionSummary summary;
  summary.types.Observe(SymExpr::Arg(0), ValueType::kPtr);
  summary.def_pairs.push_back(
      MakeDef(SymExpr::Deref(SymExpr::Arg(0)), SymAdd(SymExpr::Arg(0), 4)));
  // Terminates; at most a bounded number of twins.
  EXPECT_LE(Twins(summary).size(), 2u);
}

TEST(AliasTwins, NonPointerValuesIgnored) {
  FunctionSummary summary;
  summary.def_pairs.push_back(MakeDef(
      SymExpr::Deref(SymAdd(SymExpr::Arg(0), 4)), SymExpr::Const(100)));
  EXPECT_TRUE(CollectAliasFacts(summary).empty());
  EXPECT_TRUE(Twins(summary).empty());
}

TEST(AliasTwins, MultiBasePointerVariable) {
  // The paper's example: deref(deref(arg0+0x58)+0xEC) contains base
  // pointers arg0 and deref(arg0+0x58); an alias for the inner one
  // rewrites the outer location.
  FunctionSummary summary;
  SymRef inner = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 0x58));
  summary.types.Observe(inner, ValueType::kPtr);
  // Alias fact source: *(arg1) = deref(arg0+0x58)'s value.
  summary.def_pairs.push_back(
      MakeDef(SymExpr::Deref(SymExpr::Arg(1)), inner));
  // A def through the chain.
  summary.def_pairs.push_back(
      MakeDef(SymExpr::Deref(SymAdd(inner, 0xEC)), SymExpr::Const(5)));
  EXPECT_TRUE(HasTwin(Twins(summary), "deref(deref(arg1)+0xec)"));
}

}  // namespace
}  // namespace dtaint

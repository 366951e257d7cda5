#include <gtest/gtest.h>

#include <cstring>
#include <new>

#include "src/core/alias.h"
#include "src/symexec/defpairs.h"
#include "src/symexec/symexpr.h"
#include "src/symexec/symstate.h"

namespace dtaint {
namespace {

/// Default-constructs a T over storage filled with garbage, so a SymRef
/// field without an initializer keeps the garbage instead of reading
/// null by luck.
template <typename T, typename Check>
void OverGarbage(Check check) {
  alignas(T) unsigned char storage[sizeof(T)];
  std::memset(storage, 0xA5, sizeof storage);
  T* record = new (storage) T;
  check(*record);
  record->~T();
}

TEST(SymRef, EveryRecordDefaultConstructsToNull) {
  // A SymRef is a plain pointer: it starts null only where the field
  // says `= nullptr`.
  OverGarbage<PathConstraint>([](const PathConstraint& c) {
    EXPECT_EQ(c.lhs, nullptr);
    EXPECT_EQ(c.rhs, nullptr);
  });
  OverGarbage<DefPair>([](const DefPair& dp) {
    EXPECT_EQ(dp.d, nullptr);
    EXPECT_EQ(dp.u, nullptr);
  });
  OverGarbage<UseRecord>([](const UseRecord& use) {
    EXPECT_EQ(use.u, nullptr);
  });
  OverGarbage<CallEvent>([](const CallEvent& call) {
    EXPECT_EQ(call.indirect_target, nullptr);
  });
  OverGarbage<AliasFact>([](const AliasFact& fact) {
    EXPECT_EQ(fact.alias_loc, nullptr);
    EXPECT_EQ(fact.base, nullptr);
    EXPECT_EQ(fact.offset, 0);
  });
  OverGarbage<SymExpr::BaseOffset>([](const SymExpr::BaseOffset& split) {
    EXPECT_EQ(split.base, nullptr);
    EXPECT_EQ(split.offset, 0);
  });
  OverGarbage<SymState::MemCell>([](const SymState::MemCell& cell) {
    EXPECT_EQ(cell.addr, nullptr);
    EXPECT_EQ(cell.value, nullptr);
  });
}

TEST(SymExpr, ConstantFolding) {
  SymRef e = SymExpr::Bin(BinOp::kAdd, SymExpr::Const(3), SymExpr::Const(4));
  ASSERT_EQ(e->kind(), SymKind::kConst);
  EXPECT_EQ(e->const_value(), 7u);
  e = SymExpr::Bin(BinOp::kMul, SymExpr::Const(5), SymExpr::Const(6));
  EXPECT_EQ(e->const_value(), 30u);
  // Wrap-around semantics.
  e = SymExpr::Bin(BinOp::kAdd, SymExpr::Const(0xFFFFFFFF),
                   SymExpr::Const(1));
  EXPECT_EQ(e->const_value(), 0u);
}

TEST(SymExpr, ComparesDoNotFoldToConstKindWhenSymbolic) {
  SymRef cmp = SymExpr::Bin(BinOp::kCmpLt, SymExpr::Arg(0),
                            SymExpr::Const(64));
  EXPECT_EQ(cmp->kind(), SymKind::kBin);
}

TEST(SymExpr, AddReassociation) {
  // (arg0 + 8) + 8 -> arg0 + 16
  SymRef e = SymAdd(SymAdd(SymExpr::Arg(0), 8), 8);
  auto split = SymExpr::SplitBaseOffset(e);
  ASSERT_TRUE(split.base);
  EXPECT_EQ(split.base->kind(), SymKind::kArg);
  EXPECT_EQ(split.offset, 16);
}

TEST(SymExpr, AddZeroIdentity) {
  SymRef a = SymExpr::Arg(1);
  EXPECT_TRUE(SymExpr::Equal(SymAdd(a, 0), a));
}

TEST(SymExpr, SubConstBecomesNegativeAdd) {
  SymRef e = SymExpr::Bin(BinOp::kSub, SymExpr::Sp0(), SymExpr::Const(0x118));
  auto split = SymExpr::SplitBaseOffset(e);
  EXPECT_EQ(split.base->kind(), SymKind::kSp0);
  EXPECT_EQ(split.offset, -0x118);
  // ... and cancels back.
  EXPECT_TRUE(SymExpr::Equal(SymAdd(e, 0x118), SymExpr::Sp0()));
}

TEST(SymExpr, SubSelfIsZero) {
  SymRef a = SymExpr::Arg(2);
  SymRef e = SymExpr::Bin(BinOp::kSub, a, a);
  ASSERT_EQ(e->kind(), SymKind::kConst);
  EXPECT_EQ(e->const_value(), 0u);
}

TEST(SymExpr, EqualityIsStructural) {
  SymRef a = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 0x4C));
  SymRef b = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 0x4C));
  SymRef c = SymExpr::Deref(SymAdd(SymExpr::Arg(1), 0x4C));
  EXPECT_TRUE(SymExpr::Equal(a, b));
  EXPECT_EQ(a->hash(), b->hash());
  EXPECT_FALSE(SymExpr::Equal(a, c));
}

TEST(SymExpr, DerefSizeDistinguishes) {
  SymRef a = SymExpr::Deref(SymExpr::Arg(0), 4);
  SymRef b = SymExpr::Deref(SymExpr::Arg(0), 1);
  EXPECT_FALSE(SymExpr::Equal(a, b));
}

TEST(SymExpr, Contains) {
  SymRef needle = SymExpr::Arg(0);
  SymRef hay = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 8));
  EXPECT_TRUE(hay->Contains(needle));
  EXPECT_FALSE(hay->Contains(SymExpr::Arg(3)));
}

TEST(SymExpr, ReplaceRewritesAllOccurrences) {
  SymRef arg = SymExpr::Arg(0);
  SymRef expr = SymExpr::Bin(BinOp::kAdd, SymExpr::Deref(arg), arg);
  SymRef replacement = SymExpr::Sp0();
  SymRef out = SymExpr::Replace(expr, arg, replacement);
  EXPECT_FALSE(out->Contains(arg));
  EXPECT_TRUE(out->Contains(replacement));
}

TEST(SymExpr, ReplaceNoMatchReturnsSamePointer) {
  SymRef expr = SymExpr::Deref(SymExpr::Arg(0));
  SymRef out = SymExpr::Replace(expr, SymExpr::Arg(5), SymExpr::Sp0());
  EXPECT_EQ(out, expr);
}

TEST(SymExpr, CollectDerefs) {
  // deref(deref(arg0+0x58)+0xEC) has two deref nodes.
  SymRef inner = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 0x58));
  SymRef outer = SymExpr::Deref(SymAdd(inner, 0xEC));
  std::vector<SymRef> all;
  SymExpr::CollectDerefs(outer, &all);
  EXPECT_EQ(all.size(), 2u);
  std::vector<SymRef> skip;
  SymExpr::CollectDerefs(outer, &skip, /*skip_self=*/true);
  ASSERT_EQ(skip.size(), 1u);
  EXPECT_TRUE(SymExpr::Equal(skip[0], inner));
}

TEST(SymExpr, TaintDetection) {
  SymRef taint = SymExpr::Taint(0x6C78, "recv");
  SymRef wrapped = SymAdd(SymExpr::Bin(BinOp::kAnd, taint,
                                       SymExpr::Const(0xFF)), 4);
  EXPECT_TRUE(wrapped->IsTainted());
  auto found = wrapped->FindTaint();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->first, 0x6C78u);
  EXPECT_EQ(found->second, "recv");
  EXPECT_FALSE(SymExpr::Arg(0)->IsTainted());
}

TEST(SymExpr, ToStringMirrorsPaperNotation) {
  SymRef e = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 0x4C));
  EXPECT_EQ(e->ToString(), "deref(arg0+0x4c)");
  EXPECT_EQ(SymAdd(SymExpr::Sp0(), -0x100)->ToString(), "SP-0x100");
  EXPECT_EQ(SymExpr::Ret(0x6C4C)->ToString(), "ret_{0x6c4c}");
  EXPECT_EQ(SymExpr::Taint(0x10, "recv")->ToString(),
            "taint(recv@0x10)");
  EXPECT_EQ(SymExpr::Deref(SymExpr::Arg(1), 1)->ToString(),
            "deref8(arg1)");
}

TEST(SymExpr, StripIndex) {
  SymRef buf = SymAdd(SymExpr::Sp0(), 0x10);
  SymRef idx = SymExpr::Deref(SymAdd(SymExpr::Sp0(), 0x14));
  SymRef walked = SymExpr::Bin(BinOp::kAdd, buf, idx);
  EXPECT_TRUE(SymExpr::Equal(StripIndex(walked), buf));
  EXPECT_TRUE(SymExpr::Equal(StripIndex(buf), buf));
}

TEST(SymExpr, DepthGrows) {
  SymRef e = SymExpr::Arg(0);
  int d0 = e->Depth();
  SymRef deeper = SymExpr::Deref(SymAdd(e, 4));
  EXPECT_GT(deeper->Depth(), d0);
}

TEST(RootPointer, StripsDerefsAndOffsets) {
  SymRef e = SymExpr::Deref(
      SymAdd(SymExpr::Deref(SymAdd(SymExpr::Arg(0), 0x58)), 0xEC));
  SymRef root = RootPointerOf(e);
  ASSERT_TRUE(root);
  EXPECT_EQ(root->kind(), SymKind::kArg);
  EXPECT_EQ(root->arg_index(), 0);
}

TEST(RootPointer, DescendsArrayWalks) {
  // deref(buf + i) with buf = Sp0+0x10: root is Sp0.
  SymRef buf = SymAdd(SymExpr::Sp0(), 0x10);
  SymRef idx = SymExpr::InitReg(5);
  SymRef e = SymExpr::Deref(SymExpr::Bin(BinOp::kAdd, buf, idx));
  EXPECT_EQ(RootPointerOf(e)->kind(), SymKind::kSp0);
}

TEST(DefPair, ToStringReadable) {
  DefPair dp;
  dp.d = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 0x4C));
  dp.u = SymExpr::Taint(0x20, "recv");
  dp.site = 0x10010;
  EXPECT_EQ(dp.ToString(),
            "deref(arg0+0x4c) = taint(recv@0x20)  @0x10010");
}

TEST(PathConstraintFmt, NegatedForm) {
  PathConstraint c;
  c.op = BinOp::kCmpGe;
  c.lhs = SymExpr::Arg(0);
  c.rhs = SymExpr::Const(0x40);
  c.taken = false;
  c.site = 0x10;
  EXPECT_EQ(c.ToString(), "!(arg0 CmpGE 0x40)  @0x10");
}

TEST(EscapingDefs, FiltersByRoot) {
  FunctionSummary summary;
  DefPair escaping;
  escaping.d = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 8));
  escaping.u = SymExpr::Const(1);
  DefPair local;
  local.d = SymExpr::Deref(SymAdd(SymExpr::Sp0(), -16));
  local.u = SymExpr::Const(2);
  DefPair heap;
  heap.d = SymExpr::Deref(SymExpr::Heap(99));
  heap.u = SymExpr::Const(3);
  summary.def_pairs = {escaping, local, heap};
  auto escaped = summary.EscapingDefs();
  ASSERT_EQ(escaped.size(), 2u);
  EXPECT_TRUE(SymExpr::Equal(escaped[0]->d, escaping.d));
  EXPECT_TRUE(SymExpr::Equal(escaped[1]->d, heap.d));
}

}  // namespace
}  // namespace dtaint

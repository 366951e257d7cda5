#include <gtest/gtest.h>

#include "src/ir/block.h"
#include "src/ir/expr.h"
#include "src/ir/stmt.h"

namespace dtaint {
namespace {

TEST(Expr, Factories) {
  BumpArena arena;
  ExprRef c = Expr::MakeConst(arena, 0x4C);
  EXPECT_EQ(c->kind(), ExprKind::kConst);
  EXPECT_EQ(c->const_value(), 0x4Cu);

  ExprRef g = Expr::MakeGet(arena, 5);
  EXPECT_EQ(g->reg(), 5);

  ExprRef load = Expr::MakeLoad(arena, g, 1);
  EXPECT_EQ(load->kind(), ExprKind::kLoad);
  EXPECT_EQ(load->load_size(), 1);
  EXPECT_EQ(load->lhs(), g);

  ExprRef bin = Expr::MakeBinop(arena, BinOp::kAdd, g, c);
  EXPECT_EQ(bin->binop(), BinOp::kAdd);
  EXPECT_EQ(bin->lhs(), g);
  EXPECT_EQ(bin->rhs(), c);
}

TEST(Expr, ToString) {
  BumpArena arena;
  ExprRef e = Expr::MakeBinop(arena, BinOp::kAdd, Expr::MakeGet(arena, 5),
                              Expr::MakeConst(arena, 0x4C));
  EXPECT_EQ(e->ToString(), "Add(Get(5), 0x4c)");
  EXPECT_EQ(Expr::MakeLoad(arena, e, 4)->ToString(),
            "Load4(Add(Get(5), 0x4c))");
}

TEST(Expr, BinOpNames) {
  EXPECT_EQ(BinOpName(BinOp::kCmpLe), "CmpLE");
  EXPECT_TRUE(IsCompare(BinOp::kCmpEq));
  EXPECT_FALSE(IsCompare(BinOp::kXor));
}

TEST(Stmt, ToStringForms) {
  BumpArena arena;
  Stmt put = Stmt::Put(0x10004, 0, Expr::MakeGet(arena, 1));
  EXPECT_EQ(put.ToString(), "PUT(0) = Get(1)");
  EXPECT_EQ(put.addr, 0x10004u);
  Stmt store = Stmt::Store(0x10008, Expr::MakeGet(arena, 13),
                           Expr::MakeConst(arena, 0), 4);
  EXPECT_EQ(store.ToString(), "STORE4(Get(13)) = 0x0");
  EXPECT_EQ(store.addr, 0x10008u);
  Stmt exit = Stmt::Exit(
      0x1000C, Expr::MakeBinop(arena, BinOp::kCmpEq, Expr::MakeGet(arena, 16),
                      Expr::MakeGet(arena, 17)),
      0x10050);
  EXPECT_EQ(exit.ToString(),
            "if (CmpEQ(Get(16), Get(17))) goto 0x10050");
}

TEST(Stmt, JumpKindNames) {
  EXPECT_EQ(JumpKindName(JumpKind::kCall), "Ijk_Call");
  EXPECT_EQ(JumpKindName(JumpKind::kIndirectCall), "Ijk_IndirectCall");
}

TEST(Block, EndAddr) {
  IRBlock block;
  block.addr = 0x10000;
  block.size = 12;
  EXPECT_EQ(block.EndAddr(), 0x1000Cu);
}

TEST(Block, ToStringIncludesNext) {
  IRBlock block;
  block.addr = 0x10000;
  block.next = Expr::MakeConst(*block.arena, 0x10010);
  block.jumpkind = JumpKind::kBoring;
  block.stmts.push_back(
      Stmt::Put(0x10000, 1, Expr::MakeConst(*block.arena, 7)));
  std::string s = block.ToString();
  EXPECT_NE(s.find("IRBlock @ 0x10000"), std::string::npos);
  EXPECT_NE(s.find("0x10000: PUT(1) = 0x7"), std::string::npos);
  EXPECT_NE(s.find("NEXT: 0x10010; Ijk_Boring"), std::string::npos);
}

}  // namespace
}  // namespace dtaint

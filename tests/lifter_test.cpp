#include <gtest/gtest.h>

#include <map>

#include "src/binary/writer.h"
#include "src/isa/asm_builder.h"
#include "src/ir/printer.h"
#include "src/lifter/lifter.h"
#include "src/util/strings.h"

namespace dtaint {
namespace {

/// Builds a one-function binary from a builder callback.
Binary BuildWith(void (*author)(FnBuilder&), Arch arch = Arch::kDtArm) {
  BinaryWriter writer(arch, "t");
  writer.AddImport("memcpy");
  FnBuilder b("f");
  author(b);
  writer.AddFunction(std::move(b).Finish().value());
  return writer.Build().value();
}

/// Counts statements of a given kind.
int Count(const IRBlock& block, StmtKind kind) {
  int n = 0;
  for (const Stmt& s : block.stmts) {
    if (s.kind == kind) ++n;
  }
  return n;
}

TEST(Lifter, LoadBecomesBaseOffsetAddress) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.LdrW(1, 5, 0x4C);
    b.Ret();
  });
  Lifter lifter(bin);
  IRBlock block = lifter.LiftBlock(kTextBase).value();
  // One statement, Put(r1, Load4(Add(Get(r5), 0x4c))); the ret has none.
  ASSERT_EQ(block.stmts.size(), 1u);
  const Stmt& put = block.stmts[0];
  EXPECT_EQ(put.kind, StmtKind::kPut);
  EXPECT_EQ(put.reg, 1);
  EXPECT_EQ(put.addr, kTextBase);
  EXPECT_EQ(put.expr->ToString(), "Load4(Add(Get(5), 0x4c))");
  ASSERT_EQ(put.expr->kind(), ExprKind::kLoad);
  ExprRef ea = put.expr->lhs();
  ASSERT_EQ(ea->kind(), ExprKind::kBinop);
  EXPECT_EQ(ea->binop(), BinOp::kAdd);
  EXPECT_EQ(ea->lhs()->kind(), ExprKind::kGet);
  EXPECT_EQ(ea->lhs()->reg(), 5);
  EXPECT_EQ(ea->rhs()->const_value(), 0x4Cu);
  EXPECT_EQ(block.jumpkind, JumpKind::kRet);
}

TEST(Lifter, MovingABlockKeepsItsExpressions) {
  Binary bin = BuildWith([](FnBuilder& b) {
    // Enough instructions to spill the block's arena over several chunks.
    for (int i = 0; i < 256; ++i) b.AddI(1, 1, i);
    b.StrW(1, 13, 4);
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  ASSERT_GT(block.arena->bytes_reserved(), BumpArena::kDefaultChunkBytes);
  const std::string lifted = block.ToString();
  const ExprRef next = block.next;

  // Into a map, as LiftFunction files it; then reuse the moved-from
  // local so any node it still owned would be freed.
  std::map<uint32_t, IRBlock> blocks;
  blocks.emplace(kTextBase, std::move(block));
  block = Lifter(bin).LiftBlock(kTextBase).value();

  const IRBlock& moved = blocks.at(kTextBase);
  EXPECT_EQ(moved.next, next);
  EXPECT_EQ(moved.ToString(), lifted);
}

TEST(Lifter, StoreByteHasSizeOne) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.StrB(2, 3, 7);
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  for (const Stmt& s : block.stmts) {
    if (s.kind == StmtKind::kStore) {
      EXPECT_EQ(s.size, 1);
    }
  }
  EXPECT_EQ(Count(block, StmtKind::kStore), 1);
}

TEST(Lifter, ConditionalBranchEmitsExitWithInlineGuard) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.CmpI(1, 8);
    b.Beq("skip");
    b.Nop();
    b.Label("skip");
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  ASSERT_EQ(Count(block, StmtKind::kExit), 1);
  for (const Stmt& s : block.stmts) {
    if (s.kind != StmtKind::kExit) continue;
    // The guard must be an inline Binop over the flag registers so
    // consumers can read the compared operands.
    ASSERT_EQ(s.expr->kind(), ExprKind::kBinop);
    EXPECT_EQ(s.expr->binop(), BinOp::kCmpEq);
    EXPECT_EQ(s.expr->lhs()->reg(), kFlagLhs);
    EXPECT_EQ(s.target, kTextBase + 3 * kInsnSize);
  }
  // Fallthrough next.
  EXPECT_EQ(block.next->const_value(), kTextBase + 2 * kInsnSize);
  EXPECT_EQ(block.jumpkind, JumpKind::kBoring);
}

TEST(Lifter, CallEndsBlockWithReturnAddr) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.Call("memcpy");
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  EXPECT_EQ(block.jumpkind, JumpKind::kCall);
  EXPECT_EQ(block.return_addr, kTextBase + kInsnSize);
  EXPECT_EQ(block.next->const_value(), kPltBase);  // first import stub
  // The link write lr := return_addr belongs to the jump kind: the call
  // makes no statement.
  EXPECT_TRUE(block.stmts.empty());
}

TEST(Lifter, IndirectCallKeepsSymbolicTarget) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.CallReg(6);
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  EXPECT_EQ(block.jumpkind, JumpKind::kIndirectCall);
  ASSERT_EQ(block.next->kind(), ExprKind::kGet);
  EXPECT_EQ(block.next->reg(), 6);
  EXPECT_TRUE(block.stmts.empty());
}

TEST(Lifter, RetReadsLinkRegister) {
  Binary bin = BuildWith([](FnBuilder& b) { b.Ret(); });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  EXPECT_EQ(block.jumpkind, JumpKind::kRet);
  EXPECT_EQ(block.size, kInsnSize);
}

TEST(Lifter, StopBeforeCutsStraightLine) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.Nop();
    b.Nop();
    b.Nop();
    b.Ret();
  });
  IRBlock block =
      Lifter(bin).LiftBlock(kTextBase, kTextBase + 2 * kInsnSize).value();
  EXPECT_EQ(block.size, 2 * kInsnSize);
  EXPECT_EQ(block.jumpkind, JumpKind::kBoring);
  EXPECT_EQ(block.next->const_value(), kTextBase + 2 * kInsnSize);
}

TEST(Lifter, StatementsCarryGuestAddresses) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.MovI(1, 1);
    b.CmpI(1, 2);
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  std::vector<uint32_t> addrs;
  for (const Stmt& s : block.stmts) addrs.push_back(s.addr);
  // mov: one Put; cmp: a Put per flag register; ret: none.
  EXPECT_EQ(addrs,
            (std::vector<uint32_t>{kTextBase, kTextBase + 4, kTextBase + 4}));
}

TEST(Lifter, NopAndBranchBlockHasNoStatements) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.Nop();
    b.Nop();
    b.B("out");
    b.Label("out");
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  EXPECT_EQ(block.size, 3 * kInsnSize);
  EXPECT_TRUE(block.stmts.empty());
  // The printer still shows every guest word of the block.
  std::string out = PrintBlockWithDisasm(bin, block);
  for (uint32_t pc = kTextBase; pc < block.EndAddr(); pc += kInsnSize) {
    EXPECT_NE(out.find(HexStr(pc) + ": "), std::string::npos) << pc;
  }
  EXPECT_NE(out.find(HexStr(kTextBase + 4) + ": nop"), std::string::npos);
  EXPECT_NE(out.find(HexStr(kTextBase + 8) + ": b"), std::string::npos);
}

TEST(Lifter, UnalignedAddressRejected) {
  Binary bin = BuildWith([](FnBuilder& b) { b.Ret(); });
  EXPECT_FALSE(Lifter(bin).LiftBlock(kTextBase + 2).ok());
}

TEST(Lifter, UnmappedAddressRejected) {
  Binary bin = BuildWith([](FnBuilder& b) { b.Ret(); });
  EXPECT_FALSE(Lifter(bin).LiftBlock(0x5000000).ok());
}

TEST(Lifter, CmpWritesFlagRegisters) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.CmpR(3, 4);
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  bool lhs = false, rhs = false;
  for (const Stmt& s : block.stmts) {
    if (s.kind == StmtKind::kPut && s.reg == kFlagLhs) lhs = true;
    if (s.kind == StmtKind::kPut && s.reg == kFlagRhs) rhs = true;
  }
  EXPECT_TRUE(lhs);
  EXPECT_TRUE(rhs);
}

TEST(Lifter, BigEndianFlavorDecodesIdentically) {
  auto author = [](FnBuilder& b) {
    b.AddI(1, 2, 100);
    b.Ret();
  };
  Binary arm = BuildWith(author, Arch::kDtArm);
  Binary mips = BuildWith(author, Arch::kDtMips);
  IRBlock ba = Lifter(arm).LiftBlock(kTextBase).value();
  IRBlock bm = Lifter(mips).LiftBlock(kTextBase).value();
  ASSERT_EQ(ba.stmts.size(), bm.stmts.size());
  for (size_t i = 0; i < ba.stmts.size(); ++i) {
    EXPECT_EQ(ba.stmts[i].ToString(), bm.stmts[i].ToString());
  }
}

}  // namespace
}  // namespace dtaint

// ---- IR printer (appended) ----------------------------------------------------

namespace dtaint {
namespace {

TEST(Printer, InterleavesDisasmWithIr) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.LdrW(1, 5, 0x4C);
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  std::string out = PrintBlockWithDisasm(bin, block);
  // Guest disassembly line...
  EXPECT_NE(out.find("ldr r1, [r5, #76]"), std::string::npos);
  // ...followed by its one flat statement and the block terminator.
  EXPECT_NE(out.find("ldr r1, [r5, #76]\n"
                     "    PUT(1) = Load4(Add(Get(5), 0x4c))\n"),
            std::string::npos);
  EXPECT_NE(out.find("NEXT(Ijk_Ret)"), std::string::npos);
}

TEST(Printer, MipsRegisterNames) {
  Binary bin = BuildWith(
      [](FnBuilder& b) {
        b.MovR(5, 4);  // mov a1, a0 under MIPS names
        b.Ret();
      },
      Arch::kDtMips);
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  std::string out = PrintBlockWithDisasm(bin, block);
  EXPECT_NE(out.find("mov a1, a0"), std::string::npos);
}

}  // namespace
}  // namespace dtaint

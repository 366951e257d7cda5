#include <gtest/gtest.h>

#include <map>

#include "src/binary/writer.h"
#include "src/isa/asm_builder.h"
#include "src/lifter/lifter.h"

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
  // Expect: Get(r5), Add(+0x4C), Load, Put(r1), then the ret tail.
  ASSERT_GE(block.stmts.size(), 5u);
  bool saw_load_put = false;
  for (const Stmt& s : block.stmts) {
    if (s.kind == StmtKind::kPut && s.reg == 1) {
      saw_load_put = true;
      EXPECT_EQ(s.expr->kind(), ExprKind::kRdTmp);
    }
  }
  EXPECT_TRUE(saw_load_put);
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
  // lr must have been set to the return address.
  bool lr_set = false;
  for (const Stmt& s : block.stmts) {
    if (s.kind == StmtKind::kPut && s.reg == kRegLr) {
      lr_set = true;
      EXPECT_EQ(s.expr->const_value(), kTextBase + kInsnSize);
    }
  }
  EXPECT_TRUE(lr_set);
}

TEST(Lifter, IndirectCallKeepsSymbolicTarget) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.CallReg(6);
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  EXPECT_EQ(block.jumpkind, JumpKind::kIndirectCall);
  EXPECT_EQ(block.next->kind(), ExprKind::kRdTmp);
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

TEST(Lifter, IMarksTrackGuestAddresses) {
  Binary bin = BuildWith([](FnBuilder& b) {
    b.MovI(1, 1);
    b.MovI(2, 2);
    b.Ret();
  });
  IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
  std::vector<uint32_t> marks;
  for (const Stmt& s : block.stmts) {
    if (s.kind == StmtKind::kIMark) marks.push_back(s.addr);
  }
  EXPECT_EQ(marks,
            (std::vector<uint32_t>{kTextBase, kTextBase + 4, kTextBase + 8}));
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

#include "src/ir/printer.h"

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
  // ...followed by the lifted statements and the block terminator.
  EXPECT_NE(out.find("t0 = Get(5)"), std::string::npos);
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

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/binary/writer.h"
#include "src/cfg/cfg_builder.h"
#include "src/isa/asm_builder.h"
#include "src/lifter/lifter.h"
#include "src/symexec/engine.h"
#include "src/symexec/intern.h"
#include "src/symexec/libmodels.h"
#include "src/symexec/prune.h"
#include "src/symexec/symstate.h"

namespace dtaint {
namespace {

/// Analyzes a single authored function (plus imports) and returns its
/// summary.
FunctionSummary Analyze(void (*author)(FnBuilder&),
                        Arch arch = Arch::kDtArm, EngineConfig config = {}) {
  BinaryWriter writer(arch, "t");
  for (const char* imp :
       {"recv", "getenv", "strcpy", "memcpy", "malloc", "strlen",
        "system", "read", "recvfrom"}) {
    writer.AddImport(imp);
  }
  FnBuilder b("f");
  author(b);
  writer.AddFunction(std::move(b).Finish().value());
  Binary bin = writer.Build().value();
  CfgBuilder builder(bin);
  Function fn = builder.BuildFunction(*bin.FindSymbol("f")).value();
  SymEngine engine(bin, config);
  return engine.Analyze(fn);
}

const DefPair* FindDef(const FunctionSummary& summary,
                       const std::string& d_str) {
  for (const DefPair& dp : summary.def_pairs) {
    if (dp.d && dp.d->ToString() == d_str) return &dp;
  }
  return nullptr;
}

TEST(SymState, EntryConventionArm) {
  SymState state = SymState::Entry(Arch::kDtArm);
  EXPECT_EQ(state.Reg(0)->ToString(), "arg0");
  EXPECT_EQ(state.Reg(3)->ToString(), "arg3");
  EXPECT_EQ(state.Reg(kRegSp)->kind(), SymKind::kSp0);
  EXPECT_EQ(state.Reg(5)->kind(), SymKind::kInit);
  // Stack args pre-seeded at [SP + k].
  bool defined = false;
  SymRef v = state.LoadMem(SymAdd(SymExpr::Sp0(), 4), 4, &defined);
  EXPECT_TRUE(defined);
  EXPECT_EQ(v->ToString(), "arg5");
}

TEST(SymState, EntryConventionMips) {
  SymState state = SymState::Entry(Arch::kDtMips);
  EXPECT_EQ(state.Reg(4)->ToString(), "arg0");
  EXPECT_EQ(state.Reg(7)->ToString(), "arg3");
  EXPECT_EQ(state.Reg(0)->kind(), SymKind::kInit);
}

TEST(SymState, StoreLoadRoundTrip) {
  SymState state = SymState::Entry(Arch::kDtArm);
  SymRef addr = SymAdd(SymExpr::Arg(0), 0x4C);
  SymRef value = SymExpr::Const(7);
  state.StoreMem(addr, value, 4);
  bool defined = false;
  SymRef out = state.LoadMem(addr, 4, &defined);
  EXPECT_TRUE(defined);
  EXPECT_TRUE(SymExpr::Equal(out, value));
  // Overwrite replaces.
  state.StoreMem(addr, SymExpr::Const(9), 4);
  EXPECT_EQ(state.LoadMem(addr, 4, nullptr)->const_value(), 9u);
}

TEST(SymState, LazyDerefForUndefined) {
  SymState state = SymState::Entry(Arch::kDtArm);
  SymRef addr = SymAdd(SymExpr::Arg(1), 0x24);
  bool defined = true;
  SymRef out = state.LoadMem(addr, 4, &defined);
  EXPECT_FALSE(defined);
  EXPECT_EQ(out->ToString(), "deref(arg1+0x24)");
}

TEST(Engine, StoreRecordsDefPair) {
  // str arg1 into [arg0 + 0x4C]: def deref(arg0+0x4c) = arg1.
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.StrW(1, 0, 0x4C);
    b.Ret();
  });
  const DefPair* dp = FindDef(summary, "deref(arg0+0x4c)");
  ASSERT_NE(dp, nullptr);
  EXPECT_EQ(dp->u->ToString(), "arg1");
}

TEST(Engine, LoadedChainMatchesPaperNotation) {
  // ldr r5,[r1,0x24]; str r5,[r0,0x4C]  (the paper's woo body).
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.LdrW(5, 1, 0x24);
    b.StrW(5, 0, 0x4C);
    b.Ret();
  });
  const DefPair* dp = FindDef(summary, "deref(arg0+0x4c)");
  ASSERT_NE(dp, nullptr);
  EXPECT_EQ(dp->u->ToString(), "deref(arg1+0x24)");
  // The load from an argument-rooted unknown is an undefined use.
  ASSERT_FALSE(summary.undefined_uses.empty());
  EXPECT_EQ(summary.undefined_uses[0].u->ToString(), "deref(arg1+0x24)");
}

TEST(Engine, BranchForksAndRecordsConstraints) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.CmpI(0, 0x40);       // arg0 vs 64
    b.Bge("out");
    b.MovI(2, 1);
    b.Label("out");
    b.Ret();
  });
  EXPECT_EQ(summary.paths_explored, 2);
  EXPECT_EQ(summary.return_values.size(), 2u);
}

TEST(Engine, ConcreteBranchDoesNotFork) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovI(1, 5);
    b.CmpI(1, 5);          // 5 == 5: concrete
    b.Bne("dead");
    b.MovI(2, 1);
    b.Ret();
    b.Label("dead");
    b.MovI(2, 2);
    b.Ret();
  });
  EXPECT_EQ(summary.paths_explored, 1);
}

TEST(Engine, LoopBlocksAnalyzedOncePerPath) {
  // A loop with a symbolic bound still terminates with bounded paths.
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovI(5, 0);
    b.Label("top");
    b.AddI(5, 5, 1);
    b.CmpR(5, 0);          // vs arg0 (symbolic)
    b.Blt("top");
    b.Ret();
  });
  EXPECT_LE(summary.paths_explored, 3);
  EXPECT_FALSE(summary.truncated);
}

TEST(Engine, RecvTaintsBuffer) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovI(0, 3);
    b.MovR(1, 4);          // buf in r4 (init symbol)
    b.MovI(2, 0x200);
    b.Call("recv");
    b.Ret();
  });
  bool found = false;
  for (const DefPair& dp : summary.def_pairs) {
    if (dp.u && dp.u->IsTainted()) found = true;
  }
  EXPECT_TRUE(found);
  ASSERT_EQ(summary.calls.size(), 1u);
  EXPECT_EQ(summary.calls[0].callee, "recv");
  EXPECT_TRUE(summary.calls[0].is_import);
}

TEST(Engine, GetenvReturnsTaintedPointer) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovI(0, 0x100);
    b.Call("getenv");
    b.LdrB(5, 0, 0);       // read *ret
    b.StrW(5, 13, 8);      // park it so a def pair exists
    b.Ret();
  });
  const DefPair* dp = FindDef(summary, "deref(SP+0x8)");
  ASSERT_NE(dp, nullptr);
  EXPECT_TRUE(dp->u->IsTainted());
}

TEST(Engine, StrcpyCopiesPointeeValue) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovR(0, 4);          // dst
    b.MovR(1, 5);          // src
    b.Call("strcpy");
    b.Ret();
  });
  bool found = false;
  for (const DefPair& dp : summary.def_pairs) {
    if (dp.d->ToString() == "deref(init_r4)" &&
        dp.u->ToString() == "deref(init_r5)") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // strcpy returns dst.
  ASSERT_FALSE(summary.return_values.empty());
  EXPECT_EQ(summary.return_values[0]->ToString(), "init_r4");
}

TEST(Engine, MallocYieldsHeapIdentityPerCallsite) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovI(0, 16);
    b.Call("malloc");
    b.MovR(4, 0);
    b.MovI(0, 16);
    b.Call("malloc");
    b.MovR(5, 0);
    b.StrW(4, 13, 0);
    b.StrW(5, 13, 4);
    b.Ret();
  });
  const DefPair* a = FindDef(summary, "deref(SP)");
  const DefPair* b2 = FindDef(summary, "deref(SP+0x4)");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b2, nullptr);
  EXPECT_EQ(a->u->kind(), SymKind::kHeap);
  EXPECT_EQ(b2->u->kind(), SymKind::kHeap);
  EXPECT_NE(a->u->heap_id(), b2->u->heap_id());  // distinct callsites
}

TEST(Engine, StrlenReturnsBufferFunction) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovR(0, 4);
    b.Call("strlen");
    b.StrW(0, 13, 0);
    b.Ret();
  });
  const DefPair* dp = FindDef(summary, "deref(SP)");
  ASSERT_NE(dp, nullptr);
  EXPECT_EQ(dp->u->ToString(), "deref(init_r4)");
}

TEST(Engine, LocalCallYieldsRetSymbol) {
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("callee");
    b.MovI(0, 7);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("f");
    b.Call("callee");
    b.StrW(0, 13, 0);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  Binary bin = writer.Build().value();
  CfgBuilder builder(bin);
  Function fn = builder.BuildFunction(*bin.FindSymbol("f")).value();
  SymEngine engine(bin);
  FunctionSummary summary = engine.Analyze(fn);
  const DefPair* dp = FindDef(summary, "deref(SP)");
  ASSERT_NE(dp, nullptr);
  EXPECT_EQ(dp->u->kind(), SymKind::kRet);
}

TEST(Engine, IndirectCallReadsItsTargetBeforeTheLinkWrite) {
  // blr lr calls the old lr, as the machine does; only afterwards does
  // lr hold the return address.
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovR(kRegLr, 0);
    b.CallReg(kRegLr);
    b.StrW(kRegLr, kRegSp, 0);
    b.Ret();
  });
  ASSERT_EQ(summary.calls.size(), 1u);
  ASSERT_TRUE(summary.calls[0].is_indirect);
  EXPECT_EQ(summary.calls[0].indirect_target->ToString(), "arg0");
  const DefPair* dp = FindDef(summary, "deref(SP)");
  ASSERT_NE(dp, nullptr);
  ASSERT_EQ(dp->u->kind(), SymKind::kConst);
  EXPECT_EQ(dp->u->const_value(), kTextBase + 2 * kInsnSize);
}

TEST(Engine, StackPassedCallArgsCollected) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.SubI(13, 13, 0x20);
    b.MovI(5, 42);
    b.StrW(5, 13, 0);       // 5th argument on the stack
    b.MovI(0, 1);
    b.MovI(1, 2);
    b.MovI(2, 3);
    b.MovI(3, 4);
    b.Call("system");       // modeled with 1 param, but CollectArgs is
    b.Ret();                // exercised via the event regardless
  });
  ASSERT_EQ(summary.calls.size(), 1u);
  EXPECT_EQ(summary.calls[0].args[0]->const_value(), 1u);
}

TEST(Engine, TypeInferenceFromLoadsAndCompares) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.LdrW(5, 0, 8);   // arg0 used as pointer
    b.CmpI(5, 10);     // loaded value compared to an int
    b.Beq("out");
    b.Label("out");
    b.Ret();
  });
  EXPECT_EQ(summary.types.TypeOf(SymExpr::Arg(0)), ValueType::kPtr);
  EXPECT_EQ(summary.types.TypeOf(
                SymExpr::Deref(SymAdd(SymExpr::Arg(0), 8))),
            ValueType::kInt);
}

TEST(Engine, LibSignatureTypesRecorded) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovR(0, 4);
    b.MovR(1, 5);
    b.Call("strcpy");
    b.Ret();
  });
  EXPECT_EQ(summary.types.TypeOf(SymExpr::InitReg(4)),
            ValueType::kCharPtr);
}

TEST(Engine, PathBudgetSetsTruncatedFlag) {
  EngineConfig tight;
  tight.max_paths = 2;
  FunctionSummary summary = Analyze(
      [](FnBuilder& b) {
        for (int i = 0; i < 4; ++i) {
          b.CmpR(0, 1);
          b.Beq("l" + std::to_string(i));
          b.Label("l" + std::to_string(i));
        }
        b.Ret();
      },
      Arch::kDtArm, tight);
  EXPECT_TRUE(summary.truncated);
  EXPECT_LE(summary.paths_explored, 2);
}

TEST(Engine, DefPairsCarryConstraints) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.CmpI(0, 0x40);
    b.Bge("out");
    b.StrW(1, 13, 0);   // store under the constraint arg0 < 0x40
    b.Label("out");
    b.Ret();
  });
  const DefPair* dp = FindDef(summary, "deref(SP)");
  ASSERT_NE(dp, nullptr);
  std::vector<PathConstraint> constraints = dp->constraints.ToVector();
  ASSERT_EQ(constraints.size(), 1u);
  EXPECT_EQ(constraints[0].op, BinOp::kCmpGe);
  EXPECT_FALSE(constraints[0].taken);
}

TEST(Engine, RecordsOnOnePathPrefixShareOneList) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.CmpI(0, 0x40);
    b.Bge("out");
    b.StrW(1, 13, 0);   // two stores and a call under arg0 < 0x40
    b.StrW(2, 13, 4);
    b.MovR(0, 4);
    b.MovR(1, 5);
    b.Call("strcpy");
    b.CmpI(1, 8);
    b.Beq("out");
    b.StrW(3, 13, 8);   // one constraint deeper, over the same prefix
    b.Label("out");
    b.Ret();
  });
  const DefPair* first = FindDef(summary, "deref(SP)");
  const DefPair* second = FindDef(summary, "deref(SP+0x4)");
  const DefPair* deeper = FindDef(summary, "deref(SP+0x8)");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_NE(deeper, nullptr);
  ASSERT_EQ(first->constraints.size(), 1u);
  EXPECT_EQ(first->constraints.head(), second->constraints.head());
  const CallEvent* strcpy_call = nullptr;
  for (const CallEvent& call : summary.calls) {
    if (call.callee == "strcpy") strcpy_call = &call;
  }
  ASSERT_NE(strcpy_call, nullptr);
  EXPECT_EQ(strcpy_call->constraints.head(), first->constraints.head());
  ASSERT_EQ(deeper->constraints.size(), 2u);
  EXPECT_EQ(deeper->constraints.head()->tail, first->constraints.head());
}

TEST(Engine, PublishingInternsEachTrailCellOnce) {
  const InternStats before = ExprInterner::Global().stats();
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    // Three diamonds in a row: eight paths, and every path records
    // several defs over each prefix of its trail.
    for (int i = 0; i < 3; ++i) {
      const std::string skip = "skip" + std::to_string(i);
      b.CmpI(i, 0x10 * (i + 1));
      b.Bge(skip);
      b.StrW(i + 1, 13, 8 * i);
      b.StrW(i + 2, 13, 8 * i + 4);
      b.Label(skip);
      b.StrW(5, 13, 0x40 + 4 * i);
    }
    b.Ret();
  });
  const InternStats after = ExprInterner::Global().stats();
  std::set<const ConstraintCell*> cells;
  size_t copies = 0;  // constraints over all records, shared or not
  auto walk = [&](ConstraintList list) {
    copies += list.size();
    for (const ConstraintCell* c = list.head(); c; c = c->tail) {
      EXPECT_FALSE(c->trail) << "a trail cell escaped its exploration";
      cells.insert(c);
    }
  };
  for (const DefPair& dp : summary.def_pairs) walk(dp.constraints);
  for (const CallEvent& call : summary.calls) walk(call.constraints);
  ASSERT_FALSE(cells.empty());
  // One InternCell call per distinct trail cell: each cell the summary
  // reaches was published once, however many records share it.
  EXPECT_EQ(after.list_cells + after.list_hits -
                (before.list_cells + before.list_hits),
            cells.size());
  EXPECT_LT(cells.size(), copies);
}

TEST(Engine, TypeMapJoinSemantics) {
  EXPECT_EQ(JoinTypes(ValueType::kUnknown, ValueType::kInt),
            ValueType::kInt);
  EXPECT_EQ(JoinTypes(ValueType::kInt, ValueType::kPtr), ValueType::kPtr);
  EXPECT_EQ(JoinTypes(ValueType::kPtr, ValueType::kCharPtr),
            ValueType::kCharPtr);
  EXPECT_TRUE(IsPointerType(ValueType::kCharPtr));
  EXPECT_FALSE(IsPointerType(ValueType::kChar));
}

TEST(LibModels, TableLookups) {
  ASSERT_NE(FindLibFunction("recv"), nullptr);
  EXPECT_EQ(FindLibFunction("recv")->taints_pointee_of_arg, 1);
  ASSERT_NE(FindLibFunction("getenv"), nullptr);
  EXPECT_TRUE(FindLibFunction("getenv")->returns_tainted_buffer);
  ASSERT_NE(FindLibFunction("memcpy"), nullptr);
  EXPECT_EQ(FindLibFunction("memcpy")->copy_dst_arg, 0);
  EXPECT_EQ(FindLibFunction("no_such_fn"), nullptr);
  ASSERT_NE(FindLibFunction("sprintf"), nullptr);
  EXPECT_EQ(FindLibFunction("sprintf")->params[0], ValueType::kCharPtr);
}

TEST(LibModels, EveryRowIsConsistent) {
  std::set<std::string_view> names;
  std::vector<std::string_view> sources;
  for (const LibFunction& row : AllLibFunctions()) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
    EXPECT_EQ(FindLibFunction(row.name), &row) << row.name;
    // The engine collects exactly params.size() arguments at a call,
    // and the path finder skips a sink whose parameter is missing.
    if (row.IsSink()) {
      EXPECT_LT(row.sink_param, static_cast<int>(row.params.size()))
          << row.name;
    }
    if (row.IsSource()) sources.push_back(row.name);
  }
  // Table I's eight input sources, in Table I order.
  EXPECT_EQ(sources, (std::vector<std::string_view>{
                         "read", "recv", "recvfrom", "recvmsg", "getenv",
                         "fgets", "websGetVar", "find_var"}));
  EXPECT_EQ(FindLibFunction("loop"), nullptr);
}

}  // namespace
}  // namespace dtaint

// ---- summary dump (appended) -------------------------------------------------

namespace dtaint {
namespace {

TEST(SummaryDump, RendersAllSections) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.MovI(0, 3);
    b.MovR(1, 4);
    b.MovI(2, 0x200);
    b.Call("recv");
    b.StrW(0, 13, 0);
    b.Ret();
  });
  summary.name = "dump_me";
  std::string out = SummaryToString(summary);
  EXPECT_NE(out.find("summary of dump_me"), std::string::npos);
  EXPECT_NE(out.find("definition pairs"), std::string::npos);
  EXPECT_NE(out.find("recv("), std::string::npos);
  EXPECT_NE(out.find("returns:"), std::string::npos);
  EXPECT_NE(out.find("taint(recv@"), std::string::npos);
}

TEST(SummaryDump, TruncatesLongLists) {
  FunctionSummary summary;
  summary.name = "long";
  for (int i = 0; i < 100; ++i) {
    DefPair dp;
    dp.d = SymExpr::Deref(SymAdd(SymExpr::Sp0(), i * 4));
    dp.u = SymExpr::Const(i);
    summary.def_pairs.push_back(std::move(dp));
  }
  std::string out = SummaryToString(summary, /*max_items=*/5);
  EXPECT_NE(out.find("..."), std::string::npos);
  // 5 entries + ellipsis, not 100.
  EXPECT_LT(out.size(), 1000u);
}

}  // namespace
}  // namespace dtaint

// ---- widening and stack-args (appended) ---------------------------------------

namespace dtaint {
namespace {

TEST(EngineLimits, DeepExpressionsAreWidened) {
  // A long dependent ALU chain on a symbolic input must not build an
  // unbounded expression tree: beyond max_expr_depth values become
  // fresh opaque symbols.
  EngineConfig tight;
  tight.max_expr_depth = 8;
  FunctionSummary summary = Analyze(
      [](FnBuilder& b) {
        b.MovR(5, 0);  // start from arg0
        for (int i = 0; i < 40; ++i) {
          b.AddR(5, 5, 1);   // r5 = r5 + arg1 (depth grows each step)
        }
        b.StrW(5, 13, 0);
        b.Ret();
      },
      Arch::kDtArm, tight);
  const DefPair* dp = FindDef(summary, "deref(SP)");
  ASSERT_NE(dp, nullptr);
  EXPECT_LE(dp->u->Depth(), 8 + 2);  // widened, not 80-node monster
}

TEST(EngineArgs, SixParameterImportReadsStackSlots) {
  // recvfrom has 6 modeled parameters; 4 travel in registers, the
  // last two on the stack at [sp], [sp+4].
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.SubI(13, 13, 0x20);
    b.MovI(5, 0x111);
    b.StrW(5, 13, 0);     // arg4
    b.MovI(5, 0x222);
    b.StrW(5, 13, 4);     // arg5
    b.MovI(0, 3);
    b.MovR(1, 4);
    b.MovI(2, 0x100);
    b.MovI(3, 0);
    b.Call("recvfrom");
    b.Ret();
  });
  // recvfrom isn't in the Analyze() import list by default; re-check
  // via whichever call event got recorded.
  ASSERT_FALSE(summary.calls.empty());
  const CallEvent& call = summary.calls.back();
  ASSERT_GE(call.args.size(), 6u);
  EXPECT_EQ(call.args[4]->const_value(), 0x111u);
  EXPECT_EQ(call.args[5]->const_value(), 0x222u);
}

TEST(EngineReturns, PathsYieldDistinctReturnValues) {
  FunctionSummary summary = Analyze([](FnBuilder& b) {
    b.CmpI(0, 0);
    b.Beq("zero");
    b.MovI(0, 1);
    b.Ret();
    b.Label("zero");
    b.MovI(0, 2);
    b.Ret();
  });
  ASSERT_EQ(summary.return_values.size(), 2u);
  std::set<uint32_t> values;
  for (SymRef ret : summary.return_values) {
    values.insert(ret->const_value());
  }
  EXPECT_EQ(values, (std::set<uint32_t>{1, 2}));
}

// ---- faint-register pruning (src/symexec/prune.h) ---------------------------

/// An authored function's IR after PruneDeadPuts: each kept statement
/// as text, and how many statements the pass dropped.
struct Pruned {
  std::vector<std::string> kept;
  uint32_t dropped = 0;

  /// True when some kept statement writes register `reg`.
  bool Writes(int reg) const {
    const std::string prefix = "PUT(" + std::to_string(reg) + ") =";
    for (const std::string& stmt : kept) {
      if (stmt.starts_with(prefix)) return true;
    }
    return false;
  }
};

Pruned Prune(void (*author)(FnBuilder&), Arch arch = Arch::kDtArm) {
  BinaryWriter writer(arch, "t");
  writer.AddImport("strcpy");
  FnBuilder b("f");
  author(b);
  writer.AddFunction(std::move(b).Finish().value());
  Binary bin = writer.Build().value();
  Function fn = CfgBuilder(bin).BuildFunction(*bin.FindSymbol("f")).value();
  FunctionIR ir = Lifter(bin).LiftFunction(fn).value();
  Pruned out;
  for (uint32_t n : PruneDeadPuts(ir, ConventionFor(arch))) out.dropped += n;
  for (const auto& [addr, block] : ir.blocks) {
    for (const Stmt& stmt : block.stmts) out.kept.push_back(stmt.ToString());
  }
  return out;
}

TEST(PruneDeadPuts, StoreIsARootAndKeepsWhatItReads) {
  Pruned p = Prune([](FnBuilder& b) {
    b.MovI(5, 1);
    b.AddI(6, 0, 8);
    b.MovI(7, 2);  // read by nothing
    b.StrW(5, 6, 0);
    b.Ret();
  });
  EXPECT_TRUE(p.Writes(5));
  EXPECT_TRUE(p.Writes(6));
  EXPECT_FALSE(p.Writes(7));
  EXPECT_EQ(p.dropped, 1u);
  EXPECT_EQ(p.kept.back(), "STORE4(Add(Get(6), 0x0)) = Get(5)");
}

TEST(PruneDeadPuts, PutOfALoadIsARootAndKeepsItsAddress) {
  // r6 is never read again, but the load records an undefined use.
  Pruned p = Prune([](FnBuilder& b) {
    b.AddI(7, 0, 4);
    b.LdrW(6, 7, 0);
    b.Ret();
  });
  EXPECT_TRUE(p.Writes(6));
  EXPECT_TRUE(p.Writes(7));
  EXPECT_EQ(p.dropped, 0u);
}

TEST(PruneDeadPuts, ExitGuardIsARootAndKeepsTheCompare) {
  Pruned p = Prune([](FnBuilder& b) {
    b.AddI(5, 0, 1);
    b.MovI(6, 3);  // overwritten before anything reads it
    b.MovI(6, 4);
    b.CmpR(5, 6);
    b.Beq("out");
    b.Label("out");
    b.Ret();
  });
  EXPECT_TRUE(p.Writes(5));
  EXPECT_TRUE(p.Writes(kFlagLhs));
  EXPECT_TRUE(p.Writes(kFlagRhs));
  EXPECT_EQ(p.dropped, 1u);
  EXPECT_NE(std::find(p.kept.begin(), p.kept.end(), "PUT(6) = 0x4"),
            p.kept.end());
}

TEST(PruneDeadPuts, ConstantCompareOperandIsARootWithoutABranch) {
  // No exit reads the flags, but `cmp r5, #3` types r5 as an integer,
  // so both flag writes and r5's definition stay.
  Pruned p = Prune([](FnBuilder& b) {
    b.AddI(5, 0, 1);
    b.CmpI(5, 3);
    b.Ret();
  });
  EXPECT_TRUE(p.Writes(5));
  EXPECT_TRUE(p.Writes(kFlagLhs));
  EXPECT_TRUE(p.Writes(kFlagRhs));
  EXPECT_EQ(p.dropped, 0u);
}

TEST(PruneDeadPuts, ReturnReadsOnlyTheReturnRegister) {
  for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
    Pruned p = Prune(
        [](FnBuilder& b) {
          for (int reg = 0; reg < 13; ++reg) b.MovI(reg, reg + 1);
          b.MovI(kRegLr, 0);
          b.Ret();
        },
        arch);
    const int ret = ConventionFor(arch).ret_reg;
    for (int reg = 0; reg <= kRegLr; ++reg) {
      EXPECT_EQ(p.Writes(reg), reg == ret) << ArchName(arch) << " r" << reg;
    }
  }
}

TEST(PruneDeadPuts, DirectCallReadsArgumentsAndSpAndKillsOnlyLr) {
  Pruned p = Prune([](FnBuilder& b) {
    for (int reg = 0; reg < 4; ++reg) b.MovI(reg, reg + 1);
    b.MovI(5, 9);       // read by nothing
    b.MovI(8, 7);       // read after the call returns
    b.SubI(kRegSp, kRegSp, 8);
    b.MovI(kRegLr, 0);  // the call overwrites lr first
    b.Call("strcpy");
    b.StrW(8, 0, 0);
    b.Ret();
  });
  for (int reg : {0, 1, 2, 3, 8, kRegSp}) EXPECT_TRUE(p.Writes(reg)) << reg;
  EXPECT_FALSE(p.Writes(5));
  EXPECT_FALSE(p.Writes(kRegLr));
  EXPECT_EQ(p.dropped, 2u);
}

TEST(PruneDeadPuts, IndirectCallAlsoReadsItsTarget) {
  for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
    Pruned p = Prune(
        [](FnBuilder& b) {
          b.MovI(9, 0x40);   // the call target
          b.MovI(10, 0x44);  // read by nothing
          b.MovI(4, 1);      // an argument on dtmips only
          b.CallReg(9);
          b.Ret();
        },
        arch);
    EXPECT_TRUE(p.Writes(9)) << ArchName(arch);
    EXPECT_FALSE(p.Writes(10)) << ArchName(arch);
    EXPECT_EQ(p.Writes(4), arch == Arch::kDtMips) << ArchName(arch);
  }
}

TEST(PruneDeadPuts, LoopCarriedValueStaysLiveOverTheBackEdge) {
  // The increment is read only by the store of the next iteration.
  Pruned p = Prune([](FnBuilder& b) {
    b.MovI(5, 0);
    b.Label("loop");
    b.StrW(5, kRegSp, 0);
    b.AddI(5, 5, 1);
    b.CmpI(4, 10);
    b.Blt("loop");
    b.Ret();
  });
  EXPECT_NE(std::find(p.kept.begin(), p.kept.end(),
                      "PUT(5) = Add(Get(5), 0x1)"),
            p.kept.end());
  EXPECT_EQ(p.dropped, 0u);
}

TEST(PruneDeadPuts, DeadCycleAcrossBlocksIsRemovedWhole) {
  // r8 and r9 feed each other around a loop and across a diamond, the
  // shape of the fillers' scratch bursts. Each is read, but only by
  // the other, so no write reaches anything the summary keeps.
  Pruned p = Prune([](FnBuilder& b) {
    b.Label("top");
    b.AddR(8, 8, 9);
    b.CmpI(0, 0);
    b.Beq("skip");
    b.LslI(9, 8, 1);
    b.Label("skip");
    b.MulR(9, 9, 8);
    b.CmpI(1, 5);
    b.Blt("top");
    b.Ret();
  });
  EXPECT_FALSE(p.Writes(8));
  EXPECT_FALSE(p.Writes(9));
  EXPECT_EQ(p.dropped, 3u);
}

TEST(PruneDeadPuts, PrunedWidenDrawsNoFreshSalt) {
  // Widening numbers its fresh unknowns by the widenings executed. The
  // dead chain in r8 would widen before the stored chain in r5 does,
  // so without pruning the stored unknown would be numbered after
  // them; pruned, it is the first. That renumbering is why the cache
  // key carries kEngineRevision.
  EngineConfig tight;
  tight.max_expr_depth = 4;
  FunctionSummary summary = Analyze(
      [](FnBuilder& b) {
        b.MovR(8, 0);
        for (int i = 0; i < 12; ++i) b.MulR(8, 8, 1);
        b.MovR(5, 0);
        for (int i = 0; i < 3; ++i) b.MulR(5, 5, 1);
        b.StrW(5, kRegSp, 0);
        b.Ret();
      },
      Arch::kDtArm, tight);
  const DefPair* dp = FindDef(summary, "deref(SP)");
  ASSERT_NE(dp, nullptr);
  EXPECT_EQ(summary.engine_stats.stmts_pruned, 13u);
  // The kept chain widens once, to the first fresh unknown; the dead
  // chain would have drawn six before it.
  EXPECT_EQ(dp->u->ToString(),
            "(init_r" + std::to_string(kFreshInitBase) + " Mul arg1)");
}

}  // namespace
}  // namespace dtaint

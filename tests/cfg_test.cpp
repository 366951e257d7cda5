#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "src/binary/loader.h"
#include "src/binary/writer.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/cfg/loops.h"
#include "src/isa/asm_builder.h"
#include "src/isa/decode.h"
#include "src/lifter/lifter.h"
#include "src/synth/firmware_synth.h"
#include "src/util/rng.h"

namespace dtaint {
namespace {

Binary DiamondBinary() {
  BinaryWriter writer(Arch::kDtArm, "t");
  FnBuilder b("f");
  b.CmpI(1, 0);        // 0x10000
  b.Beq("else");       // 0x10004
  b.MovI(2, 1);        // 0x10008 (then)
  b.B("join");         // 0x1000c
  b.Label("else");
  b.MovI(2, 2);        // 0x10010
  b.Label("join");
  b.Ret();             // 0x10014
  writer.AddFunction(std::move(b).Finish().value());
  return writer.Build().value();
}

TEST(Cfg, DiamondShape) {
  Binary bin = DiamondBinary();
  CfgBuilder builder(bin);
  Function fn = builder.BuildFunction(*bin.FindSymbol("f")).value();
  // Blocks: entry(0x10000-0x10004), then(0x10008-0x1000c),
  // else(0x10010), join(0x10014).
  EXPECT_EQ(fn.blocks.size(), 4u);
  ASSERT_TRUE(fn.succs.count(0x10000));
  std::set<uint32_t> entry_succs(fn.succs.at(0x10000).begin(),
                                 fn.succs.at(0x10000).end());
  EXPECT_EQ(entry_succs, (std::set<uint32_t>{0x10008, 0x10010}));
  EXPECT_EQ(fn.succs.at(0x10008), std::vector<uint32_t>{0x10014});
  EXPECT_EQ(fn.succs.at(0x10010), std::vector<uint32_t>{0x10014});
  // preds mirror succs.
  std::set<uint32_t> join_preds(fn.preds.at(0x10014).begin(),
                                fn.preds.at(0x10014).end());
  EXPECT_EQ(join_preds, (std::set<uint32_t>{0x10008, 0x10010}));
}

TEST(Cfg, EveryInstructionInExactlyOneBlock) {
  Binary bin = DiamondBinary();
  CfgBuilder builder(bin);
  Function fn = builder.BuildFunction(*bin.FindSymbol("f")).value();
  std::set<uint32_t> covered;
  for (const auto& [addr, block] : fn.blocks) {
    for (uint32_t pc = addr; pc < block.EndAddr(); pc += kInsnSize) {
      EXPECT_TRUE(covered.insert(pc).second) << "overlap at " << pc;
    }
  }
  EXPECT_EQ(covered.size(), fn.size / kInsnSize);
}

TEST(Cfg, CallsitesResolved) {
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("recv");
  {
    FnBuilder b("callee");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.Call("callee");
    b.Call("recv");
    b.CallReg(5);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  Binary bin = writer.Build().value();
  CfgBuilder builder(bin);
  Function fn = builder.BuildFunction(*bin.FindSymbol("caller")).value();
  ASSERT_EQ(fn.callsites.size(), 3u);
  EXPECT_EQ(fn.callsites[0].target_name, "callee");
  EXPECT_FALSE(fn.callsites[0].target_is_import);
  EXPECT_EQ(fn.callsites[1].target_name, "recv");
  EXPECT_TRUE(fn.callsites[1].target_is_import);
  EXPECT_TRUE(fn.callsites[2].is_indirect);
  EXPECT_NE(fn.CallSiteAt(fn.callsites[1].call_addr), nullptr);
  EXPECT_EQ(fn.CallSiteAt(0xDEAD), nullptr);
}

TEST(Cfg, BranchEscapingFunctionRejected) {
  // Hand-craft a symbol whose size cuts a branch target off.
  BinaryWriter writer(Arch::kDtArm, "t");
  FnBuilder b("f");
  b.CmpI(1, 0);
  b.Beq("far");
  for (int i = 0; i < 4; ++i) b.Nop();
  b.Label("far");
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  Binary bin = writer.Build().value();
  Symbol truncated = *bin.FindSymbol("f");
  truncated.size = 3 * kInsnSize;  // branch target now outside
  CfgBuilder builder(bin);
  EXPECT_FALSE(builder.BuildFunction(truncated).ok());
}

TEST(Loops, SimpleLoopDetected) {
  BinaryWriter writer(Arch::kDtArm, "t");
  FnBuilder b("f");
  b.MovI(1, 0);        // 0x10000
  b.Label("top");
  b.AddI(1, 1, 1);     // 0x10004
  b.CmpI(1, 10);       // 0x10008
  b.Blt("top");        // 0x1000c
  b.Ret();             // 0x10010
  writer.AddFunction(std::move(b).Finish().value());
  Binary bin = writer.Build().value();
  CfgBuilder builder(bin);
  Function fn = builder.BuildFunction(*bin.FindSymbol("f")).value();
  LoopInfo loops = FindLoops(fn);
  ASSERT_EQ(loops.back_edges.size(), 1u);
  EXPECT_EQ(loops.back_edges[0].second, 0x10004u);  // header
  EXPECT_TRUE(loops.IsBackEdge(loops.back_edges[0].first, 0x10004));
  EXPECT_TRUE(loops.InAnyLoop(0x10004));
  EXPECT_FALSE(loops.InAnyLoop(0x10000));
  EXPECT_FALSE(loops.InAnyLoop(0x10010));
}

TEST(Loops, StraightLineHasNone) {
  Binary bin = DiamondBinary();
  CfgBuilder builder(bin);
  Function fn = builder.BuildFunction(*bin.FindSymbol("f")).value();
  LoopInfo loops = FindLoops(fn);
  EXPECT_TRUE(loops.back_edges.empty());
  EXPECT_TRUE(loops.loops.empty());
}

TEST(Loops, NestedBodyMembership) {
  BinaryWriter writer(Arch::kDtArm, "t");
  FnBuilder b("f");
  b.MovI(1, 0);
  b.Label("outer");
  b.MovI(2, 0);
  b.Label("inner");
  b.AddI(2, 2, 1);
  b.CmpI(2, 4);
  b.Blt("inner");
  b.AddI(1, 1, 1);
  b.CmpI(1, 4);
  b.Blt("outer");
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  Binary bin = writer.Build().value();
  CfgBuilder builder(bin);
  Function fn = builder.BuildFunction(*bin.FindSymbol("f")).value();
  LoopInfo loops = FindLoops(fn);
  EXPECT_EQ(loops.back_edges.size(), 2u);
  EXPECT_EQ(loops.loops.size(), 2u);
}

Binary ChainBinary() {
  // main -> a -> b; main -> b; c uncalled.
  BinaryWriter writer(Arch::kDtArm, "t");
  auto leaf = [&](const char* name) {
    FnBuilder b(name);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  };
  leaf("b");
  leaf("c");
  {
    FnBuilder b("a");
    b.Call("b");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("main");
    b.Call("a");
    b.Call("b");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  return writer.Build().value();
}

TEST(CallGraph, EdgesAndOrder) {
  Binary bin = ChainBinary();
  CfgBuilder builder(bin);
  Program program = builder.BuildProgram().value();
  CallGraph graph = CallGraph::Build(program);
  EXPECT_EQ(graph.NodeCount(), 4u);
  EXPECT_EQ(graph.EdgeCount(), 3u);  // main->a, main->b, a->b
  EXPECT_TRUE(graph.Callees("main").count("a"));
  EXPECT_TRUE(graph.Callers("b").count("a"));
  EXPECT_TRUE(graph.Callers("b").count("main"));

  // Bottom-up: every callee before each caller.
  std::vector<std::string> order = graph.BottomUpOrder();
  auto pos = [&](const std::string& n) {
    return std::find(order.begin(), order.end(), n) - order.begin();
  };
  EXPECT_LT(pos("b"), pos("a"));
  EXPECT_LT(pos("a"), pos("main"));
  EXPECT_LT(pos("b"), pos("main"));
}

TEST(CallGraph, RecursionFormsScc) {
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("even");
    b.Call("odd");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("odd");
    b.Call("even");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  Binary bin = writer.Build().value();
  CfgBuilder builder(bin);
  Program program = builder.BuildProgram().value();
  CallGraph graph = CallGraph::Build(program);
  EXPECT_EQ(graph.SccIds().at("even"), graph.SccIds().at("odd"));
  EXPECT_EQ(graph.BottomUpOrder().size(), 2u);  // still terminates
}

TEST(CallGraph, IndirectResolvedTargetsAddEdges) {
  Binary bin = ChainBinary();
  CfgBuilder builder(bin);
  Program program = builder.BuildProgram().value();
  // Manually resolve an indirect edge main -> c (as structsim would).
  Function& main_fn = program.functions.at("main");
  CallSite fake;
  fake.is_indirect = true;
  fake.resolved_targets = {"c"};
  main_fn.callsites.push_back(fake);
  CallGraph graph = CallGraph::Build(program);
  EXPECT_TRUE(graph.Callees("main").count("c"));
  std::vector<std::string> order = graph.BottomUpOrder();
  auto pos = [&](const std::string& n) {
    return std::find(order.begin(), order.end(), n) - order.begin();
  };
  EXPECT_LT(pos("c"), pos("main"));
}

TEST(Program, LookupHelpers) {
  Binary bin = ChainBinary();
  CfgBuilder builder(bin);
  Program program = builder.BuildProgram().value();
  EXPECT_NE(program.FindFunction("a"), nullptr);
  EXPECT_EQ(program.FindFunction("zz"), nullptr);
  const Symbol* a = bin.FindSymbol("a");
  EXPECT_EQ(program.FunctionAt(a->addr)->name, "a");
  EXPECT_GT(program.TotalBlocks(), 0u);
  EXPECT_EQ(program.CallEdgeCount(), 3u);
}

// ---- skeleton vs. lifting every block --------------------------------------

/// Reference CFG recovery that lifts every block: the leader sweep, then
/// LiftBlock over each leader-to-leader run. The skeleton builder must
/// fail on exactly the symbols this fails on, with the same status
/// code, and agree on every block it builds.
Result<std::map<uint32_t, IRBlock>> LiftEveryBlock(const Binary& bin,
                                                   const Symbol& sym) {
  const uint32_t end = sym.addr + sym.size;
  std::set<uint32_t> leaders{sym.addr};
  for (uint32_t pc = sym.addr; pc < end; pc += kInsnSize) {
    auto word = bin.ReadWordAt(pc);
    if (!word.ok()) return CorruptData("off section");
    auto insn = Decode(*word);
    if (!insn.ok()) return CorruptData("undecodable");
    uint32_t next_pc = pc + kInsnSize;
    switch (insn->op) {
      case Op::kB:
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBle:
      case Op::kBgt: {
        uint32_t target = next_pc + static_cast<uint32_t>(insn->imm * 4);
        if (target < sym.addr || target >= end) {
          return CorruptData("escaping branch");
        }
        leaders.insert(target);
        if (next_pc < end) leaders.insert(next_pc);
        break;
      }
      case Op::kBl:
      case Op::kBlr:
      case Op::kRet:
        if (next_pc < end) leaders.insert(next_pc);
        break;
      default:
        break;
    }
  }
  Lifter lifter(bin);
  std::vector<uint32_t> ordered(leaders.begin(), leaders.end());
  std::map<uint32_t, IRBlock> blocks;
  for (size_t i = 0; i < ordered.size(); ++i) {
    uint32_t stop = i + 1 < ordered.size() ? ordered[i + 1] : end;
    auto block = lifter.LiftBlock(ordered[i], stop);
    if (!block.ok()) return block.status();
    blocks.emplace(ordered[i], std::move(*block));
  }
  return blocks;
}

/// Status codes of the failures ExpectSkeletonParity has seen.
std::set<StatusCode>& SeenFailureCodes() {
  static std::set<StatusCode> seen;
  return seen;
}

/// Checks one symbol; returns true when both sides built it.
bool ExpectSkeletonParity(const Binary& bin, const Symbol& sym) {
  SCOPED_TRACE(sym.name + " @" + std::to_string(sym.addr) + "+" +
               std::to_string(sym.size));
  auto reference = LiftEveryBlock(bin, sym);
  auto skeleton = CfgBuilder(bin).BuildFunction(sym);
  EXPECT_EQ(skeleton.ok(), reference.ok());
  if (!skeleton.ok() || !reference.ok()) {
    if (!skeleton.ok() && !reference.ok()) {
      EXPECT_EQ(skeleton.status().code(), reference.status().code());
      SeenFailureCodes().insert(reference.status().code());
    }
    return false;
  }
  EXPECT_EQ(skeleton->blocks.size(), reference->size());
  for (const auto& [addr, ir] : *reference) {
    const BlockInfo* info = skeleton->BlockAt(addr);
    if (!info) {
      ADD_FAILURE() << "skeleton lacks block " << addr;
      continue;
    }
    EXPECT_EQ(info->size, ir.size);
    EXPECT_EQ(info->jumpkind, ir.jumpkind);
    EXPECT_EQ(info->return_addr, ir.return_addr);
    bool next_const = ir.next && ir.next->kind() == ExprKind::kConst;
    EXPECT_EQ(info->next.has_value(), next_const);
    if (info->next && next_const) {
      EXPECT_EQ(*info->next, ir.next->const_value());
    }
    std::optional<uint32_t> taken;
    for (const Stmt& st : ir.stmts) {
      if (st.kind == StmtKind::kExit) taken = st.target;
    }
    EXPECT_EQ(info->taken, taken);
  }
  // Lifting on demand reproduces the reference IR statement for statement.
  auto ir = Lifter(bin).LiftFunction(*skeleton);
  EXPECT_TRUE(ir.ok());
  if (ir.ok()) {
    EXPECT_EQ(ir->blocks.size(), reference->size());
    for (const auto& [addr, block] : ir->blocks) {
      auto it = reference->find(addr);
      if (it == reference->end()) continue;
      EXPECT_EQ(block.ToString(), it->second.ToString());
    }
  }
  return true;
}

/// Every function symbol of `bin`, then the same symbols with their
/// start knocked off alignment and their size stretched or cut. Adds
/// the functions BuildProgram built and failed to the tallies.
void ExpectProgramParity(const Binary& bin, Rng& rng, size_t* built,
                         size_t* failed) {
  std::vector<std::pair<std::string, StatusCode>> expected_failures;
  for (const Symbol& sym : bin.symbols) {
    if (!sym.is_function || sym.size == 0) continue;
    if (!ExpectSkeletonParity(bin, sym)) {
      auto reference = LiftEveryBlock(bin, sym);
      if (!reference.ok()) {
        expected_failures.emplace_back(sym.name, reference.status().code());
      }
    }
    Symbol skewed = sym;
    switch (rng.Below(3)) {
      case 0:
        skewed.addr += 1 + static_cast<uint32_t>(rng.Below(3));
        break;
      case 1:
        skewed.size += kInsnSize * static_cast<uint32_t>(1 + rng.Below(64));
        break;
      default:
        skewed.size = static_cast<uint32_t>(rng.Below(skewed.size + 1));
        break;
    }
    if (skewed.size > 0) ExpectSkeletonParity(bin, skewed);
  }
  // BuildProgram records exactly the failing symbols, with their codes.
  auto program = CfgBuilder(bin).BuildProgram();
  EXPECT_TRUE(program.ok());
  if (program.ok()) {
    std::vector<std::pair<std::string, StatusCode>> failures;
    for (const auto& [name, status] : program->lift_failures) {
      failures.emplace_back(name, status.code());
    }
    EXPECT_EQ(failures, expected_failures);
    *built += program->functions.size();
    *failed += program->lift_failures.size();
  }
}

TEST(Skeleton, UnalignedStartFailsLikeLifting) {
  // Every byte of the code is one opcode byte, so the sweep decodes at
  // any offset and only the block lift's alignment check can reject.
  BinaryWriter writer(Arch::kDtArm, "t");
  FnBuilder b("f");
  for (int i = 0; i < 8; ++i) b.Nop();
  writer.AddFunction(std::move(b).Finish().value());
  Binary bin = writer.Build().value();
  for (Section& section : bin.sections) {
    if (section.kind != SectionKind::kText) continue;
    for (uint8_t& byte : section.bytes) {
      byte = static_cast<uint8_t>(Op::kMovR);
    }
  }
  Symbol skewed = *bin.FindSymbol("f");
  skewed.addr += 2;
  skewed.size = 4 * kInsnSize;
  EXPECT_FALSE(ExpectSkeletonParity(bin, skewed));
  auto skeleton = CfgBuilder(bin).BuildFunction(skewed);
  ASSERT_FALSE(skeleton.ok());
  EXPECT_EQ(skeleton.status().code(), StatusCode::kInvalidArgument);
}

TEST(Skeleton, FailsWhereLiftingEveryBlockFails) {
  Rng rng(0x5CE1E7);
  // Crasher corpus: whatever loads is held to parity too.
  namespace fs = std::filesystem;
  fs::path dir = fs::path(__FILE__).parent_path() / "testing" / "crashers";
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".dtbin") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    auto bin = BinaryLoader::Load(bytes, entry.path().filename().string());
    size_t built = 0, failed = 0;
    if (bin.ok()) ExpectProgramParity(*bin, rng, &built, &failed);
  }

  // Mutated binaries: random words of .text flipped, which yields
  // undecodable words, escaping branches and reshaped blocks.
  size_t built = 0;
  size_t failed = 0;
  const int kMutants = 60;
  for (int m = 0; m < kMutants; ++m) {
    ProgramSpec spec;
    spec.name = "mut";
    spec.arch = m % 2 ? Arch::kDtMips : Arch::kDtArm;
    spec.seed = 900 + static_cast<uint64_t>(m);
    spec.filler_functions = 6;
    PlantSpec plant;
    plant.id = "v";
    plant.pattern = static_cast<VulnPattern>(m % 5);
    plant.source = "recv";
    plant.sink = plant.pattern == VulnPattern::kLoopCopy ? "loop" : "memcpy";
    spec.plants = {plant};
    auto out = SynthesizeBinary(spec);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    Binary bin = std::move(out->binary);
    for (Section& section : bin.sections) {
      if (section.kind != SectionKind::kText || section.bytes.empty()) continue;
      int flips = 1 + static_cast<int>(rng.Below(6));
      for (int f = 0; f < flips; ++f) {
        section.bytes[rng.Below(section.bytes.size())] ^=
            static_cast<uint8_t>(1u << rng.Below(8));
      }
    }
    ExpectProgramParity(bin, rng, &built, &failed);
  }
  // The mutants exercise both outcomes.
  EXPECT_GT(built, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_TRUE(SeenFailureCodes().count(StatusCode::kCorruptData));
}

}  // namespace
}  // namespace dtaint

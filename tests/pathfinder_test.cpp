#include <gtest/gtest.h>

#include "src/binary/loader.h"
#include "src/binary/writer.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/pathfinder.h"
#include "src/isa/asm_builder.h"
#include "src/isa/insn.h"
#include "src/obs/metrics.h"
#include "src/synth/paper_images.h"

namespace dtaint {
namespace {

struct Pipeline {
  Binary binary;
  Program program;
  ProgramAnalysis analysis;
};

uint64_t LoopFunctions() {
  return obs::MetricsRegistry::Global()
      .counter("pathfind.loop_functions")
      .Value();
}

Pipeline RunPipeline(BinaryWriter& writer) {
  Pipeline out{writer.Build().value(), {}, {}};
  CfgBuilder builder(out.binary);
  out.program = builder.BuildProgram().value();
  SymEngine engine(out.binary);
  CallGraph graph = CallGraph::Build(out.program);
  out.analysis = RunBottomUp(out.program, graph, engine);
  return out;
}

TEST(DefCoversUse, ExactAndFieldMatch) {
  SymRef buf = SymAdd(SymExpr::Arg(0), 0x10);
  SymRef loc = SymExpr::Deref(SymAdd(buf, 4));
  EXPECT_TRUE(DefCoversUse(loc, loc));
  // Same base+offset, different size view.
  EXPECT_TRUE(DefCoversUse(loc, SymExpr::Deref(SymAdd(buf, 4), 1)));
  // Different offsets do not cover.
  EXPECT_FALSE(DefCoversUse(loc, SymExpr::Deref(SymAdd(buf, 8))));
  // Different bases do not cover.
  EXPECT_FALSE(
      DefCoversUse(loc, SymExpr::Deref(SymAdd(SymExpr::Arg(1), 4))));
  // Non-deref expressions never cover.
  EXPECT_FALSE(DefCoversUse(buf, loc));
}

TEST(PathFinder, DirectSourceToSink) {
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("getenv");
  writer.AddImport("system");
  FnBuilder b("h");
  b.MovI(0, 0x100);
  b.Call("getenv");
  b.Call("system");  // r0 still holds getenv's return
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  Pipeline p = RunPipeline(writer);
  PathFinder finder(p.program, p.analysis);
  EXPECT_EQ(finder.SinkCount(), 1u);
  const uint64_t loops_before = LoopFunctions();
  auto paths = finder.FindAll();
  // No store through a per-iteration address: no loop analysis.
  EXPECT_EQ(LoopFunctions(), loops_before);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].sink_name, "system");
  EXPECT_EQ(paths[0].source_name, "getenv");
  EXPECT_EQ(paths[0].vuln_class, VulnClass::kCommandInjection);
  EXPECT_EQ(paths[0].sink_function, "h");
}

TEST(PathFinder, CrossFunctionViaCallers) {
  // Sink consumes its formal argument; the caller supplies tainted
  // data — the trace must lift into the caller.
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("getenv");
  writer.AddImport("system");
  {
    FnBuilder b("do_cmd");  // do_cmd(cmd) -> system(cmd)
    b.Call("system");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("top");
    b.MovI(0, 0x100);
    b.Call("getenv");
    b.Call("do_cmd");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  Pipeline p = RunPipeline(writer);
  PathFinder finder(p.program, p.analysis);
  auto paths = finder.FindAll();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].sink_function, "do_cmd");
  // The trace crossed into `top`.
  bool crossed = false;
  for (const PathHop& hop : paths[0].hops) {
    if (hop.function == "top") crossed = true;
  }
  EXPECT_TRUE(crossed);
}

TEST(PathFinder, UntaintedSinkYieldsNoPath) {
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("system");
  uint32_t cmd = kRodataBase + writer.AddRodata({'l', 's', 0});
  FnBuilder b("h");
  b.MovConst(0, cmd);
  b.Call("system");
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  Pipeline p = RunPipeline(writer);
  PathFinder finder(p.program, p.analysis);
  EXPECT_EQ(finder.SinkCount(), 1u);
  EXPECT_TRUE(finder.FindAll().empty());
}

TEST(PathFinder, LoopCopySinkDetected) {
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("recv");
  FnBuilder b("h");
  b.SubI(13, 13, 0x300);
  b.AddI(4, 13, 0x10);   // src
  b.MovI(0, 3);
  b.MovR(1, 4);
  b.MovI(2, 0x200);
  b.Call("recv");
  b.LdrW(6, 4, 4);       // attacker-controlled offset
  b.AddI(5, 13, 0x210);  // dst
  b.Label("loop");
  b.LdrBR(7, 4, 6);
  b.StrBR(7, 5, 6);      // dst[off] = src[off]
  b.AddI(6, 6, 1);
  b.CmpI(7, 0);
  b.Bne("loop");
  b.AddI(13, 13, 0x300);
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  Pipeline p = RunPipeline(writer);
  PathFinder finder(p.program, p.analysis);
  const uint64_t loops_before = LoopFunctions();
  auto paths = finder.FindAll();
  EXPECT_EQ(LoopFunctions() - loops_before, 1u);
  bool loop_path = false;
  for (const TaintPath& path : paths) {
    if (path.sink_name == "loop") {
      loop_path = true;
      EXPECT_EQ(path.source_name, "recv");
      EXPECT_TRUE(path.sink_store_addr != nullptr);
    }
  }
  EXPECT_TRUE(loop_path);
}

TEST(PathFinder, AnImportNamedLoopIsNotASink) {
  // "loop" names the loop-copy pattern the path finder seeds from
  // stores in loops, not a library function: a call to an import that
  // happens to be called `loop` is an ordinary unmodelled call, even
  // with getenv's tainted return in its first argument.
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("getenv");
  writer.AddImport("loop");
  FnBuilder b("h");
  b.MovI(0, 0x100);
  b.Call("getenv");
  b.Call("loop");  // r0 still holds getenv's return
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  Pipeline p = RunPipeline(writer);
  PathFinder finder(p.program, p.analysis);
  EXPECT_EQ(finder.SinkCount(), 0u);
  EXPECT_TRUE(finder.FindAll().empty());
}

TEST(PathFinder, DepthBudgetStopsRunawayTraces) {
  // A chain of N wrappers; with max_depth < N the source is out of
  // reach and no path is reported (bounded work, no crash).
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("getenv");
  writer.AddImport("system");
  {
    FnBuilder b("sinkfn");
    b.Call("system");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  std::string prev = "sinkfn";
  for (int i = 0; i < 6; ++i) {
    FnBuilder b("wrap" + std::to_string(i));
    b.Call(prev);
    b.Ret();
    prev = "wrap" + std::to_string(i);
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("top");
    b.MovI(0, 0x100);
    b.Call("getenv");
    b.Call(prev);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  Pipeline p = RunPipeline(writer);
  PathFinderConfig tight;
  tight.max_depth = 3;
  PathFinder finder(p.program, p.analysis, tight);
  EXPECT_TRUE(finder.FindAll().empty());
  PathFinderConfig enough;
  enough.max_depth = 24;
  PathFinder finder2(p.program, p.analysis, enough);
  EXPECT_EQ(finder2.FindAll().size(), 1u);
}

TEST(PathFinder, DuplicatePathsDeduplicated) {
  // Two distinct flows from the same source callsite to the same sink
  // callsite collapse into one reported path.
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("getenv");
  writer.AddImport("system");
  FnBuilder b("h");
  b.MovI(0, 0x100);
  b.Call("getenv");
  b.MovR(4, 0);
  b.StrW(4, 13, -8);   // also park it in memory
  b.LdrW(5, 13, -8);
  b.MovR(0, 5);
  b.Call("system");
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  Pipeline p = RunPipeline(writer);
  PathFinder finder(p.program, p.analysis);
  EXPECT_EQ(finder.FindAll().size(), 1u);
}

TEST(PathFinder, DefSiteBlockLookup) {
  // Loop-copy sinks find a def site's block with an upper_bound lookup.
  // Three blocks: [cmp; bne] [mov] [skip: mov; ret].
  BinaryWriter writer(Arch::kDtArm, "t");
  FnBuilder b("h");
  b.CmpI(0, 0);
  b.Bne("skip");
  b.MovI(1, 2);
  b.Label("skip");
  b.MovI(2, 3);
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  Binary bin = writer.Build().value();
  Program program = CfgBuilder(bin).BuildProgram().value();
  const Function& fn = program.functions.at("h");
  ASSERT_EQ(fn.blocks.size(), 3u);
  for (const auto& [addr, block] : fn.blocks) {
    EXPECT_EQ(fn.BlockContaining(addr), &block);  // first instruction
    EXPECT_EQ(fn.BlockContaining(block.EndAddr() - kInsnSize), &block);
  }
  const BlockInfo& last = fn.blocks.rbegin()->second;
  EXPECT_EQ(fn.BlockContaining(last.addr + kInsnSize), &last);
  // In no block: before the function, and past its last block.
  EXPECT_EQ(fn.BlockContaining(fn.addr - kInsnSize), nullptr);
  EXPECT_EQ(fn.BlockContaining(last.EndAddr()), nullptr);
  EXPECT_EQ(fn.BlockContaining(0), nullptr);
  // Every address agrees with a scan of all blocks.
  for (uint32_t a = fn.addr - 8; a < last.EndAddr() + 8; ++a) {
    const BlockInfo* scanned = nullptr;
    for (const auto& [addr, block] : fn.blocks) {
      if (a >= addr && a < block.EndAddr()) scanned = &block;
    }
    EXPECT_EQ(fn.BlockContaining(a), scanned) << std::hex << a;
  }
}

TEST(PathFinder, WalkWithoutDerefAsksTheAliasOracleNothing) {
  // A sink whose argument is a constant starts one walk, and its only
  // expression holds no deref: it matches no def pair, so it must not
  // ask the oracle for twins. A walk through a stack slot must.
  obs::Counter& queries =
      obs::MetricsRegistry::Global().counter("alias.ondemand.queries");
  {
    BinaryWriter writer(Arch::kDtArm, "t");
    writer.AddImport("system");
    uint32_t cmd = kRodataBase + writer.AddRodata({'l', 's', 0});
    FnBuilder b("h");
    b.MovConst(0, cmd);
    b.Call("system");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
    Pipeline p = RunPipeline(writer);
    ASSERT_NE(p.analysis.alias_oracle, nullptr);
    const uint64_t before = queries.Value();
    PathFinder finder(p.program, p.analysis);
    EXPECT_TRUE(finder.FindAll().empty());
    EXPECT_EQ(finder.stats().paths_explored, 1u);
    EXPECT_EQ(queries.Value(), before);
  }
  {
    BinaryWriter writer(Arch::kDtArm, "t");
    writer.AddImport("getenv");
    writer.AddImport("system");
    FnBuilder b("h");
    b.MovI(0, 0x100);
    b.Call("getenv");
    b.StrW(0, 13, -8);
    b.LdrW(0, 13, -8);
    b.Call("system");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
    Pipeline p = RunPipeline(writer);
    const uint64_t before = queries.Value();
    PathFinder finder(p.program, p.analysis);
    EXPECT_EQ(finder.FindAll().size(), 1u);
    EXPECT_GT(queries.Value(), before);
  }
}

TEST(PathFinder, FindAllCountsEverySinkCallsite) {
  // The detector reports FindAll's own count of library-sink callsites
  // as `sink_count`; it must equal the separate SinkCount() walk.
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    SCOPED_TRACE(spec.firmware.vendor + " " + spec.firmware.product);
    auto fw = BuildPaperImage(spec);
    ASSERT_TRUE(fw.ok()) << fw.status().ToString();
    const FirmwareFile* file = fw->image.FindFile(spec.firmware.binary_path);
    ASSERT_NE(file, nullptr);
    auto binary = BinaryLoader::Load(file->bytes);
    ASSERT_TRUE(binary.ok()) << binary.status().ToString();
    Program program = CfgBuilder(*binary).BuildProgram().value();
    SymEngine engine(*binary);
    ProgramAnalysis analysis =
        RunBottomUp(program, CallGraph::Build(program), engine);
    PathFinder finder(program, analysis);
    finder.FindAll();
    EXPECT_GT(finder.stats().sink_callsites, 0u);
    EXPECT_EQ(finder.stats().sink_callsites, finder.SinkCount());
  }
}

}  // namespace
}  // namespace dtaint

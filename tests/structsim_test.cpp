#include <gtest/gtest.h>

#include <set>

#include "src/binary/loader.h"
#include "src/binary/writer.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/interproc.h"
#include "src/isa/asm_builder.h"
#include "src/core/structsim.h"
#include "src/obs/metrics.h"
#include "src/symexec/engine.h"
#include "src/synth/firmware_synth.h"
#include "src/synth/paper_images.h"

namespace dtaint {
namespace {

uint64_t LayoutsExtracted() {
  return obs::MetricsRegistry::Global()
      .counter("structsim.layouts_extracted")
      .Value();
}

StructLayout MakeLayout(
    SymRef root,
    std::map<std::string, std::vector<StructField>> groups) {
  StructLayout layout;
  layout.root = std::move(root);
  layout.groups = std::move(groups);
  return layout;
}

TEST(Layout, ExtractFromSummary) {
  FunctionSummary summary;
  // Accesses: deref(arg0+0xC), deref(arg0+0x10), and a second layer
  // deref(deref(arg0+0xC)+0x4).
  SymRef a0 = SymExpr::Arg(0);
  DefPair dp1;
  dp1.d = SymExpr::Deref(SymAdd(a0, 0xC));
  dp1.u = SymExpr::Const(0);
  summary.def_pairs.push_back(dp1);
  UseRecord use1;
  use1.u = SymExpr::Deref(SymAdd(a0, 0x10));
  summary.undefined_uses.push_back(use1);
  UseRecord use2;
  use2.u = SymExpr::Deref(SymAdd(SymExpr::Deref(SymAdd(a0, 0xC)), 0x4));
  summary.undefined_uses.push_back(use2);

  auto layouts = ExtractLayouts(summary);
  ASSERT_EQ(layouts.size(), 1u);
  const StructLayout& layout = layouts[0];
  EXPECT_EQ(layout.root->kind(), SymKind::kArg);
  // Two base groups: "R" and "deref(R+0xc)".
  ASSERT_EQ(layout.groups.size(), 2u);
  ASSERT_TRUE(layout.groups.count("R"));
  EXPECT_TRUE(layout.groups.count("deref(R+0xc)"));
  EXPECT_EQ(layout.groups.at("R").size(), 2u);  // offsets 0xC, 0x10
  EXPECT_EQ(layout.FieldCount(), 3u);
}

TEST(Layout, RootNormalizationAlignsDifferentArgs) {
  // A layout rooted at arg0 in one function and arg2 in another must
  // produce the same group keys.
  FunctionSummary s1, s2;
  UseRecord u1;
  u1.u = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 8));
  s1.undefined_uses.push_back(u1);
  UseRecord u2;
  u2.u = SymExpr::Deref(SymAdd(SymExpr::Arg(2), 8));
  s2.undefined_uses.push_back(u2);
  auto l1 = ExtractLayouts(s1);
  auto l2 = ExtractLayouts(s2);
  ASSERT_EQ(l1.size(), 1u);
  ASSERT_EQ(l2.size(), 1u);
  EXPECT_EQ(l1[0].groups.begin()->first, l2[0].groups.begin()->first);
  EXPECT_GT(LayoutSimilarity(l1[0], l2[0]), 0.0);
}

TEST(Similarity, SelfSimilarityIsGroupCount) {
  StructLayout a = MakeLayout(
      SymExpr::Arg(0),
      {{"R", {{0xC, ValueType::kPtr}, {0x10, ValueType::kInt}}},
       {"deref(R+0xc)", {{0, ValueType::kChar}}}});
  EXPECT_DOUBLE_EQ(LayoutSimilarity(a, a), 2.0);
}

TEST(Similarity, Symmetric) {
  StructLayout a = MakeLayout(
      SymExpr::Arg(0),
      {{"R", {{0x8, ValueType::kPtr}, {0xC, ValueType::kPtr}}}});
  StructLayout b = MakeLayout(
      SymExpr::Arg(0),
      {{"R", {{0xC, ValueType::kPtr}, {0x10, ValueType::kInt}}}});
  EXPECT_DOUBLE_EQ(LayoutSimilarity(a, b), LayoutSimilarity(b, a));
  // Jaccard over offsets {8,C} vs {C,10}: 1/3.
  EXPECT_NEAR(LayoutSimilarity(a, b), 1.0 / 3.0, 1e-9);
}

TEST(Similarity, BaseSetInclusionGate) {
  StructLayout a = MakeLayout(SymExpr::Arg(0),
                              {{"R", {{0, ValueType::kPtr}}},
                               {"deref(R)", {{4, ValueType::kInt}}}});
  StructLayout b = MakeLayout(SymExpr::Arg(0),
                              {{"R", {{0, ValueType::kPtr}}}});
  // base(b) subset of base(a): compatible.
  EXPECT_TRUE(LayoutsCompatible(a, b));
  StructLayout c = MakeLayout(SymExpr::Arg(0),
                              {{"R", {{0, ValueType::kPtr}}},
                               {"deref(R+0x8)", {{0, ValueType::kInt}}}});
  // Neither base set contains the other: incompatible.
  EXPECT_FALSE(LayoutsCompatible(a, c));
  EXPECT_DOUBLE_EQ(LayoutSimilarity(a, c), 0.0);
}

TEST(Similarity, TypeConflictGate) {
  StructLayout a = MakeLayout(SymExpr::Arg(0),
                              {{"R", {{8, ValueType::kPtr}}}});
  StructLayout b = MakeLayout(SymExpr::Arg(0),
                              {{"R", {{8, ValueType::kInt}}}});
  EXPECT_FALSE(LayoutsCompatible(a, b));
  // Unknown unifies with anything.
  StructLayout c = MakeLayout(SymExpr::Arg(0),
                              {{"R", {{8, ValueType::kUnknown}}}});
  EXPECT_TRUE(LayoutsCompatible(a, c));
  // ptr unifies with char*.
  StructLayout d = MakeLayout(SymExpr::Arg(0),
                              {{"R", {{8, ValueType::kCharPtr}}}});
  EXPECT_TRUE(LayoutsCompatible(a, d));
}

TEST(IndirectCalls, DispatchPlantResolvesToImplNotDecoy) {
  ProgramSpec spec;
  spec.name = "t";
  spec.arch = Arch::kDtArm;
  spec.seed = 11;
  spec.filler_functions = 2;
  PlantSpec p;
  p.id = "d1";
  p.pattern = VulnPattern::kDispatch;
  p.source = "recv";
  p.sink = "memcpy";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());

  CfgBuilder builder(out->binary);
  Program program = builder.BuildProgram().value();

  // Address-taken set contains both table entries.
  auto taken = AddressTakenFunctions(program);
  EXPECT_EQ(taken.size(), 2u);

  SymEngine engine(out->binary);
  std::map<std::string, FunctionSummary> summaries;
  for (const auto& [name, fn] : program.functions) {
    summaries.emplace(name, engine.Analyze(fn));
  }
  const uint64_t extracted_before = LayoutsExtracted();
  auto resolutions = ResolveIndirectCalls(program, summaries);
  // Layouts of the dispatcher (its callsite reaches the similarity
  // case) and of the two address-taken candidates; no other function's.
  EXPECT_EQ(LayoutsExtracted() - extracted_before, 3u);
  ASSERT_EQ(resolutions.size(), 1u);
  EXPECT_EQ(resolutions[0].caller, "d1_dispatch");
  ASSERT_EQ(resolutions[0].targets.size(), 1u);
  EXPECT_EQ(resolutions[0].targets[0], "d1_impl");
  EXPECT_GT(resolutions[0].similarity, 0.0);
  // The callsite itself was annotated.
  const Function& dispatch = program.functions.at("d1_dispatch");
  bool annotated = false;
  for (const CallSite& cs : dispatch.callsites) {
    if (cs.is_indirect) {
      annotated = true;
      EXPECT_EQ(cs.resolved_targets,
                std::vector<std::string>{"d1_impl"});
    }
  }
  EXPECT_TRUE(annotated);
}

TEST(IndirectCalls, ConstantTargetResolvesDirectly) {
  // A BLR whose target was loaded from a fixed .data slot concretizes
  // during symbolic analysis and resolves without similarity.
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("target_fn");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  uint32_t slot = writer.AddData(std::vector<uint8_t>(4, 0));
  writer.AddDataReloc({".data", slot, "target_fn"});
  {
    FnBuilder b("caller");
    b.MovConst(5, kDataBase + slot);
    b.LdrW(6, 5, 0);
    b.CallReg(6);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  Binary bin = writer.Build().value();
  CfgBuilder builder(bin);
  Program program = builder.BuildProgram().value();
  SymEngine engine(bin);
  std::map<std::string, FunctionSummary> summaries;
  for (const auto& [name, fn] : program.functions) {
    summaries.emplace(name, engine.Analyze(fn));
  }
  auto resolutions = ResolveIndirectCalls(program, summaries);
  ASSERT_EQ(resolutions.size(), 1u);
  EXPECT_EQ(resolutions[0].targets, std::vector<std::string>{"target_fn"});
  EXPECT_EQ(resolutions[0].similarity, -1.0);  // exact marker
}

TEST(IndirectCalls, CallersWithoutIndirectCallsitesExtractNoLayouts) {
  // Field stores through an argument give every function a layout, and
  // a .data slot makes `handler` address-taken, but no callsite is
  // indirect: nothing reaches the similarity case, so no layout is
  // extracted, the candidates' included.
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("handler");
    b.MovI(1, 7);
    b.StrW(1, 0, 0x10);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.LdrW(4, 0, 0x8);
    b.StrW(4, 0, 0xC);
    b.Call("handler");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  uint32_t slot = writer.AddData(std::vector<uint8_t>(4, 0));
  writer.AddDataReloc({".data", slot, "handler"});
  Binary bin = writer.Build().value();
  Program program = CfgBuilder(bin).BuildProgram().value();
  ASSERT_EQ(AddressTakenFunctions(program),
            std::vector<std::string>{"handler"});
  SymEngine engine(bin);
  std::map<std::string, FunctionSummary> summaries;
  for (const auto& [name, fn] : program.functions) {
    summaries.emplace(name, engine.Analyze(fn));
  }
  ASSERT_FALSE(ExtractLayouts(summaries.at("caller")).empty());
  const uint64_t before = LayoutsExtracted();
  EXPECT_TRUE(ResolveIndirectCalls(program, summaries).empty());
  EXPECT_EQ(LayoutsExtracted(), before);
}

TEST(IndirectCalls, HikvisionResolutionsKeepTargetsAndSimilarity) {
  // The Hikvision paper image, focus-filtered and linked the way the
  // detector scans it: its two indirect calls resolve by layout
  // similarity, the same targets with the same score as when every
  // function's layouts were extracted up front.
  PaperImageSpec spec = PaperImageSpecs().back();
  ASSERT_EQ(spec.firmware.vendor, "Hikvision");
  auto fw = BuildPaperImage(spec);
  ASSERT_TRUE(fw.ok());
  auto binary =
      BinaryLoader::Load(fw->image.FindFile(spec.firmware.binary_path)->bytes);
  ASSERT_TRUE(binary.ok());
  Program program = CfgBuilder(*binary).BuildProgram().value();
  std::set<std::string> keep;
  std::vector<std::string> work(spec.focus.begin(), spec.focus.end());
  for (const std::string& name : AddressTakenFunctions(program)) {
    work.push_back(name);
  }
  while (!work.empty()) {
    std::string name = std::move(work.back());
    work.pop_back();
    if (!program.functions.count(name) || !keep.insert(name).second) continue;
    for (const CallSite& cs : program.functions.at(name).callsites) {
      if (!cs.is_indirect && !cs.target_is_import && !cs.target_name.empty()) {
        work.push_back(cs.target_name);
      }
    }
  }
  std::erase_if(program.functions,
                [&](const auto& entry) { return !keep.count(entry.first); });
  SymEngine engine(*binary);
  ProgramAnalysis analysis =
      RunBottomUp(program, CallGraph::Build(program), engine);
  const uint64_t extracted_before = LayoutsExtracted();
  auto resolutions = ResolveIndirectCalls(program, analysis.summaries,
                                          analysis.alias_oracle.get());
  const std::vector<std::string> impls{"hik_safe_memcpy_impl",
                                       "hik_zero_url2_impl"};
  ASSERT_EQ(resolutions.size(), 2u);
  EXPECT_EQ(resolutions[0].caller, "hik_safe_memcpy_dispatch");
  EXPECT_EQ(resolutions[0].callsite, 0x10360u);
  EXPECT_EQ(resolutions[1].caller, "hik_zero_url2_dispatch");
  EXPECT_EQ(resolutions[1].callsite, 0x101ecu);
  for (const IndirectResolution& r : resolutions) {
    EXPECT_EQ(r.targets, impls) << r.caller;
    EXPECT_DOUBLE_EQ(r.similarity, 1.0) << r.caller;
  }
  // The two dispatchers' layouts and the address-taken candidates'.
  EXPECT_EQ(LayoutsExtracted() - extracted_before,
            2 + AddressTakenFunctions(program).size());
}

}  // namespace
}  // namespace dtaint

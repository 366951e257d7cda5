#include <gtest/gtest.h>

#include "src/binary/writer.h"
#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/alias_ondemand.h"
#include "src/core/interproc.h"
#include "src/isa/asm_builder.h"
#include "src/synth/firmware_synth.h"

namespace dtaint {
namespace {

ProgramAnalysis RunAnalysis(const Binary& bin, InterprocConfig config = {}) {
  CfgBuilder builder(bin);
  Program program = builder.BuildProgram().value();
  SymEngine engine(bin);
  CallGraph graph = CallGraph::Build(program);
  return RunBottomUp(program, graph, engine, config);
}

/// The paper's Fig. 5/6/7 worked example: woo taints the buffer whose
/// pointer it parks in ctx+0x4C; foo copies through the alias into a
/// stack buffer via memcpy.
Binary FooWooBinary() {
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("recv");
  writer.AddImport("memcpy");
  {
    FnBuilder b("woo");        // woo(ctx=r0, req=r1)
    b.LdrW(5, 1, 0x24);        // r5 = deref(arg1+0x24)
    b.StrW(5, 0, 0x4C);        // *(ctx+0x4C) = r5
    b.MovI(2, 0x200);
    b.MovR(1, 5);
    b.MovI(0, 3);
    b.Call("recv");            // taints *r5
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("foo");        // foo(ctx=r0, req=r1)
    b.SubI(13, 13, 0x118);
    b.MovR(7, 0);              // save ctx
    b.Call("woo");
    b.LdrW(1, 7, 0x4C);        // src = *(ctx+0x4C) via the alias name
    b.AddI(0, 13, 0x18);       // dst = SP-0x100 (frame SP0-0x118+0x18)
    b.MovI(2, 0x80);
    b.Call("memcpy");
    b.AddI(13, 13, 0x118);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  return writer.Build().value();
}

TEST(BottomUp, FooWooWorkedExample) {
  Binary bin = FooWooBinary();
  ProgramAnalysis analysis = RunAnalysis(bin);
  ASSERT_TRUE(analysis.summaries.count("foo"));
  const FunctionSummary& foo = analysis.summaries.at("foo");

  // woo's tainted definition arrived in foo, expressed through foo's
  // formals: deref(deref(arg1+0x24)) = taint. Algorithm 1's alias twin
  // deref(deref(arg0+0x4c)) = taint (paper Fig. 7) is the oracle's, not
  // the summary's.
  auto tainted_def = [](const std::vector<DefPair>& pairs,
                        const std::string& d) {
    for (const DefPair& dp : pairs) {
      if (dp.u && dp.u->IsTainted() && dp.d->ToString() == d) return true;
    }
    return false;
  };
  EXPECT_TRUE(tainted_def(foo.def_pairs, "deref(deref(arg1+0x24))"));
  EXPECT_FALSE(tainted_def(foo.def_pairs, "deref(deref(arg0+0x4c))"));
  ASSERT_NE(analysis.alias_oracle, nullptr);
  EXPECT_TRUE(tainted_def(analysis.alias_oracle->TwinsFor(foo),
                          "deref(deref(arg0+0x4c))"));

  // The memcpy call sees the paper's Fig. 6 source argument.
  const CallEvent* memcpy_call = nullptr;
  for (const CallEvent& call : foo.calls) {
    if (call.callee == "memcpy") memcpy_call = &call;
  }
  ASSERT_NE(memcpy_call, nullptr);
  EXPECT_EQ(memcpy_call->args[1]->ToString(), "deref(arg0+0x4c)");
  EXPECT_EQ(memcpy_call->args[0]->ToString(), "SP-0x100");
}

TEST(BottomUp, AliasOffCanBeDisabled) {
  Binary bin = FooWooBinary();
  InterprocConfig config;
  config.apply_alias = false;
  ProgramAnalysis analysis = RunAnalysis(bin, config);
  const FunctionSummary& foo = analysis.summaries.at("foo");
  for (const DefPair& dp : foo.def_pairs) {
    if (dp.u && dp.u->IsTainted()) {
      EXPECT_NE(dp.d->ToString(), "deref(deref(arg0+0x4c))");
    }
  }
  EXPECT_EQ(analysis.alias_oracle, nullptr);
}

TEST(BottomUp, EachFunctionProcessedOnce) {
  Binary bin = FooWooBinary();
  ProgramAnalysis analysis = RunAnalysis(bin);
  EXPECT_EQ(analysis.stats.functions_processed, 2u);
  EXPECT_GT(analysis.stats.defs_propagated, 0u);
}

TEST(BottomUp, RetValueReplaced) {
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("get_arg");   // returns its first argument
    b.Ret();                  // r0 already holds arg0
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.MovR(0, 4);             // pass init_r4
    b.Call("get_arg");
    b.StrW(0, 13, 0);         // park the "returned" value
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value());
  const FunctionSummary& caller = analysis.summaries.at("caller");
  bool replaced = false;
  for (const DefPair& dp : caller.def_pairs) {
    if (dp.d->ToString() == "deref(SP)" &&
        dp.u->ToString() == "init_r4") {
      replaced = true;
    }
  }
  EXPECT_TRUE(replaced);
  EXPECT_GT(analysis.stats.rets_replaced, 0u);
}

TEST(BottomUp, ListingOneHeapIdentities) {
  // Paper Listing 1: x = B(); y = B(); with B returning malloc —
  // the two callsites must yield distinct heap objects.
  BinaryWriter writer(Arch::kDtArm, "t");
  writer.AddImport("malloc");
  {
    FnBuilder b("B");
    b.MovI(0, 4);
    b.Call("malloc");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("A");
    b.SubI(13, 13, 0x10);
    b.Call("B");
    b.MovR(4, 0);
    b.Call("B");
    b.MovR(5, 0);
    b.StrW(4, 13, 0);
    b.StrW(5, 13, 4);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value());
  const FunctionSummary& a = analysis.summaries.at("A");
  SymRef x = nullptr, y = nullptr;
  for (const DefPair& dp : a.def_pairs) {
    if (dp.d->ToString() == "deref(SP-0x10)") x = dp.u;
    if (dp.d->ToString() == "deref(SP-0xc)") y = dp.u;
  }
  ASSERT_TRUE(x);
  ASSERT_TRUE(y);
  EXPECT_EQ(x->kind(), SymKind::kHeap);
  EXPECT_EQ(y->kind(), SymKind::kHeap);
  EXPECT_NE(x->heap_id(), y->heap_id());
}

TEST(BottomUp, UndefinedUsesForwardToCallers) {
  // Callee reads deref(arg0+8) without defining it; the caller passes
  // a stack struct; the lifted use must appear in the caller's list.
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("reader");
    b.LdrW(5, 0, 8);
    b.MovR(0, 5);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.SubI(13, 13, 0x20);
    b.MovR(0, 13);
    b.Call("reader");
    b.AddI(13, 13, 0x20);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value());
  const FunctionSummary& caller = analysis.summaries.at("caller");
  bool forwarded = false;
  for (const UseRecord& use : caller.undefined_uses) {
    if (use.u->ToString() == "deref(SP-0x18)") forwarded = true;
  }
  EXPECT_TRUE(forwarded);
  EXPECT_GT(analysis.stats.uses_forwarded, 0u);
}

TEST(BottomUp, MutualRecursionTerminates) {
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("ping");
    b.CmpI(0, 0);
    b.Beq("done");
    b.SubI(0, 0, 1);
    b.Call("pong");
    b.Label("done");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("pong");
    b.Call("ping");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value());
  EXPECT_EQ(analysis.stats.functions_processed, 2u);
}

TEST(BottomUp, ImportCapBoundsWork) {
  // max_imported_per_callsite truncates pathological fan-in.
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("many_defs");
    for (int i = 0; i < 20; ++i) b.StrW(1, 0, i * 4);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.Call("many_defs");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  InterprocConfig config;
  config.max_imported_per_callsite = 5;
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value(), config);
  EXPECT_EQ(analysis.stats.defs_propagated, 5u);
}

/// Link then Unlink must give back exactly what Summarize produced, and
/// linking that again must reproduce the first link. Returns how many
/// def pairs the link rewrote (and the undo log restored).
size_t ExpectUnlinkRoundTrip(const Binary& bin) {
  Program program = CfgBuilder(bin).BuildProgram().value();
  SymEngine engine(bin);
  CallGraph graph = CallGraph::Build(program);
  SummarySet phase1 = Summarize(program, graph, engine);
  ProgramAnalysis linked = Link(program, graph, phase1);
  size_t rewritten = 0;
  for (const auto& [name, undo] : linked.link_undo) {
    rewritten += undo.rewritten_def_pairs.size();
  }
  SummarySet restored = Unlink(linked);
  EXPECT_EQ(restored.summaries.size(), phase1.summaries.size());
  for (const auto& [name, summary] : phase1.summaries) {
    EXPECT_EQ(EncodeSummary(restored.summaries.at(name)),
              EncodeSummary(summary))
        << name;
  }
  EXPECT_EQ(restored.stats.defs_propagated, 0u);
  EXPECT_EQ(restored.stats.rets_replaced, 0u);
  ProgramAnalysis relinked = Link(program, graph, std::move(restored));
  EXPECT_EQ(relinked.stats.defs_propagated, linked.stats.defs_propagated);
  EXPECT_EQ(relinked.stats.rets_replaced, linked.stats.rets_replaced);
  for (const auto& [name, summary] : linked.summaries) {
    EXPECT_EQ(EncodeSummary(relinked.summaries.at(name)),
              EncodeSummary(summary))
        << name;
  }
  return rewritten;
}

TEST(BottomUp, UnlinkRestoresThePhaseOneSummaries) {
  // Linking rewrites ret symbols in place and appends imports; Unlink
  // must undo exactly that, so a re-link after indirect-call resolution
  // starts from the summaries phase 1 produced.
  ProgramSpec spec;
  spec.name = "relink";
  spec.seed = 17;
  spec.filler_functions = 12;
  for (VulnPattern pattern : {VulnPattern::kWrapper, VulnPattern::kDispatch,
                              VulnPattern::kAliasChain}) {
    PlantSpec p;
    p.id = "p" + std::to_string(static_cast<int>(pattern));
    p.pattern = pattern;
    p.source = "recv";
    p.sink = pattern == VulnPattern::kDispatch ? "memcpy" : "strcpy";
    spec.plants.push_back(p);
  }
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectUnlinkRoundTrip(out->binary);
  ExpectUnlinkRoundTrip(FooWooBinary());

  // A stored return value: the link rewrites ret_{cs} inside a def pair.
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("get_arg");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.MovR(0, 4);
    b.Call("get_arg");
    b.StrW(0, 13, 0);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  EXPECT_GT(ExpectUnlinkRoundTrip(writer.Build().value()), 0u);
}

TEST(BottomUp, LaterEventFindsARetTheSubstituteCarriedIn) {
  // caller: x = get_arg(init_r4) @cs1; y = get_arg(x) @cs2; *SP = y.
  // Linking cs2 rewrites ret_{cs2} to ret_{cs1}; a later event at cs1
  // (another path through the same callsite) must then resolve it, so
  // the rewritten def pair has to be found under ret_{cs1} as well.
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("get_arg");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("caller");
    b.MovR(0, 4);
    b.Call("get_arg");
    b.Call("get_arg");
    b.StrW(0, 13, 0);
    b.MovI(0, 0);             // return a constant, not ret_{cs2}
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  Binary bin = writer.Build().value();
  Program program = CfgBuilder(bin).BuildProgram().value();
  SymEngine engine(bin);
  CallGraph graph = CallGraph::Build(program);
  SummarySet phase1 = Summarize(program, graph, engine);
  FunctionSummary& caller = phase1.summaries.at("caller");
  ASSERT_EQ(caller.calls.size(), 2u);
  ASSERT_EQ(caller.calls[0].args[0]->ToString(), "init_r4");
  caller.calls.push_back(caller.calls[0]);
  const std::vector<uint8_t> caller_phase1 = EncodeSummary(caller);

  ProgramAnalysis linked = Link(program, graph, phase1);
  size_t stores = 0;
  for (const DefPair& dp : linked.summaries.at("caller").def_pairs) {
    if (dp.d->ToString() != "deref(SP)") continue;
    ++stores;
    EXPECT_EQ(dp.u->ToString(), "init_r4");
  }
  EXPECT_EQ(stores, 1u);
  EXPECT_EQ(linked.stats.rets_replaced, 2u);

  SummarySet restored = Unlink(std::move(linked));
  EXPECT_EQ(EncodeSummary(restored.summaries.at("caller")), caller_phase1);
}

TEST(BottomUp, EscapingDefsComeFromTheLinkedSummary) {
  // a -> b -> c, c stores through arg0 and each caller passes its own
  // arg0 down. b defines nothing itself, so a sees c's store only if
  // b's escaping definitions are taken after b was linked.
  BinaryWriter writer(Arch::kDtArm, "t");
  {
    FnBuilder b("c");
    b.MovI(1, 0x41);
    b.StrW(1, 0, 8);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  for (auto [name, callee] : {std::pair{"b", "c"}, std::pair{"a", "b"}}) {
    FnBuilder b(name);
    b.Call(callee);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  ProgramAnalysis analysis = RunAnalysis(writer.Build().value());
  const std::vector<DefPair>& c_defs = analysis.summaries.at("c").def_pairs;
  ASSERT_EQ(c_defs.size(), 1u);
  for (const char* name : {"b", "a"}) {
    const std::vector<DefPair>& defs = analysis.summaries.at(name).def_pairs;
    ASSERT_EQ(defs.size(), 1u) << name;
    EXPECT_EQ(defs[0].d->ToString(), "deref(arg0+0x8)") << name;
    EXPECT_EQ(defs[0].u->ToString(), "0x41") << name;
    EXPECT_EQ(defs[0].site, c_defs[0].site) << name;
  }
  EXPECT_EQ(analysis.stats.defs_propagated, 2u);
}

}  // namespace
}  // namespace dtaint

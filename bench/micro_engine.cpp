// Microbenchmarks (google-benchmark) for the analysis hot paths:
// decode, lift, CFG recovery, per-function symbolic analysis, alias
// recognition, layout similarity, and whole-binary detection.
//
// A custom main feeds every google-benchmark result into the shared
// bench harness so micro_engine emits the same BENCH_*.json document
// as the macro benches: each benchmark becomes a run with
// `real_nanos` / `cpu_nanos` per-iteration values (the `_nanos`
// suffix puts them under bench_diff's nanosecond-scale ratio gate).
#include <benchmark/benchmark.h>

#include <array>

#include "src/obs/bench.h"

#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/alias.h"
#include "src/core/alias_ondemand.h"
#include "src/core/dtaint.h"
#include "src/core/structsim.h"
#include "src/isa/decode.h"
#include "src/isa/encode.h"
#include "src/lifter/lifter.h"
#include "src/symexec/symstate.h"
#include "src/synth/firmware_synth.h"

namespace dtaint {
namespace {

// ---- SymExpr hot-operation microbenchmarks ---------------------------------
//
// The interner's fast paths in isolation: Equal is a pointer compare,
// Replace prunes by the per-node bloom/kind masks, and Bin
// normalization allocates nothing on the hit path.

/// A deep expression exercising every recursive operation:
/// deref(...deref(arg0+1)+2...)+depth with alternating Add/Deref spine.
SymRef DeepExpr(int depth) {
  SymRef e = SymExpr::Arg(0);
  for (int i = 1; i <= depth; ++i) {
    e = SymExpr::Deref(SymAdd(e, i));
    e = SymExpr::Bin(BinOp::kXor, e, SymExpr::InitReg(i % 8));
  }
  return e;
}

void BM_SymExprEqualDeep_Interned(benchmark::State& state) {
  // Two separately-built but structurally identical trees: interning
  // canonicalizes them to the same node, so Equal is one compare.
  SymRef a = DeepExpr(32);
  SymRef b = DeepExpr(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymExpr::Equal(a, b));
  }
}
BENCHMARK(BM_SymExprEqualDeep_Interned);

void BM_SymExprReplace_Interned(benchmark::State& state) {
  SymRef hay = DeepExpr(32);
  SymRef from = SymExpr::Arg(0);  // buried at the bottom of the spine
  SymRef to = SymExpr::Sp0();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymExpr::Replace(hay, from, to));
  }
}
BENCHMARK(BM_SymExprReplace_Interned);

void BM_SymExprReplaceMiss_Interned(benchmark::State& state) {
  // Absent needle: the bloom/kind-mask prune answers without a walk.
  SymRef hay = DeepExpr(32);
  SymRef from = SymExpr::Arg(7);
  SymRef to = SymExpr::Sp0();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymExpr::Replace(hay, from, to));
  }
}
BENCHMARK(BM_SymExprReplaceMiss_Interned);

void BM_BinNormalization_Interned(benchmark::State& state) {
  SymRef base = SymExpr::Arg(0);
  for (auto _ : state) {
    // (arg0 + 4) + 4 + ... — the store-address pattern the engine
    // normalizes millions of times; every node here is an intern hit.
    SymRef e = base;
    for (int i = 0; i < 16; ++i) e = SymAdd(e, 4);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_BinNormalization_Interned);

void BM_IsTaintedDeep_Interned(benchmark::State& state) {
  SymRef e = SymAdd(SymExpr::Bin(BinOp::kXor, DeepExpr(32),
                                 SymExpr::Taint(0x10, "recv")),
                    8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e->IsTainted());
  }
}
BENCHMARK(BM_IsTaintedDeep_Interned);

/// Shared medium-sized program for the per-phase benchmarks.
const SynthOutput& TestProgram() {
  static const SynthOutput out = [] {
    ProgramSpec spec;
    spec.name = "bench";
    spec.arch = Arch::kDtArm;
    spec.seed = 42;
    spec.filler_functions = 120;
    PlantSpec p;
    p.id = "b1";
    p.pattern = VulnPattern::kAliasChain;
    p.source = "recv";
    p.sink = "strcpy";
    spec.plants = {p};
    return std::move(*SynthesizeBinary(spec));
  }();
  return out;
}

void BM_DecodeInsn(benchmark::State& state) {
  uint32_t word = *Encode({Op::kLdrW, 1, 5, 0, 0x4C});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Decode(word));
  }
}
BENCHMARK(BM_DecodeInsn);

void BM_EncodeInsn(benchmark::State& state) {
  Insn insn{Op::kAddI, 2, 3, 0, 100};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Encode(insn));
  }
}
BENCHMARK(BM_EncodeInsn);

void BM_LiftBlock(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  Lifter lifter(bin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lifter.LiftBlock(bin.entry));
  }
}
BENCHMARK(BM_LiftBlock);

void BM_BuildProgramCfg(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  CfgBuilder builder(bin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.BuildProgram());
  }
}
BENCHMARK(BM_BuildProgramCfg);

void BM_SymExecFunction(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  CfgBuilder builder(bin);
  Program program = std::move(*builder.BuildProgram());
  SymEngine engine(bin);
  const Function& fn = program.functions.at("b1_handler");
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Analyze(fn));
  }
}
BENCHMARK(BM_SymExecFunction);

// ---- symbolic-state microbenchmarks ----------------------------------------
//
// Fork/mutate churn is the engine's inner loop: every symbolic branch
// copies the path state. Both benchmarks run on a deep populated state
// so the copy-on-write spine's O(1) fork is what gets measured.

/// Populates a state the way a deep path does: register traffic, ~100
/// distinct memory cells (long paths accumulate stores well past the
/// entry state's six), and a dozen constraints.
SymState PopulateState() {
  SymState s = SymState::Entry(Arch::kDtArm);
  for (int r = 0; r < kNumIrRegs; ++r) {
    s.SetReg(r, SymAdd(SymExpr::Arg(r % 4), r));
  }
  for (int i = 0; i < 96; ++i) {
    s.StoreMem(SymAdd(SymExpr::Arg(i % 4), 8 * i),
               SymExpr::Const(static_cast<uint32_t>(i)), 4);
  }
  for (int i = 0; i < 12; ++i) {
    s.PushConstraint({BinOp::kCmpLt, SymExpr::Arg(i % 4),
                      SymExpr::Const(static_cast<uint32_t>(64 + i)), true,
                      static_cast<uint32_t>(0x100 + i)});
  }
  return s;
}

/// One fork plus the child's small divergence — the per-branch cost.
void BM_StateFork(benchmark::State& state) {
  SymState parent = PopulateState();
  // Pre-intern the divergence expressions so the loop times state
  // operations, not expression construction.
  SymRef daddr = SymAdd(SymExpr::Arg(0), 4);
  std::array<SymRef, 16> dvals;
  for (size_t i = 0; i < dvals.size(); ++i) {
    dvals[i] = SymExpr::Const(static_cast<uint32_t>(0x9000 + i));
  }
  uint32_t salt = 0;
  for (auto _ : state) {
    SymState child = parent.Fork();
    const SymRef& v = dvals[++salt % dvals.size()];
    child.StoreMem(daddr, v, 4);
    child.SetReg(2, v);
    benchmark::DoNotOptimize(child.MemEntryCount());
  }
}
BENCHMARK(BM_StateFork);

/// Fan-out/fan-in churn: a parent forks eight children, each diverges
/// with stores and a constraint, and all observables are consumed —
/// the shape of a branchy block's exploration frontier.
void BM_StateMerge(benchmark::State& state) {
  SymState parent = PopulateState();
  for (auto _ : state) {
    size_t sum = 0;
    for (int c = 0; c < 8; ++c) {
      SymState child = parent.Fork();
      child.PushConstraint({BinOp::kCmpEq, SymExpr::Arg(c % 4),
                            SymExpr::Const(static_cast<uint32_t>(c)), true,
                            0x200});
      for (int i = 0; i < 4; ++i) {
        child.StoreMem(SymAdd(SymExpr::Sp0(), -(8 * c + i)),
                       SymExpr::Const(static_cast<uint32_t>(c * 16 + i)), 4);
      }
      sum += child.MemEntryCount() + child.ConstraintCount();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_StateMerge);

void BM_AliasReplace(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  CfgBuilder builder(bin);
  Program program = std::move(*builder.BuildProgram());
  SymEngine engine(bin);
  FunctionSummary summary =
      engine.Analyze(program.functions.at("b1_woo"));
  for (auto _ : state) {
    FunctionSummary copy = summary;
    benchmark::DoNotOptimize(AliasReplace(copy));
  }
}
BENCHMARK(BM_AliasReplace);

// ---- on-demand alias oracle queries ----------------------------------------
//
// Cold = first TwinsFor on a summary (fact collection + twin
// computation, what phase 1 saves by deferring); warm = the memoized
// path every later taint-transfer / indirect-call query takes;
// MayAlias = a full canonicalize-and-compare query through the memo.

void BM_AliasQueryColdTwins(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  CfgBuilder builder(bin);
  Program program = std::move(*builder.BuildProgram());
  SymEngine engine(bin);
  FunctionSummary summary =
      engine.Analyze(program.functions.at("b1_woo"));
  for (auto _ : state) {
    OnDemandAliasOracle oracle;
    benchmark::DoNotOptimize(oracle.TwinsFor(summary));
  }
}
BENCHMARK(BM_AliasQueryColdTwins);

void BM_AliasQueryWarmTwins(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  CfgBuilder builder(bin);
  Program program = std::move(*builder.BuildProgram());
  SymEngine engine(bin);
  FunctionSummary summary =
      engine.Analyze(program.functions.at("b1_woo"));
  OnDemandAliasOracle oracle;
  oracle.TwinsFor(summary);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.TwinsFor(summary));
  }
}
BENCHMARK(BM_AliasQueryWarmTwins);

void BM_AliasQueryMayAlias(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  CfgBuilder builder(bin);
  Program program = std::move(*builder.BuildProgram());
  SymEngine engine(bin);
  FunctionSummary summary =
      engine.Analyze(program.functions.at("b1_woo"));
  OnDemandAliasOracle oracle;
  const std::vector<AliasFact>& facts = oracle.FactsFor(summary);
  if (facts.empty()) {
    state.SkipWithError("no alias facts in b1_woo");
    return;
  }
  // The two SSE spellings of the same cell: through the alias name and
  // through the stored base+offset — a query that must canonicalize.
  SymRef via_alias = SymExpr::Deref(SymAdd(facts[0].alias_loc, 0x10));
  SymRef via_base = SymExpr::Deref(
      SymAdd(SymAdd(facts[0].base, facts[0].offset), 0x10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.MayAlias(summary, via_alias, via_base));
  }
}
BENCHMARK(BM_AliasQueryMayAlias);

void BM_LayoutSimilarity(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  CfgBuilder builder(bin);
  Program program = std::move(*builder.BuildProgram());
  SymEngine engine(bin);
  FunctionSummary a = engine.Analyze(program.functions.at("b1_woo"));
  FunctionSummary b = engine.Analyze(program.functions.at("b1_handler"));
  auto la = ExtractLayouts(a);
  auto lb = ExtractLayouts(b);
  if (la.empty() || lb.empty()) {
    state.SkipWithError("no layouts");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LayoutSimilarity(la[0], lb[0]));
  }
}
BENCHMARK(BM_LayoutSimilarity);

void BM_WholeBinaryDetection(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  DTaint detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Analyze(bin));
  }
}
BENCHMARK(BM_WholeBinaryDetection);

void BM_BottomUpLinking(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  CfgBuilder builder(bin);
  Program program = std::move(*builder.BuildProgram());
  SymEngine engine(bin);
  CallGraph graph = CallGraph::Build(program);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunBottomUp(program, graph, engine));
  }
}
BENCHMARK(BM_BottomUpLinking);

/// ConsoleReporter subclass that tees every per-iteration result into
/// the harness while keeping google-benchmark's normal console table.
class HarnessReporter : public benchmark::ConsoleReporter {
 public:
  explicit HarnessReporter(bench::Harness& harness) : harness_(harness) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type == Run::RT_Aggregate) continue;
      double iters = run.iterations > 0
                         ? static_cast<double>(run.iterations)
                         : 1.0;
      harness_.AddExternalRun(
          run.benchmark_name(), run.real_accumulated_time,
          {{"real_nanos", run.real_accumulated_time * 1e9 / iters},
           {"cpu_nanos", run.cpu_accumulated_time * 1e9 / iters}});
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::Harness& harness_;
};

}  // namespace
}  // namespace dtaint

int main(int argc, char** argv) {
  // The harness consumes --json-out/--trace-out/--reps; the leftovers
  // go to google-benchmark (we skip ReportUnrecognizedArguments so the
  // harness flags don't trip it).
  dtaint::bench::Harness harness("micro_engine", argc, argv);
  benchmark::Initialize(&argc, argv);
  dtaint::HarnessReporter reporter(harness);
  size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return harness.Finish(ran > 0);
}

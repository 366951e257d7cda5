// Microbenchmarks (google-benchmark) for the analysis hot paths:
// decode, lift, CFG recovery, dead register write pruning,
// per-function symbolic analysis, alias
// recognition, layout similarity, whole-binary detection, and the
// relink, indirect-call resolution and path search over a paper image.
//
// A custom main feeds every google-benchmark result into the shared
// bench harness so micro_engine emits the same BENCH_*.json document
// as the macro benches: each benchmark becomes a run with
// `real_nanos` / `cpu_nanos` per-iteration values (the `_nanos`
// suffix puts them under bench_diff's nanosecond-scale ratio gate).
#include <benchmark/benchmark.h>

#include <array>
#include <optional>

#include "src/obs/bench.h"

#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/alias.h"
#include "src/core/alias_ondemand.h"
#include "src/core/dtaint.h"
#include "src/core/pathfinder.h"
#include "src/core/scan_image.h"
#include "src/core/structsim.h"
#include "src/isa/decode.h"
#include "src/isa/encode.h"
#include "src/lifter/lifter.h"
#include "src/symexec/intern.h"
#include "src/symexec/prune.h"
#include "src/symexec/symstate.h"
#include "src/synth/firmware_synth.h"
#include "src/synth/paper_images.h"

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

/// A fleet filler's ALU burst as the engine evaluates it: 192 ops
/// cycling add/shift/mul over two scratch registers, each result
/// widened to a fresh symbol once it grows past the engine's default
/// depth cap of 96, all inside one ScratchScope. Closing the scope
/// resets the scratch interner, as after every function, so each
/// iteration builds its nodes afresh: the miss path of
/// ScratchInterner::Intern.
void BM_ScratchInternChain(benchmark::State& state) {
  constexpr int kOps = 192;
  constexpr int kMaxDepth = 96;
  for (auto _ : state) {
    ScratchScope scope;
    int widened = 0;
    auto widen = [&widened](SymRef value) {
      return value->Depth() <= kMaxDepth
                 ? value
                 : SymExpr::InitReg(kFreshInitBase + widened++);
    };
    SymRef s3 = SymExpr::InitReg(3);
    SymRef s4 = SymExpr::InitReg(4);
    for (int k = 0; k < kOps; ++k) {
      switch (k % 3) {
        case 0:
          s4 = widen(SymExpr::Bin(BinOp::kAdd, s4, s3));
          break;
        case 1:
          s3 = widen(SymExpr::Bin(BinOp::kShl, s4, SymExpr::Const(1 + k % 2)));
          break;
        default:
          s4 = widen(SymExpr::Bin(BinOp::kMul, s3, s4));
          break;
      }
    }
    benchmark::DoNotOptimize(s4);
  }
}
BENCHMARK(BM_ScratchInternChain);

/// The scratch interner's table route alone: every leaf gets a first
/// parent (its deref) up front, so each xor over two leaves finds both
/// children parented and must probe the table. The first sweep inserts
/// the 256 pairs, the second finds them again.
void BM_ScratchInternShared(benchmark::State& state) {
  constexpr int kLeaves = 16;
  for (auto _ : state) {
    ScratchScope scope;
    std::array<SymRef, kLeaves> leaves;
    for (int i = 0; i < kLeaves; ++i) {
      leaves[i] = SymExpr::Arg(i);
      benchmark::DoNotOptimize(SymExpr::Deref(leaves[i]));
    }
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (SymRef lhs : leaves) {
        for (SymRef rhs : leaves) {
          benchmark::DoNotOptimize(SymExpr::Bin(BinOp::kXor, lhs, rhs));
        }
      }
    }
  }
}
BENCHMARK(BM_ScratchInternShared);

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

/// One function's IR lifted and dropped: the lifting each
/// SymEngine::Analyze pays before it explores.
void BM_LiftFunction(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  Program program = std::move(*CfgBuilder(bin).BuildProgram());
  const Function& fn = program.functions.at("b1_handler");
  Lifter lifter(bin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lifter.LiftFunction(fn));
  }
}
BENCHMARK(BM_LiftFunction);

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
    SymRef v = dvals[++salt % dvals.size()];
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
      sum += child.MemEntryCount() + child.constraints().size();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_StateMerge);

// Algorithm 1's rewrite alone (phase 2), facts collected up front.
void BM_AliasTwins(benchmark::State& state) {
  const Binary& bin = TestProgram().binary;
  CfgBuilder builder(bin);
  Program program = std::move(*builder.BuildProgram());
  SymEngine engine(bin);
  FunctionSummary summary =
      engine.Analyze(program.functions.at("b1_woo"));
  std::vector<AliasFact> facts = CollectAliasFacts(summary);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAliasTwins(summary, facts));
  }
}
BENCHMARK(BM_AliasTwins);

// ---- on-demand alias oracle queries ----------------------------------------
//
// Cold = first TwinsFor on a summary (fact collection + twin
// computation, paid once per queried function); warm = the memoized
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

/// The analysed binary of the DGN2200 paper image, or nullopt.
std::optional<Binary> Dgn2200Binary() {
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    if (spec.firmware.product != "DGN2200") continue;
    auto fw = BuildPaperImage(spec);
    if (!fw.ok()) break;
    auto loaded = LoadImageBinary(fw->image, spec.firmware.binary_path);
    if (loaded.ok()) return std::move(*loaded);
  }
  return std::nullopt;
}

/// The faint-register pass alone, over every function of the DGN2200
/// paper image: each function is lifted untimed and then pruned while
/// its IR is hot, as SymEngine::Analyze does before it explores.
void BM_PruneDeadPuts(benchmark::State& state) {
  std::optional<Binary> binary = Dgn2200Binary();
  if (!binary) {
    state.SkipWithError("DGN2200 paper image unavailable");
    return;
  }
  Program program = std::move(*CfgBuilder(*binary).BuildProgram());
  Lifter lifter(*binary);
  const CallingConvention& cc = ConventionFor(binary->arch);
  Result<FunctionIR> ir = FunctionIR{};
  uint64_t dropped = 0;
  for (auto _ : state) {
    for (const auto& [name, fn] : program.functions) {
      state.PauseTiming();
      ir = lifter.LiftFunction(fn);  // frees the previous function's IR
      state.ResumeTiming();
      for (uint32_t n : PruneDeadPuts(*ir, cc)) dropped += n;
    }
  }
  benchmark::DoNotOptimize(dropped);
}
BENCHMARK(BM_PruneDeadPuts);

/// Link alone, without summary noise: the DGN2200 paper image is
/// summarized, linked and structsim-resolved once, then each iteration
/// unlinks and relinks it over the resolved call graph — the round trip
/// DTaint::AnalyzeFunctions makes after structsim.
void BM_Relink(benchmark::State& state) {
  std::optional<Binary> binary = Dgn2200Binary();
  if (!binary) {
    state.SkipWithError("DGN2200 paper image unavailable");
    return;
  }
  Program program = std::move(*CfgBuilder(*binary).BuildProgram());
  SymEngine engine(*binary);
  CallGraph graph = CallGraph::Build(program);
  ProgramAnalysis analysis =
      Link(program, graph, Summarize(program, graph, engine));
  ResolveIndirectCalls(program, analysis.summaries,
                       analysis.alias_oracle.get());
  CallGraph resolved = CallGraph::Build(program);
  for (auto _ : state) {
    analysis = Link(program, resolved, Unlink(std::move(analysis)));
    benchmark::DoNotOptimize(analysis.stats.rets_replaced);
  }
}
BENCHMARK(BM_Relink)->Unit(benchmark::kMillisecond);

/// The DGN2200 paper image summarized, linked and structsim-resolved,
/// as DTaint::AnalyzeFunctions leaves it before the path search (its
/// indirect calls do not resolve, so no relink is needed).
struct LinkedImage {
  Program program;
  ProgramAnalysis analysis;
};

std::optional<LinkedImage> Dgn2200Linked(const Binary& binary) {
  LinkedImage out{std::move(*CfgBuilder(binary).BuildProgram()), {}};
  SymEngine engine(binary);
  CallGraph graph = CallGraph::Build(out.program);
  out.analysis = Link(out.program, graph, Summarize(out.program, graph, engine));
  if (!ResolveIndirectCalls(out.program, out.analysis.summaries,
                            out.analysis.alias_oracle.get())
           .empty()) {
    return std::nullopt;
  }
  return out;
}

/// Indirect-call resolution alone over the linked DGN2200 image. No
/// callsite resolves there, so every iteration does the same work: the
/// scan for callsites that reach the similarity case.
void BM_ResolveIndirectCalls(benchmark::State& state) {
  std::optional<Binary> binary = Dgn2200Binary();
  std::optional<LinkedImage> image;
  if (binary) image = Dgn2200Linked(*binary);
  if (!image) {
    state.SkipWithError("DGN2200 paper image unavailable");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ResolveIndirectCalls(
        image->program, image->analysis.summaries,
        image->analysis.alias_oracle.get()));
  }
}
BENCHMARK(BM_ResolveIndirectCalls);

/// The sink-to-source search alone over the linked DGN2200 image. The
/// alias oracle's memo is warm after the first iteration.
void BM_PathFinderFindAll(benchmark::State& state) {
  std::optional<Binary> binary = Dgn2200Binary();
  std::optional<LinkedImage> image;
  if (binary) image = Dgn2200Linked(*binary);
  if (!image) {
    state.SkipWithError("DGN2200 paper image unavailable");
    return;
  }
  PathFinder finder(image->program, image->analysis);
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.FindAll());
  }
}
BENCHMARK(BM_PathFinderFindAll)->Unit(benchmark::kMillisecond);

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
  // The harness consumes --json-out/--reps; the leftovers
  // go to google-benchmark (we skip ReportUnrecognizedArguments so the
  // harness flags don't trip it).
  dtaint::bench::Harness harness("micro_engine", argc, argv);
  benchmark::Initialize(&argc, argv);
  dtaint::HarnessReporter reporter(harness);
  size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return harness.Finish(ran > 0);
}

// Resilience layer tests: analysis budgets and graceful degradation,
// deterministic fault injection at every instrumented pipeline site,
// cache I/O failures recovering as misses and queued writes, and the
// differential guarantees the
// degraded-summary design promises (tiny-budget findings are a subset
// of generous-budget findings; degraded summaries never enter the
// persistent cache).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/binary/loader.h"
#include "src/binary/writer.h"
#include "src/isa/asm_builder.h"
#include "src/cache/summary_cache.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "src/firmware/extractor.h"
#include "src/firmware/packer.h"
#include "src/report/json.h"
#include "src/report/scoring.h"
#include "src/resilience/budget.h"
#include "src/resilience/fault.h"
#include "src/symexec/engine.h"
#include "src/symexec/intern.h"
#include "src/synth/firmware_synth.h"
#include "src/util/rng.h"
#include "tests/testing/pack_files.h"
#include "tests/testing/plant_corpus.h"

namespace dtaint {
namespace {

namespace fs = std::filesystem;

/// Every test that installs fault rules cleans the global plan up, so
/// suites can run in any order.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultPlan::Global().Clear(); }
};

SynthOutput MixedProgram(uint64_t seed = 77) {
  ProgramSpec spec;
  spec.name = "resil";
  spec.arch = Arch::kDtArm;
  spec.seed = seed;
  spec.filler_functions = 30;
  auto plant = [](const char* id, VulnPattern pattern, const char* source,
                  const char* sink, bool sanitized = false) {
    PlantSpec p;
    p.id = id;
    p.pattern = pattern;
    p.source = source;
    p.sink = sink;
    p.sanitized = sanitized;
    return p;
  };
  spec.plants = {
      plant("r1", VulnPattern::kDirect, "getenv", "system"),
      plant("r2", VulnPattern::kWrapper, "recv", "strcpy"),
      plant("r3", VulnPattern::kAliasChain, "recv", "strcpy"),
      plant("r4", VulnPattern::kDirect, "getenv", "system", true),
  };
  return std::move(*SynthesizeBinary(spec));
}

std::vector<std::string> FindingKeys(const AnalysisReport& report) {
  std::vector<std::string> keys;
  for (const Finding& f : report.findings) {
    keys.push_back(f.path.sink_function + "|" + f.path.sink_name + "|" +
                   f.path.source_name);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---------- BudgetTracker ----------------------------------------------------

TEST_F(ResilienceTest, UnlimitedBudgetNeverTrips) {
  BudgetTracker tracker(AnalysisBudget{});
  for (int i = 0; i < 100000; ++i) EXPECT_FALSE(tracker.ChargeStep());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(tracker.ChargeState());
  EXPECT_FALSE(tracker.exhausted());
  EXPECT_EQ(tracker.counters().exhausted_by, BudgetExhaustion::kNone);
  EXPECT_EQ(tracker.counters().steps, 100000u);
  EXPECT_EQ(tracker.counters().states, 1000u);
}

TEST_F(ResilienceTest, StepLimitTripsExactlyAtTheLimitAndIsSticky) {
  AnalysisBudget budget;
  budget.max_steps = 10;
  BudgetTracker tracker(budget);
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(tracker.ChargeStep()) << "step " << i;
  }
  EXPECT_TRUE(tracker.ChargeStep());  // 10th step trips
  EXPECT_TRUE(tracker.exhausted());
  EXPECT_EQ(tracker.cause(), BudgetExhaustion::kSteps);
  EXPECT_TRUE(tracker.ChargeStep());  // sticky
  EXPECT_TRUE(tracker.ChargeState());
}

TEST_F(ResilienceTest, OneStepPerAluInstruction) {
  // The step unit is one flat-IR statement: a straight-line block of N
  // ALU instructions charges exactly N steps (the ret charges none). An
  // IR change that moves the unit must fail here, not silently rescale
  // every --max-steps limit.
  for (int n : {1, 7, 300}) {
    FnBuilder b("alu");
    for (int i = 0; i < n; ++i) {
      switch (i % 5) {
        case 0: b.AddR(1, 2, 3); break;
        case 1: b.AddI(2, 1, i); break;
        case 2: b.SubI(3, 3, 1); break;
        case 3: b.MulR(1, 1, 2); break;
        default: b.LslI(2, 2, 1); break;
      }
    }
    b.Ret();
    BinaryWriter writer(Arch::kDtArm, "steps");
    writer.AddFunction(std::move(b).Finish().value());
    Binary bin = writer.Build().value();
    Program program = CfgBuilder(bin).BuildProgram().value();
    const Function& fn = program.functions.at("alu");
    ASSERT_EQ(fn.blocks.size(), 1u);
    BudgetTracker tracker{AnalysisBudget{}};
    SymEngine(bin).Analyze(fn, &tracker);
    EXPECT_EQ(tracker.counters().steps, static_cast<uint64_t>(n)) << n;
  }
}

/// A function of `n` ALU instructions and a ret: one block, one step
/// per instruction.
Binary AluFunction(int n) {
  FnBuilder b("alu");
  for (int i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0: b.AddR(1, 2, 3); break;
      case 1: b.AddI(2, 1, i); break;
      case 2: b.SubI(3, 3, 1); break;
      case 3: b.MulR(1, 1, 2); break;
      default: b.LslI(2, 2, 1); break;
    }
  }
  b.Ret();
  BinaryWriter writer(Arch::kDtArm, "steps");
  writer.AddFunction(std::move(b).Finish().value());
  return writer.Build().value();
}

TEST_F(ResilienceTest, PrunedAluOpsStillChargeTheirSteps) {
  // No ALU op here writes a register the summary reads (the ret reads
  // r0 only), so the engine prunes every one; their steps are charged
  // all the same, and a limit of half of them still degrades.
  constexpr int kOps = 300;
  Binary bin = AluFunction(kOps);
  Program program = CfgBuilder(bin).BuildProgram().value();
  const Function& fn = program.functions.at("alu");
  BudgetTracker unlimited{AnalysisBudget{}};
  FunctionSummary full = SymEngine(bin).Analyze(fn, &unlimited);
  EXPECT_FALSE(full.degraded);
  EXPECT_EQ(full.engine_stats.stmts_pruned, static_cast<uint64_t>(kOps));
  AnalysisBudget half;
  half.max_steps = kOps / 2;
  BudgetTracker tracker(half);
  FunctionSummary starved = SymEngine(bin).Analyze(fn, &tracker);
  EXPECT_TRUE(starved.degraded);
  EXPECT_EQ(tracker.cause(), BudgetExhaustion::kSteps);
}

TEST_F(ResilienceTest, ChargeStepsMatchesOneStepAtATime) {
  // A batch charge leaves the tracker where as many single charges
  // would: the same count, verdict and cause, and the same node
  // reading, wherever the batch crosses the slow-check interval or the
  // step limit.
  ScratchScope scope;  // the node check reads this thread's scratch count
  for (int i = 1; i <= 64; ++i) SymAdd(SymExpr::Arg(0), i);
  const uint64_t nodes = ScratchInterner::Current()->size();
  std::vector<AnalysisBudget> budgets(8);
  budgets[1].max_steps = 1;
  budgets[2].max_steps = 700;
  budgets[3].max_expr_nodes = nodes;  // trips at the first interval
  budgets[4].max_steps = 600;
  budgets[4].max_expr_nodes = nodes + 1000;  // read, never tripped
  budgets[5].deadline_ms = 1e-9;  // passed by the first step
  budgets[6].deadline_ms = 1e-9;
  budgets[6].max_steps = 1;  // the step limit is checked first
  budgets[7].max_steps = 250;  // trips before the interval whose node
  budgets[7].max_expr_nodes = nodes;  // check would
  Rng rng(7);
  for (size_t which = 0; which < budgets.size(); ++which) {
    for (int trial = 0; trial < 20; ++trial) {
      BudgetTracker batched(budgets[which]);
      BudgetTracker single(budgets[which]);
      for (int chunk = 0; chunk < 40; ++chunk) {
        const uint64_t n = rng.Below(60);
        const bool batched_out = batched.ChargeSteps(n);
        bool single_out = single.exhausted();
        for (uint64_t i = 0; i < n; ++i) single_out = single.ChargeStep();
        const BudgetCounters a = batched.counters();
        const BudgetCounters b = single.counters();
        ASSERT_EQ(batched_out, single_out) << "budget " << which;
        ASSERT_EQ(a.steps, b.steps) << "budget " << which;
        ASSERT_EQ(a.exhausted_by, b.exhausted_by) << "budget " << which;
        ASSERT_EQ(a.expr_nodes, b.expr_nodes) << "budget " << which;
      }
    }
  }
}

TEST_F(ResilienceTest, StateLimitTripsIndependentlyOfSteps) {
  AnalysisBudget budget;
  budget.max_states = 3;
  BudgetTracker tracker(budget);
  EXPECT_FALSE(tracker.ChargeStep());
  EXPECT_FALSE(tracker.ChargeState());
  EXPECT_FALSE(tracker.ChargeState());
  EXPECT_TRUE(tracker.ChargeState());
  EXPECT_EQ(tracker.cause(), BudgetExhaustion::kStates);
}

TEST_F(ResilienceTest, ExpiredDeadlineTripsOnTheFirstStep) {
  // A function that charges few steps must still see a deadline that
  // passed before it ran: the clock is read on the first step, not
  // only every interval-th.
  AnalysisBudget budget;
  budget.deadline_ms = 1;
  BudgetTracker tracker(budget);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(tracker.ChargeStep());
  EXPECT_EQ(tracker.cause(), BudgetExhaustion::kDeadline);
}

TEST_F(ResilienceTest, MarkInjectedReportsInjectedCause) {
  BudgetTracker tracker(AnalysisBudget{});
  tracker.MarkInjected();
  EXPECT_TRUE(tracker.exhausted());
  EXPECT_EQ(tracker.counters().exhausted_by, BudgetExhaustion::kInjected);
}

TEST_F(ResilienceTest, ExhaustionCauseNamesAreStable) {
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kNone), "none");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kDeadline), "deadline");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kSteps), "steps");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kStates), "states");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kExprNodes),
            "expr_nodes");
  EXPECT_EQ(BudgetExhaustionName(BudgetExhaustion::kInjected), "injected");
}

// ---------- FaultPlan spec parsing -------------------------------------------

TEST_F(ResilienceTest, SpecGrammarRoundTrips) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.InstallSpec("lift@parse_uri;summary:2+1,cache_read:*")
                  .ok());
  // lift@parse_uri: only matching detail fails, once.
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kLift, "main"));
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kLift, "parse_uri"));
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kLift, "parse_uri"));
  // summary:2+1: skip the first occurrence, fail the next two.
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kSummary, "a"));
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kSummary, "b"));
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kSummary, "c"));
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kSummary, "d"));
  // cache_read:*: every occurrence fails.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(plan.ShouldFail(FaultSite::kCacheRead, "k"));
  }
}

TEST_F(ResilienceTest, BadSpecsAreRejectedWithContext) {
  FaultPlan& plan = FaultPlan::Global();
  EXPECT_FALSE(plan.InstallSpec("no_such_site").ok());
  EXPECT_FALSE(plan.InstallSpec("lift:notanumber").ok());
  EXPECT_FALSE(plan.InstallSpec("lift+x").ok());
  // A failed install leaves no rules behind.
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kLift, "anything"));
}

TEST_F(ResilienceTest, SiteNamesRoundTrip) {
  const FaultSite sites[] = {
      FaultSite::kLift,       FaultSite::kSummary,    FaultSite::kPathfinder,
      FaultSite::kCacheRead,  FaultSite::kCacheWrite, FaultSite::kExtract,
      FaultSite::kLoad,       FaultSite::kCrash,      FaultSite::kWorkerKill,
      FaultSite::kWorkerHang, FaultSite::kStreamTorn};
  for (FaultSite site : sites) {
    FaultSite parsed;
    ASSERT_TRUE(ParseFaultSite(FaultSiteName(site), &parsed));
    EXPECT_EQ(parsed, site);
  }
  FaultSite dummy;
  EXPECT_FALSE(ParseFaultSite("bogus", &dummy));
}

// ---------- budget exhaustion degrades, never aborts -------------------------

TEST_F(ResilienceTest, TinyStepBudgetDegradesButCompletes) {
  SynthOutput out = MixedProgram();
  DTaintConfig config;
  config.interproc.budget.max_steps = 50;
  auto report = DTaint(config).Analyze(out.binary);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->degraded_functions, 0u);
  EXPECT_FALSE(report->complete);
  EXPECT_FALSE(report->incidents.empty());
  for (const Incident& inc : report->incidents) {
    EXPECT_EQ(inc.phase, "summary");
    EXPECT_EQ(inc.status.code(), StatusCode::kOutOfRange);
    EXPECT_EQ(inc.budget.exhausted_by, BudgetExhaustion::kSteps);
    EXPECT_FALSE(inc.detail.empty());
  }
}

TEST_F(ResilienceTest, GenerousBudgetMatchesUnbudgetedRun) {
  SynthOutput out = MixedProgram();
  auto unbudgeted = DTaint().Analyze(out.binary);
  DTaintConfig config;
  config.interproc.budget.max_steps = 50'000'000;
  config.interproc.budget.max_states = 50'000'000;
  auto generous = DTaint(config).Analyze(out.binary);
  ASSERT_TRUE(unbudgeted.ok());
  ASSERT_TRUE(generous.ok());
  EXPECT_EQ(generous->degraded_functions, 0u);
  EXPECT_TRUE(generous->complete);
  EXPECT_EQ(FindingKeys(*generous), FindingKeys(*unbudgeted));
  EXPECT_EQ(FindingsToJson(generous->findings),
            FindingsToJson(unbudgeted->findings));
}

TEST_F(ResilienceTest, TinyBudgetFindingsAreSubsetOfGenerous) {
  SynthOutput out = MixedProgram();
  auto generous = DTaint().Analyze(out.binary);
  ASSERT_TRUE(generous.ok());
  std::vector<std::string> full = FindingKeys(*generous);
  // Sweep budgets from starved to roomy: at every level the findings
  // must be a subset of the full run's — degraded summaries may hide
  // paths (counted in suppressed_findings) but never invent them.
  for (uint64_t max_steps : {20u, 100u, 500u, 2000u, 20000u}) {
    DTaintConfig config;
    config.interproc.budget.max_steps = max_steps;
    auto tiny = DTaint(config).Analyze(out.binary);
    ASSERT_TRUE(tiny.ok()) << "max_steps=" << max_steps;
    for (const std::string& key : FindingKeys(*tiny)) {
      EXPECT_TRUE(std::binary_search(full.begin(), full.end(), key))
          << "spurious finding under max_steps=" << max_steps << ": "
          << key;
    }
    if (tiny->degraded_functions > 0) {
      EXPECT_FALSE(tiny->complete);
    }
  }
}

TEST_F(ResilienceTest, DeadlineBudgetDegradesStateExplosion) {
  // Wall-clock budgets are inherently nondeterministic in *which*
  // function trips, but an absurdly small deadline must degrade the
  // analysis rather than hang or crash it.
  SynthOutput out = MixedProgram();
  DTaintConfig config;
  config.interproc.budget.deadline_ms = 0.0001;
  auto report = DTaint(config).Analyze(out.binary);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->degraded_functions, 0u);
  for (const Incident& inc : report->incidents) {
    EXPECT_EQ(inc.budget.exhausted_by, BudgetExhaustion::kDeadline);
  }
}

// ---------- on-demand alias oracle under expression budget -------------------

TEST_F(ResilienceTest, OnDemandAliasMemoBudgetDegradesConservatively) {
  // A program whose cross-call plant is detectable only through the
  // on-demand SSE oracle. The oracle's memo table charges against
  // max_expr_nodes; starving it must shed findings (empty twin sets →
  // fewer alias matches), never invent them — at every budget level
  // the findings are a subset of the generous on-demand run's.
  ProgramSpec spec;
  spec.name = "resil_alias";
  spec.arch = Arch::kDtArm;
  spec.seed = 88;
  spec.filler_functions = 20;
  PlantSpec xcall;
  xcall.id = "xa";
  xcall.pattern = VulnPattern::kCrossCallAlias;
  xcall.source = "recv";
  xcall.sink = "memcpy";
  PlantSpec direct;
  direct.id = "xd";
  direct.pattern = VulnPattern::kDirect;
  direct.source = "getenv";
  direct.sink = "system";
  spec.plants = {xcall, direct};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  DTaintConfig config;
  auto generous = DTaint(config).Analyze(out->binary);
  ASSERT_TRUE(generous.ok());
  DetectionScore full_score =
      ScoreFindings(generous->findings, out->ground_truth);
  ASSERT_EQ(full_score.true_positives, 2u)
      << "generous on-demand run must find both plants";
  std::vector<std::string> full = FindingKeys(*generous);

  for (uint64_t nodes : {1u, 8u, 64u, 4096u}) {
    DTaintConfig starved = config;
    starved.interproc.budget.max_expr_nodes = nodes;
    auto tiny = DTaint(starved).Analyze(out->binary);
    ASSERT_TRUE(tiny.ok()) << "max_expr_nodes=" << nodes;
    for (const std::string& key : FindingKeys(*tiny)) {
      EXPECT_TRUE(std::binary_search(full.begin(), full.end(), key))
          << "spurious finding under max_expr_nodes=" << nodes << ": "
          << key;
    }
    // Fewer memoized twin pairs can only lose indirect-call
    // resolutions, never gain them.
    EXPECT_LE(tiny->indirect_calls_resolved,
              generous->indirect_calls_resolved)
        << "max_expr_nodes=" << nodes;
  }
}

// ---------- fault sites ------------------------------------------------------

TEST_F(ResilienceTest, InjectedLiftFaultIsIsolatedToOneFunction) {
  SynthOutput out = MixedProgram();
  auto clean = DTaint().Analyze(out.binary);
  ASSERT_TRUE(clean.ok());

  // Fail the lift of one filler function; everything else (including
  // every planted vulnerability) must still be found.
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("lift@fill").ok());
  auto faulted = DTaint().Analyze(out.binary);
  ASSERT_TRUE(faulted.ok());
  ASSERT_EQ(faulted->incidents.size(), 1u);
  EXPECT_EQ(faulted->incidents[0].phase, "lift");
  EXPECT_FALSE(faulted->complete);
  EXPECT_EQ(faulted->analyzed_functions, clean->analyzed_functions - 1);
  std::vector<std::string> full = FindingKeys(*clean);
  for (const std::string& key : FindingKeys(*faulted)) {
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), key)) << key;
  }
}

TEST_F(ResilienceTest, LiftFaultOutsideTheFocusStillSurfaces) {
  // The kLift fault site fires per symbol while building the CFG, before
  // the focus filter: a function the focus scan would drop still yields
  // the same incident and an incomplete report.
  BinaryWriter writer(Arch::kDtArm, "focus.bin");
  writer.AddImport("getenv");
  {
    FnBuilder b("handler");
    b.Call("getenv");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("idle");
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  Binary bin = writer.Build().value();

  ASSERT_TRUE(FaultPlan::Global().InstallSpec("lift@idle").ok());
  auto focused = DTaint().AnalyzeFunctions(bin, {"handler"});
  ASSERT_TRUE(focused.ok());
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("lift@idle").ok());
  auto whole = DTaint().Analyze(bin);
  ASSERT_TRUE(whole.ok());

  EXPECT_EQ(focused->analyzed_functions, 1u);
  EXPECT_FALSE(focused->complete);
  ASSERT_EQ(focused->incidents.size(), 1u);
  ASSERT_EQ(whole->incidents.size(), 1u);
  const Incident& got = focused->incidents[0];
  const Incident& want = whole->incidents[0];
  EXPECT_EQ(got.phase, "lift");
  EXPECT_EQ(got.detail, "idle");
  EXPECT_EQ(got.phase, want.phase);
  EXPECT_EQ(got.detail, want.detail);
  EXPECT_EQ(got.status.ToString(), want.status.ToString());
}

TEST_F(ResilienceTest, InjectedSummaryFaultDegradesExactlyOneFunction) {
  SynthOutput out = MixedProgram();
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("summary@fill").ok());
  auto report = DTaint().Analyze(out.binary);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->degraded_functions, 1u);
  ASSERT_EQ(report->incidents.size(), 1u);
  EXPECT_EQ(report->incidents[0].phase, "summary");
  EXPECT_EQ(report->incidents[0].budget.exhausted_by,
            BudgetExhaustion::kInjected);
  EXPECT_FALSE(report->complete);
}

TEST_F(ResilienceTest, InjectedPathfinderFaultFailsTheBinaryNotTheProcess) {
  SynthOutput out = MixedProgram();
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("pathfind").ok());
  auto report = DTaint().Analyze(out.binary);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("pathfinder"),
            std::string::npos);
  // The very next analysis (fault consumed) succeeds.
  auto retry = DTaint().Analyze(out.binary);
  EXPECT_TRUE(retry.ok());
}

TEST_F(ResilienceTest, InjectedExtractFaultReturnsStatus) {
  auto fw = [] {
    FirmwareSpec spec;
    spec.vendor = "V";
    spec.product = "P";
    spec.version = "1";
    spec.binary_path = "/bin/httpd";
    spec.program.name = "httpd";
    spec.program.filler_functions = 4;
    return SynthesizeFirmware(spec);
  }();
  ASSERT_TRUE(fw.ok());
  std::vector<uint8_t> blob = FirmwarePacker::Pack(fw->image);

  ASSERT_TRUE(FaultPlan::Global().InstallSpec("extract@img.bin").ok());
  auto faulted = FirmwareExtractor::Extract(blob, "img.bin");
  ASSERT_FALSE(faulted.ok());
  EXPECT_NE(faulted.status().ToString().find("img.bin"), std::string::npos);
  // Fault consumed: same bytes extract fine afterwards.
  EXPECT_TRUE(FirmwareExtractor::Extract(blob, "img.bin").ok());
}

TEST_F(ResilienceTest, InjectedLoadFaultReturnsStatus) {
  SynthOutput out = MixedProgram();
  std::vector<uint8_t> bytes = BinaryWriter::Serialize(out.binary);
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("load@resil.bin").ok());
  auto faulted = BinaryLoader::Load(bytes, "resil.bin");
  ASSERT_FALSE(faulted.ok());
  EXPECT_NE(faulted.status().ToString().find("resil.bin"),
            std::string::npos);
  EXPECT_TRUE(BinaryLoader::Load(bytes, "resil.bin").ok());
}

TEST_F(ResilienceTest, FailedCacheReadMissesAndTheNextLookupHits) {
  fs::path dir = "resilience_cache_readonce";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  Hash128 key{9, 1};
  FunctionSummary s;
  s.name = "victim";
  {
    SummaryCache writer(config);
    writer.Store(key, s);
  }
  // One failed read: that lookup misses, and nothing retries it in
  // place. The copy stays indexed, so the next lookup reads it.
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("cache_read:1").ok());
  SummaryCache reader(config);
  EXPECT_FALSE(reader.Lookup(key).has_value());
  EXPECT_EQ(reader.stats().io_failures, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  auto hit = reader.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "victim");
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().io_failures, 1u);
  EXPECT_EQ(reader.stats().corrupt_entries, 0u);
  fs::remove_all(dir);
}

TEST_F(ResilienceTest, PersistentCacheReadFaultFallsBackToMiss) {
  fs::path dir = "resilience_cache_readfail";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  Hash128 key{9, 2};
  FunctionSummary s;
  s.name = "unreachable";
  {
    SummaryCache writer(config);
    writer.Store(key, s);
  }
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("cache_read:*").ok());
  SummaryCache reader(config);
  EXPECT_FALSE(reader.Lookup(key).has_value());  // miss, not a crash
  EXPECT_EQ(reader.stats().io_failures, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  fs::remove_all(dir);
}

TEST_F(ResilienceTest, PersistentCacheWriteFaultKeepsMemoryTier) {
  fs::path dir = "resilience_cache_writefail";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("cache_write:*").ok());
  SummaryCache cache(config);
  Hash128 key{9, 3};
  FunctionSummary s;
  s.name = "memonly";
  cache.Store(key, s);
  cache.Flush();
  EXPECT_EQ(cache.stats().io_failures, 1u);
  // Disk tier never materialized, the queued entry still serves.
  EXPECT_TRUE(testing_util::PackFiles(dir).empty());
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "memonly");

  // Once the fault clears, the next flush writes the queued entry.
  FaultPlan::Global().Clear();
  cache.Flush();
  EXPECT_EQ(testing_util::PackFiles(dir).size(), 1u);
  SummaryCache fresh(config);
  hit = fresh.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "memonly");
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  fs::remove_all(dir);
}

TEST_F(ResilienceTest, FailedPackWriteLeavesNoFileBehind) {
  // A file-size limit below the pack's size makes the write fail
  // part-way. Set in a forked child, so only that child is
  // limited; it exits 0 when it counted the failure.
  fs::path dir = "resilience_cache_fsize";
  fs::remove_all(dir);
  fs::create_directories(dir);
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit limit{16, 16};  // below a pack's 40-byte header and index
    ::setrlimit(RLIMIT_FSIZE, &limit);
    CacheConfig config;
    config.disk_dir = dir.string();
    SummaryCache cache(config);
    cache.Store(Hash128{9, 4}, FunctionSummary{});
    cache.Flush();
    ::_exit(cache.stats().io_failures >= 1 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_TRUE(fs::is_empty(dir));  // no .tmp, no .dtsp
  fs::remove_all(dir);
}

TEST_F(ResilienceTest, FailedCacheIoNeverChangesTheReport) {
  SynthOutput out = MixedProgram();
  fs::path dir = "resilience_cache_oracle";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  auto scan = [&](SummaryCache& cache) {
    DTaintConfig dconfig;
    dconfig.interproc.cache = &cache;
    auto report = DTaint(dconfig).Analyze(out.binary);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? testing_util::NormalizedJson(*report)
                       : std::string();
  };

  // A cold scan under a dead disk writes no pack; its entries stay
  // queued, and the first Flush() once the disk is back writes them
  // all as one pack.
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("cache_write:*").ok());
  std::string cold;
  {
    SummaryCache cache(config);
    cold = scan(cache);
    ASSERT_FALSE(cold.empty());
    EXPECT_GE(cache.stats().io_failures, 1u);
    EXPECT_TRUE(testing_util::PackFiles(dir).empty());
    FaultPlan::Global().Clear();
    cache.Flush();
    EXPECT_EQ(testing_util::PackFiles(dir).size(), 1u);
  }

  std::string warm;
  {
    SummaryCache cache(config);
    warm = scan(cache);
    EXPECT_GT(cache.stats().disk_hits, 0u);
    EXPECT_EQ(cache.stats().io_failures, 0u);
  }
  EXPECT_EQ(warm, cold);

  // A warm scan whose every read fails recomputes every summary.
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("cache_read:*").ok());
  SummaryCache cache(config);
  EXPECT_EQ(scan(cache), warm);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  EXPECT_GT(cache.stats().io_failures, 0u);
  EXPECT_EQ(cache.stats().corrupt_entries, 0u);
  fs::remove_all(dir);
}

// ---------- degraded summaries and the persistent cache ----------------------

TEST_F(ResilienceTest, DegradedSummariesAreNeverStored) {
  SynthOutput out = MixedProgram();
  fs::path dir = "resilience_degraded_cache";
  fs::remove_all(dir);
  CacheConfig cache_config;
  cache_config.disk_dir = dir.string();
  SummaryCache cache(cache_config);

  DTaintConfig starved;
  starved.interproc.cache = &cache;
  starved.interproc.budget.max_steps = 200;
  auto tiny = DTaint(starved).Analyze(out.binary);
  ASSERT_TRUE(tiny.ok());
  ASSERT_GT(tiny->degraded_functions, 0u);

  // Warm rerun with no budget: previously degraded functions cannot be
  // served from the cache (they were never stored), so the full run's
  // findings match a cache-free analysis exactly.
  DTaintConfig generous;
  generous.interproc.cache = &cache;
  auto warm = DTaint(generous).Analyze(out.binary);
  auto reference = DTaint().Analyze(out.binary);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(warm->degraded_functions, 0u);
  EXPECT_TRUE(warm->complete);
  EXPECT_EQ(FindingsToJson(warm->findings),
            FindingsToJson(reference->findings));
  fs::remove_all(dir);
}

// ---------- end-to-end: the report tells the truth ---------------------------

TEST_F(ResilienceTest, JsonReportCarriesIncidentsAndCompleteness) {
  SynthOutput out = MixedProgram();
  ASSERT_TRUE(FaultPlan::Global().InstallSpec("summary@fill").ok());
  auto report = DTaint().Analyze(out.binary);
  ASSERT_TRUE(report.ok());
  std::string json = ReportToJson(*report);
  EXPECT_NE(json.find("\"complete\":false"), std::string::npos);
  EXPECT_NE(json.find("\"incidents\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"exhausted_by\":\"injected\""), std::string::npos);
  EXPECT_NE(json.find("\"resilience\""), std::string::npos);
}

}  // namespace
}  // namespace dtaint

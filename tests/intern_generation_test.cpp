// Interner generations: pins, recycling, and what they guarantee.
//
// ExprInterner recycles its node generation once the last pin drops
// (DTaint::AnalyzeFunctions holds one for its run; every Finding keeps
// a copy), unless something interned without a pin. The first half of
// this file drives private interner instances directly. The second half
// runs DTaint on the process-wide interner, so nothing in this binary
// may build an expression outside an analysis: one unpinned intern
// would make the global generation permanent and hide every recycle.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/cache/summary_codec.h"
#include "src/core/dtaint.h"
#include "src/obs/metrics.h"
#include "src/report/json.h"
#include "src/symexec/intern.h"
#include "src/synth/firmware_synth.h"
#include "tests/testing/plant_corpus.h"

namespace dtaint {
namespace {

SymRef Leaf(ExprInterner& interner, SymKind kind, uint64_t a) {
  return interner.Intern(kind, a, 4, BinOp::kAdd, nullptr, nullptr, {});
}

SymRef Add(ExprInterner& interner, SymRef lhs, SymRef rhs) {
  return interner.Intern(SymKind::kBin, 0, 4, BinOp::kAdd, lhs, rhs, {});
}

SymRef Taint(ExprInterner& interner, uint32_t site,
             std::string_view source) {
  return interner.Intern(SymKind::kTaint, site, 4, BinOp::kAdd, nullptr,
                         nullptr, source);
}

/// Builds a few shapes, one of them a taint node with a source name
/// longer than any small-string buffer, and returns how many distinct
/// nodes that is.
uint64_t BuildShapes(ExprInterner& interner, uint64_t salt) {
  SymRef x = Leaf(interner, SymKind::kHeap, 0x1000 + salt);
  SymRef sum = Add(interner, x, Leaf(interner, SymKind::kConst, 7));
  SymRef tainted = Add(
      interner, sum,
      Taint(interner, 0x40, "recv_with_a_name_too_long_for_small_strings"));
  EXPECT_EQ(tainted->lhs(), sum);
  EXPECT_EQ(tainted->rhs()->taint_source(),
            "recv_with_a_name_too_long_for_small_strings");
  return 5;
}

TEST(InternGeneration, RecyclesOnlyAfterTheLastPinDrops) {
  ExprInterner interner;
  InternPin first = interner.Pin();
  InternPin second = interner.Pin();
  uint64_t built = BuildShapes(interner, 0);
  EXPECT_EQ(interner.stats().resident_nodes, built);

  first.reset();
  InternPin third = interner.Pin();  // `second` still holds the generation
  EXPECT_EQ(interner.stats().recycles, 0u);
  EXPECT_EQ(interner.stats().resident_nodes, built);

  InternPin copy = third;  // a copy is the same pin, not a new one
  second.reset();
  third.reset();
  InternPin fourth = interner.Pin();
  EXPECT_EQ(interner.stats().recycles, 0u);

  copy.reset();
  fourth.reset();
  InternPin fifth = interner.Pin();
  InternStats after = interner.stats();
  EXPECT_EQ(after.recycles, 1u);
  EXPECT_EQ(after.resident_nodes, 0u);
  EXPECT_EQ(after.nodes, built);  // cumulative
}

TEST(InternGeneration, AnEmptyGenerationIsNotRecycled) {
  ExprInterner interner;
  interner.Pin().reset();
  interner.Pin().reset();
  EXPECT_EQ(interner.stats().recycles, 0u);
}

TEST(InternGeneration, OneUnpinnedInternBlocksEveryLaterRecycle) {
  ExprInterner interner;
  {
    InternPin pin = interner.Pin();
    BuildShapes(interner, 0);
  }
  SymRef unpinned = Leaf(interner, SymKind::kArg, 3);
  for (uint64_t round = 1; round <= 3; ++round) {
    InternPin pin = interner.Pin();
    BuildShapes(interner, round);
  }
  InternPin pin = interner.Pin();
  InternStats stats = interner.stats();
  EXPECT_EQ(stats.recycles, 0u);
  EXPECT_EQ(stats.resident_nodes, stats.nodes);
  // The unpinned node is still the canonical one for its shape.
  EXPECT_EQ(Leaf(interner, SymKind::kArg, 3), unpinned);
  EXPECT_EQ(unpinned->arg_index(), 3);
}

TEST(InternGeneration, NoLeafCacheSlotSurvivesARecycle) {
  ExprInterner interner;
  const std::vector<std::pair<SymKind, uint64_t>> leaves = {
      {SymKind::kConst, 5}, {SymKind::kConst, 1023}, {SymKind::kArg, 2},
      {SymKind::kInit, 31}, {SymKind::kSp0, 0}};
  {
    InternPin pin = interner.Pin();
    for (const auto& [kind, a] : leaves) Leaf(interner, kind, a);
    InternStats warm = interner.stats();
    for (const auto& [kind, a] : leaves) Leaf(interner, kind, a);
    // The second round is served by the leaf caches: hits, no nodes.
    EXPECT_EQ(interner.stats().nodes, warm.nodes);
    EXPECT_EQ(interner.stats().hits, warm.hits + leaves.size());
  }
  InternPin pin = interner.Pin();
  InternStats fresh = interner.stats();
  ASSERT_EQ(fresh.recycles, 1u);
  for (const auto& [kind, a] : leaves) {
    SymRef node = Leaf(interner, kind, a);
    EXPECT_EQ(node->kind(), kind);
  }
  // Every leaf was a miss in the new generation: a slot that still
  // pointed into the recycled arena would have counted a hit instead.
  InternStats after = interner.stats();
  EXPECT_EQ(after.nodes, fresh.nodes + leaves.size());
  EXPECT_EQ(after.hits, fresh.hits);
  EXPECT_EQ(after.resident_nodes, leaves.size());
}

TEST(InternGeneration, CumulativeCountersNeverDecrease) {
  ExprInterner interner;
  InternStats prev = interner.stats();
  for (uint64_t round = 0; round < 6; ++round) {
    InternPin pin = interner.Pin();
    BuildShapes(interner, round % 2);
    BuildShapes(interner, round % 2);  // all hits
    InternStats now = interner.stats();
    EXPECT_GE(now.nodes, prev.nodes);
    EXPECT_GT(now.hits, prev.hits);
    EXPECT_GE(now.bytes, prev.bytes);
    EXPECT_GE(now.contended, prev.contended);
    EXPECT_GE(now.recycles, prev.recycles);
    EXPECT_EQ(now.recycles, round);
    EXPECT_EQ(now.resident_nodes, 5u);
    prev = now;
  }
  EXPECT_EQ(prev.nodes, 6u * 5u);
}

TEST(InternGeneration, ConcurrentPinAndInternFromFourThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  ExprInterner interner;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&interner, t] {
      for (int round = 0; round < kRounds; ++round) {
        InternPin pin = interner.Pin();
        BuildShapes(interner, static_cast<uint64_t>(round % 3));
        SymRef base = Leaf(interner, SymKind::kHeap, 0x2000 + (round % 5));
        SymRef spine = base;
        for (int depth = 0; depth < 6; ++depth) {
          spine = Add(interner, spine,
                      Leaf(interner, SymKind::kConst,
                           static_cast<uint64_t>(depth + t)));
        }
        for (SymRef node = spine; node->lhs(); node = node->lhs()) {
          ASSERT_EQ(node->kind(), SymKind::kBin);
        }
        const uint64_t c = static_cast<uint64_t>(t);
        EXPECT_EQ(Add(interner, base, Leaf(interner, SymKind::kConst, c)),
                  Add(interner, base, Leaf(interner, SymKind::kConst, c)));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  InternPin pin = interner.Pin();  // every other pin is gone
  InternStats stats = interner.stats();
  EXPECT_GE(stats.recycles, 1u);
  EXPECT_EQ(stats.resident_nodes, 0u);
}

// ---------- DTaint on the process-wide interner -----------------------------

Binary Image(uint64_t seed) {
  ProgramSpec spec;
  spec.name = "gen" + std::to_string(seed);
  spec.arch = Arch::kDtArm;
  spec.seed = seed;
  spec.filler_functions = 30;
  spec.filler_alu_burst = 64;
  PlantSpec direct;
  direct.id = "d";
  direct.pattern = VulnPattern::kDirect;
  direct.source = "getenv";
  direct.sink = "system";
  PlantSpec wrapper;
  wrapper.id = "w";
  wrapper.pattern = VulnPattern::kWrapper;
  wrapper.source = "recv";
  wrapper.sink = "strcpy";
  spec.plants = {direct, wrapper};
  return std::move(SynthesizeBinary(spec)->binary);
}

/// The normalized report, with the incidents' wall-clock field cleared.
std::string Normalized(AnalysisReport report) {
  for (Incident& incident : report.incidents) incident.budget.elapsed_ms = 0;
  for (Incident& incident : report.interproc_stats.incidents) {
    incident.budget.elapsed_ms = 0;
  }
  return testing_util::NormalizedJson(std::move(report));
}

TEST(InternGenerationDTaint, ExprNodeBudgetDoesNotDependOnEarlierAnalyses) {
  Binary binary = Image(41);
  DTaintConfig config;
  config.interproc.num_threads = 1;
  config.interproc.budget.max_expr_nodes = 100;
  // Each report is dropped before the next analysis, as a corpus scan
  // does: a finding still held would keep its generation resident.
  size_t degraded = 0;
  auto analyze = [&] {
    auto report = DTaint(config).Analyze(binary);
    EXPECT_TRUE(report.ok());
    if (!report.ok()) return std::string();
    degraded = report->degraded_functions;
    EXPECT_GT(degraded, 0u) << "the budget must bind";
    EXPECT_LT(degraded, report->analyzed_functions);
    return Normalized(std::move(*report));
  };
  std::string first = analyze();
  size_t first_degraded = degraded;
  std::string second = analyze();
  EXPECT_EQ(degraded, first_degraded);
  EXPECT_EQ(second, first);
}

TEST(InternGenerationDTaint, ExprNodeBudgetIsTheSameAtEveryThreadCount) {
  // The node count a function is charged for is its own exploration's,
  // so the summary threads building other functions at the same time
  // cannot move its trip point.
  Binary binary = Image(41);
  std::string expected;
  for (int threads : {1, 2, 8}) {
    DTaintConfig config;
    config.interproc.num_threads = threads;
    config.interproc.budget.max_expr_nodes = 100;
    for (int run = 0; run < 8; ++run) {
      auto report = DTaint(config).Analyze(binary);
      ASSERT_TRUE(report.ok());
      ASSERT_GT(report->degraded_functions, 0u) << "the budget must bind";
      std::string normalized = Normalized(std::move(*report));
      if (expected.empty()) expected = normalized;
      EXPECT_TRUE(normalized == expected)
          << "threads " << threads << ", run " << run;
    }
  }
}

TEST(InternGenerationDTaint, CopiedFindingOutlivesItsReport) {
  ExprInterner& interner = ExprInterner::Global();
  Binary binary = Image(42);
  Binary other = Image(43);
  Finding copy;
  std::string expected;
  {
    auto report = DTaint().Analyze(binary);
    ASSERT_TRUE(report.ok());
    ASSERT_FALSE(report->findings.empty());
    copy = report->findings.front();
    ASSERT_TRUE(copy.path.sink_arg);
    expected = FindingsToJson({copy});
  }
  // The copy's pin keeps its generation alive through the next
  // analysis, which therefore cannot recycle it ...
  uint64_t recycles = interner.stats().recycles;
  ASSERT_TRUE(DTaint().Analyze(other).ok());
  EXPECT_EQ(interner.stats().recycles, recycles);
  EXPECT_EQ(FindingsToJson({copy}), expected);
  // ... and once it is gone the next analysis recycles.
  copy = Finding{};
  ASSERT_TRUE(DTaint().Analyze(other).ok());
  EXPECT_EQ(interner.stats().recycles, recycles + 1);
}

TEST(InternGenerationDTaint, RegistryCountersStayCumulativeAcrossRecycles) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  Binary binary = Image(44);
  uint64_t nodes = registry.counter("intern.nodes").Value();
  uint64_t hits = registry.counter("intern.hits").Value();
  uint64_t bytes = registry.counter("intern.bytes").Value();
  uint64_t recycles = registry.counter("intern.recycles").Value();
  double resident = -1;
  for (int run = 0; run < 3; ++run) {
    auto report = DTaint().Analyze(binary);
    ASSERT_TRUE(report.ok());
    // Every run rebuilds its nodes in a fresh generation.
    EXPECT_GT(registry.counter("intern.nodes").Value(), nodes);
    EXPECT_GT(registry.counter("intern.hits").Value(), hits);
    EXPECT_GT(registry.counter("intern.bytes").Value(), bytes);
    EXPECT_GE(registry.counter("intern.recycles").Value(), recycles);
    nodes = registry.counter("intern.nodes").Value();
    hits = registry.counter("intern.hits").Value();
    bytes = registry.counter("intern.bytes").Value();
    recycles = registry.counter("intern.recycles").Value();
    double now = registry.gauge("intern.resident_nodes").Value();
    EXPECT_GT(now, 0);
    if (run > 0) {
      EXPECT_EQ(now, resident);  // same image, same generation size
    }
    resident = now;
    // The recycle that started this run lands in its metrics delta.
    if (run > 0) {
      EXPECT_EQ(report->metrics.CounterValue("intern.recycles"), 1u);
    }
  }
}

TEST(InternGenerationDTaint, DecodeInternsEachListCellOnce) {
  // A summary blob read into a fresh generation, as a warm rescan reads
  // it: every cell is new there, and the decoder builds each one once,
  // however many of the blob's lists share it.
  ExprInterner& interner = ExprInterner::Global();
  std::vector<uint8_t> blob;
  uint64_t recycles = 0;
  {
    InternPin pin = interner.Pin();
    recycles = interner.stats().recycles;
    auto constraint = [](uint32_t site) {
      PathConstraint c;
      c.op = BinOp::kCmpNe;
      c.lhs = SymExpr::Arg(0);
      c.rhs = SymExpr::Const(site & 0xFF);
      c.site = site;
      return c;
    };
    // Lists of one path: each record's list extends an earlier one.
    FunctionSummary summary;
    summary.name = "shared_prefixes";
    ConstraintList list;
    for (uint32_t i = 0; i < 6; ++i) {
      list = list.Push(constraint(0x10100 + 4 * i));
      for (int twice = 0; twice < 2; ++twice) {
        DefPair dp;
        dp.d = SymExpr::Deref(SymExpr::Arg(1), 4);
        dp.u = SymExpr::Arg(2);
        dp.site = 0x10200 + i;
        dp.constraints = list;
        summary.def_pairs.push_back(dp);
      }
    }
    blob = EncodeSummary(summary);
  }
  InternPin pin = interner.Pin();
  ASSERT_EQ(interner.stats().recycles, recycles + 1)
      << "the test needs a fresh generation";
  const InternStats before = interner.stats();
  auto decoded = DecodeSummary(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const InternStats after = interner.stats();
  EXPECT_EQ(after.list_hits, before.list_hits);
  EXPECT_EQ(after.list_cells - before.list_cells, 6u);
  EXPECT_EQ(decoded->def_pairs.back().constraints.size(), 6u);
}

}  // namespace
}  // namespace dtaint

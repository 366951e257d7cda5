// Observability layer tests: metrics registry (exact totals under
// concurrency, histogram quantiles, snapshot deltas, JSON round-trip),
// leveled logging (threshold filtering, sink capture, lazy argument
// evaluation), thread ordinals across fork(), the obs::Phase scope
// (one event pair and one histogram sample per phase; only the sample
// when the stream is closed), and the InterprocStats-from-registry
// cache compatibility view.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/summary_cache.h"
#include "src/core/alias_ondemand.h"
#include "src/core/dtaint.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/stopwatch.h"
#include "src/synth/firmware_synth.h"
#include "src/util/json.h"

namespace dtaint {
namespace {

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistry, CountersExactUnderConcurrency) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("work.items");
  obs::Histogram& histogram = registry.histogram("work.size");
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        counter.Add(3);
        histogram.Observe(7);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(counter.Value(), uint64_t{3} * kThreads * kIters);
  EXPECT_EQ(histogram.Count(), uint64_t{kThreads} * kIters);
  EXPECT_EQ(histogram.Sum(), uint64_t{7} * kThreads * kIters);
  EXPECT_EQ(histogram.Max(), 7u);
}

TEST(MetricsRegistry, StableHandlesAndGetOrCreate) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x");
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.Add(2);
  EXPECT_EQ(registry.counter("x").Value(), 2u);
  registry.gauge("g").Set(1.5);
  EXPECT_DOUBLE_EQ(registry.gauge("g").Value(), 1.5);
}

TEST(MetricsRegistry, DisabledMutationsAreNoOps) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("c");
  obs::Gauge& gauge = registry.gauge("g");
  obs::Histogram& histogram = registry.histogram("h");
  counter.Add(5);
  gauge.Set(2.0);
  histogram.Observe(9);
  registry.SetEnabled(false);
  counter.Add(5);
  gauge.Set(9.0);
  histogram.Observe(9);
  EXPECT_EQ(counter.Value(), 5u);       // unchanged
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.0); // unchanged, still readable
  EXPECT_EQ(histogram.Count(), 1u);
  registry.SetEnabled(true);
  counter.Add(1);
  EXPECT_EQ(counter.Value(), 6u);
}

TEST(Histogram, QuantilesAreDeterministic) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("lat");
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  // Values 1..511 fill buckets 1..9 (cumulative 511 >= rank 500), so
  // p50 reports bucket 9's upper bound 2^9-1 = 511. Rank 950 lands in
  // bucket 10 whose upper bound 1023 clamps to the observed max 1000.
  EXPECT_EQ(h.ValueAtQuantile(0.5), 511u);
  EXPECT_EQ(h.ValueAtQuantile(0.95), 1000u);
  EXPECT_EQ(h.Max(), 1000u);
  obs::HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_EQ(stats.sum, 500500u);
  EXPECT_EQ(stats.p50, 511u);
  // Rank 900 lands in bucket 10 ([512, 1023]), clamped to max 1000 —
  // same bucket as p95/p99 at this sample size.
  EXPECT_EQ(stats.p90, 1000u);
  EXPECT_EQ(stats.p95, 1000u);
  EXPECT_EQ(stats.p99, 1000u);
  // Stats() carries the raw buckets so snapshots can subtract them.
  ASSERT_EQ(stats.buckets.size(),
            static_cast<size_t>(obs::Histogram::kBuckets));
  EXPECT_EQ(stats.buckets[0], 0u);
  EXPECT_EQ(stats.buckets[1], 1u);  // {1}
  EXPECT_EQ(stats.buckets[2], 2u);  // {2, 3}
}

TEST(Histogram, EdgeValues) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("edge");
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);  // empty
  h.Observe(0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);  // bucket 0 holds {0}
  h.Observe(1);
  h.Observe(1);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 1u);
  EXPECT_EQ(h.Count(), 3u);
}

TEST(Histogram, EmptyHistogramPercentilesAllZero) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("empty");
  for (double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.ValueAtQuantile(q), 0u) << "q=" << q;
  }
  obs::HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.sum, 0u);
  EXPECT_EQ(stats.max, 0u);
  EXPECT_EQ(stats.p50, 0u);
  EXPECT_EQ(stats.p99, 0u);
}

TEST(Histogram, SingleSampleAnswersEveryQuantile) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("single");
  h.Observe(42);
  // One sample occupies one bucket; every quantile resolves to that
  // bucket and clamps to the observed max — the sample itself.
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.ValueAtQuantile(q), 42u) << "q=" << q;
  }
  EXPECT_EQ(h.Max(), 42u);
  EXPECT_EQ(h.Sum(), 42u);
  obs::HistogramStats stats = h.Stats();
  EXPECT_EQ(stats.p50, 42u);
  EXPECT_EQ(stats.p99, 42u);
}

TEST(Histogram, OverflowBucketHoldsHugeValues) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("huge");
  h.Observe(UINT64_MAX);
  h.Observe(uint64_t{1} << 63);
  // Both land in the last bucket (bit_width 64); quantiles clamp to the
  // observed max instead of reporting the bucket's notional bound.
  obs::HistogramStats stats = h.Stats();
  ASSERT_EQ(stats.buckets.size(),
            static_cast<size_t>(obs::Histogram::kBuckets));
  EXPECT_EQ(stats.buckets[obs::Histogram::kBuckets - 1], 2u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), UINT64_MAX);
  EXPECT_EQ(h.Max(), UINT64_MAX);
  // Sum saturates arithmetic-wise (wraps mod 2^64) but count stays
  // exact — the report's derived mean is best-effort at this extreme.
  EXPECT_EQ(h.Count(), 2u);
}

TEST(MetricsSnapshot, DeltaSinceSubtractsCounters) {
  obs::MetricsRegistry registry;
  registry.counter("a").Add(5);
  registry.gauge("g").Set(1.0);
  obs::MetricsSnapshot before = registry.Snapshot();
  registry.counter("a").Add(3);
  registry.counter("fresh").Add(2);
  registry.gauge("g").Set(2.5);
  registry.histogram("h").Observe(4);
  obs::MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("a"), 3u);
  EXPECT_EQ(delta.CounterValue("fresh"), 2u);
  EXPECT_EQ(delta.CounterValue("absent"), 0u);
  EXPECT_DOUBLE_EQ(delta.gauges.at("g"), 2.5);  // gauges stay current
  EXPECT_EQ(delta.histograms.at("h").count, 1u);
}

TEST(MetricsSnapshot, DeltaSinceSubtractsHistogramsBucketWise) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("lat");
  obs::Histogram& idle = registry.histogram("idle");
  // Run 1: a thousand large samples push the cumulative p50 to 511.
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  idle.Observe(74);
  obs::MetricsSnapshot before = registry.Snapshot();
  // Run 2: three tiny samples. Without bucket-wise subtraction the
  // delta would report run 1's quantiles (cross-run contamination).
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  obs::MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);
  const obs::HistogramStats& stats = delta.histograms.at("lat");
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.sum, 6u);
  // Quantiles recomputed over this run's 3 samples only (rank
  // max(1, floor(q*n)): p50 -> rank 1 -> bucket {1}); without
  // bucket-wise subtraction they'd still report run 1's p50 of 511.
  EXPECT_EQ(stats.p50, 1u);
  EXPECT_EQ(stats.p99, 3u);
  // The max is bounded by the top of the highest non-empty bucket
  // ({2, 3}), not the cumulative 1000.
  EXPECT_EQ(stats.max, 3u);
  // A histogram that took no sample in the interval reports max 0.
  const obs::HistogramStats& quiet = delta.histograms.at("idle");
  EXPECT_EQ(quiet.count, 0u);
  EXPECT_EQ(quiet.max, 0u);
}

TEST(MetricsRegistry, ResetZeroesInstrumentsKeepsHandles) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("c");
  obs::Histogram& histogram = registry.histogram("h");
  counter.Add(7);
  histogram.Observe(100);
  registry.Reset();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_EQ(histogram.Sum(), 0u);
  EXPECT_EQ(histogram.ValueAtQuantile(0.5), 0u);
  counter.Add(2);  // the handle survives the reset
  EXPECT_EQ(registry.Snapshot().CounterValue("c"), 2u);
}

TEST(MetricsSnapshot, JsonRoundTripsThroughParser) {
  obs::MetricsRegistry registry;
  registry.counter("cache.hits").Add(7);
  registry.gauge("intern.resident_nodes").Set(4096.0);
  for (uint64_t v = 1; v <= 1000; ++v) {
    registry.histogram("summary.function_micros").Observe(v);
  }
  auto parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* hits = counters->Find("cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_DOUBLE_EQ(hits->number(), 7.0);
  const JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("intern.resident_nodes")->number(),
                   4096.0);
  const JsonValue* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* micros = histograms->Find("summary.function_micros");
  ASSERT_NE(micros, nullptr);
  EXPECT_DOUBLE_EQ(micros->Find("count")->number(), 1000.0);
  EXPECT_DOUBLE_EQ(micros->Find("p50")->number(), 511.0);
  EXPECT_DOUBLE_EQ(micros->Find("p90")->number(), 1000.0);
  EXPECT_DOUBLE_EQ(micros->Find("p95")->number(), 1000.0);
  EXPECT_DOUBLE_EQ(micros->Find("p99")->number(), 1000.0);
}

// -------------------------------------------------------------------- log

struct CapturedLog {
  std::vector<std::pair<obs::LogLevel, std::string>> records;
};

void CaptureSink(obs::LogLevel level, std::string_view component,
                 std::string_view message, void* user) {
  auto* captured = static_cast<CapturedLog*>(user);
  captured->records.push_back(
      {level, std::string(component) + ": " + std::string(message)});
}

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetLogSink(&CaptureSink, &captured_);
    saved_level_ = obs::GetLogLevel();
  }
  void TearDown() override {
    obs::SetLogSink(nullptr, nullptr);
    obs::SetLogLevel(saved_level_);
  }
  CapturedLog captured_;
  obs::LogLevel saved_level_ = obs::LogLevel::kWarn;
};

TEST_F(LogTest, ParseLogLevel) {
  obs::LogLevel level = obs::LogLevel::kError;
  EXPECT_TRUE(obs::ParseLogLevel("debug", &level));
  EXPECT_EQ(level, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::ParseLogLevel("warn", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);  // untouched on failure
  EXPECT_EQ(obs::LogLevelName(obs::LogLevel::kInfo), "info");
}

TEST_F(LogTest, ThresholdFiltersRecords) {
  obs::SetLogLevel(obs::LogLevel::kWarn);
  DTAINT_LOG(obs::LogLevel::kError, "t", "e%d", 1);
  DTAINT_LOG(obs::LogLevel::kWarn, "t", "w");
  DTAINT_LOG(obs::LogLevel::kInfo, "t", "dropped");
  DTAINT_LOG(obs::LogLevel::kDebug, "t", "dropped");
  ASSERT_EQ(captured_.records.size(), 2u);
  EXPECT_EQ(captured_.records[0].second, "t: e1");
  EXPECT_EQ(captured_.records[1].first, obs::LogLevel::kWarn);

  obs::SetLogLevel(obs::LogLevel::kDebug);
  DTAINT_LOG(obs::LogLevel::kDebug, "t", "now visible");
  ASSERT_EQ(captured_.records.size(), 3u);
  EXPECT_EQ(captured_.records[2].second, "t: now visible");
}

int g_side_effects = 0;
int SideEffect() { return ++g_side_effects; }

TEST_F(LogTest, DisabledStatementDoesNotEvaluateArguments) {
  obs::SetLogLevel(obs::LogLevel::kError);
  g_side_effects = 0;
  DTAINT_LOG(obs::LogLevel::kDebug, "t", "%d", SideEffect());
  EXPECT_EQ(g_side_effects, 0);
  DTAINT_LOG(obs::LogLevel::kError, "t", "%d", SideEffect());
  EXPECT_EQ(g_side_effects, 1);
}

// -------------------------------------------------------------- thread id

/// Forks a child that reports its own ThreadId() and that of a thread
/// it starts. Empty if the fork or the report failed.
std::vector<uint32_t> ForkedChildThreadIds() {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    uint32_t ids[2] = {obs::ThreadId(), 0};
    std::thread([&ids] { ids[1] = obs::ThreadId(); }).join();
    bool sent = ::write(fds[1], ids, sizeof(ids)) == sizeof(ids);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  std::vector<uint32_t> ids(2);
  ssize_t got = -1;
  int status = -1;
  if (pid > 0) {
    got = ::read(fds[0], ids.data(), 2 * sizeof(uint32_t));
    ::waitpid(pid, &status, 0);
  }
  ::close(fds[0]);
  if (got != 2 * sizeof(uint32_t) || status != 0) return {};
  return ids;
}

TEST(ThreadId, ForkedChildrenNeverReuseAnOrdinal) {
  const uint32_t parent = obs::ThreadId();
  std::vector<uint32_t> first = ForkedChildThreadIds();
  std::vector<uint32_t> second = ForkedChildThreadIds();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(obs::ThreadId(), parent);
  // The forking thread and a thread started in the child each get an
  // ordinal no other thread of the process tree has.
  std::set<uint32_t> all = {parent, first[0], first[1], second[0], second[1]};
  EXPECT_EQ(all.size(), 5u);
}

// ----------------------------------------------- cache compatibility view

Binary SynthesizeSmallBinary() {
  ProgramSpec spec;
  spec.name = "obs";
  spec.arch = Arch::kDtArm;
  spec.seed = 77;
  spec.filler_functions = 12;
  PlantSpec p;
  p.id = "v";
  p.pattern = VulnPattern::kDirect;
  p.source = "getenv";
  p.sink = "system";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  EXPECT_TRUE(out.ok());
  return std::move(out->binary);
}

TEST(CacheCompatView, InterprocStatsMatchCacheStats) {
  Binary binary = SynthesizeSmallBinary();
  SummaryCache cache;  // in-memory only

  DTaintConfig config;
  config.interproc.cache = &cache;

  // Cold run: every lookup misses. The registry-backed InterprocStats
  // view must agree exactly with the cache's own legacy CacheStats.
  auto cold = DTaint(config).Analyze(binary);
  ASSERT_TRUE(cold.ok());
  CacheStats after_cold = cache.stats();
  EXPECT_EQ(cold->interproc_stats.cache_hits, after_cold.hits);
  EXPECT_EQ(cold->interproc_stats.cache_misses, after_cold.misses);
  EXPECT_GT(cold->interproc_stats.cache_misses, 0u);

  // Warm run against the same cache: the report's counters are per-run
  // deltas, the cache's are lifetime totals.
  auto warm = DTaint(config).Analyze(binary);
  ASSERT_TRUE(warm.ok());
  CacheStats after_warm = cache.stats();
  EXPECT_EQ(cold->interproc_stats.cache_hits +
                warm->interproc_stats.cache_hits,
            after_warm.hits);
  EXPECT_EQ(cold->interproc_stats.cache_misses +
                warm->interproc_stats.cache_misses,
            after_warm.misses);
  EXPECT_GT(warm->interproc_stats.cache_hits, 0u);
  EXPECT_EQ(warm->interproc_stats.cache_misses, 0u);

  // The per-run metrics delta embedded in the report agrees too.
  EXPECT_EQ(warm->metrics.CounterValue("cache.hits"),
            warm->interproc_stats.cache_hits);
  EXPECT_EQ(warm->metrics.CounterValue("cache.misses"), 0u);
}

// ------------------------------------------- on-demand alias counters

TEST(MetricsRegistry, AliasOnDemandCountersResetAndDeltaCleanly) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();

  FunctionSummary summary;
  summary.name = "f";
  DefPair fact;
  fact.d = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 0x8));
  fact.u = SymAdd(SymExpr::Sp0(), 0x40);
  summary.def_pairs.push_back(fact);

  OnDemandAliasOracle oracle;
  oracle.TwinsFor(summary);  // cold: query, no hit
  oracle.TwinsFor(summary);  // warm: query + memo hit
  obs::MetricsSnapshot warm = registry.Snapshot();
  EXPECT_EQ(warm.CounterValue("alias.ondemand.queries"), 2u);
  EXPECT_EQ(warm.CounterValue("alias.ondemand.hits"), 1u);

  // Reset() zeroes the alias counters like every other instrument;
  // a leftover total here would poison the next bench rep.
  registry.Reset();
  obs::MetricsSnapshot zeroed = registry.Snapshot();
  EXPECT_EQ(zeroed.CounterValue("alias.ondemand.queries"), 0u);
  EXPECT_EQ(zeroed.CounterValue("alias.ondemand.hits"), 0u);

  // Per-rep deltas (what the bench harness records between reps) count
  // only the rep's own queries, not the run-up before the snapshot.
  oracle.TwinsFor(summary);
  obs::MetricsSnapshot before = registry.Snapshot();
  oracle.FactsFor(summary);
  oracle.TwinsFor(summary);
  obs::MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("alias.ondemand.queries"), 2u);
  EXPECT_EQ(delta.CounterValue("alias.ondemand.hits"), 2u);
}

// ------------------------------------------------- report-level plumbing

TEST(ReportObservability, AliasOnDemandCountersArePerRunDeltas) {
  Binary binary = SynthesizeSmallBinary();
  auto first = DTaint().Analyze(binary);
  auto second = DTaint().Analyze(binary);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->metrics.CounterValue("alias.ondemand.queries"), 0u);
  // The embedded metrics are per-run deltas off the global registry:
  // two identical back-to-back runs must report identical counts, not
  // an accumulating total.
  EXPECT_EQ(second->metrics.CounterValue("alias.ondemand.queries"),
            first->metrics.CounterValue("alias.ondemand.queries"));
  EXPECT_EQ(second->metrics.CounterValue("alias.ondemand.hits"),
            first->metrics.CounterValue("alias.ondemand.hits"));
  // An alias-off run never consults the oracle.
  DTaintConfig off;
  off.enable_alias = false;
  auto no_alias = DTaint(off).Analyze(binary);
  ASSERT_TRUE(no_alias.ok());
  EXPECT_EQ(no_alias->metrics.CounterValue("alias.ondemand.queries"), 0u);
}

TEST(ReportObservability, HotFunctionsAndPathStats) {
  Binary binary = SynthesizeSmallBinary();
  DTaint detector;
  auto report = detector.Analyze(binary);
  ASSERT_TRUE(report.ok());

  // Hot-function profile: bounded, sorted descending by time, and
  // populated (the binary has > 10 functions).
  const std::vector<HotFunction>& hot = report->interproc_stats.hot_functions;
  ASSERT_FALSE(hot.empty());
  EXPECT_LE(hot.size(), 10u);
  for (size_t i = 1; i < hot.size(); ++i) {
    EXPECT_GE(hot[i - 1].seconds, hot[i].seconds);
  }

  // Path-search effort flowed into the report; the planted vuln means
  // at least one sink was visited and one path found.
  EXPECT_GT(report->pathfinder_stats.sinks_visited, 0u);
  EXPECT_GT(report->pathfinder_stats.paths_explored, 0u);
  EXPECT_GT(report->pathfinder_stats.paths_found, 0u);
  EXPECT_EQ(report->pathfinder_stats.sanitized_away,
            report->total_paths - report->vulnerable_paths);

  // Per-run metrics delta covers the pipeline phases.
  EXPECT_EQ(report->metrics.CounterValue("lift.functions"),
            report->functions);
  EXPECT_EQ(report->metrics.CounterValue("pathfind.paths_found"),
            report->pathfinder_stats.paths_found);
  auto micros = report->metrics.histograms.find("summary.function_micros");
  ASSERT_NE(micros, report->metrics.histograms.end());
  EXPECT_GT(micros->second.count, 0u);
}

// ------------------------------------------------------------------ phase

uint64_t PhaseSamples(const obs::MetricsSnapshot& delta,
                      const std::string& histogram) {
  auto it = delta.histograms.find(histogram);
  return it == delta.histograms.end() ? 0 : it->second.count;
}

TEST(Phase, OneScopeIsOneEventPairAndOneSample) {
  const std::string path = "obs_test_phase.ndjson";
  obs::EventStream& events = obs::EventStream::Global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::MetricsSnapshot before = registry.Snapshot();
  ASSERT_TRUE(events.Open(path, "obs_test"));
  double first = 0.0;
  {
    obs::Phase phase("unit");
    first = phase.Finish([](obs::Event& end) { end.Num("items", 3); });
    // Idempotent: a second Finish and the destructor record nothing.
    EXPECT_EQ(phase.Finish(), first);
  }
  events.Close("ok");
  obs::MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);

  std::ifstream in(path);
  std::string line;
  int begins = 0, ends = 0;
  while (std::getline(in, line)) {
    auto event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    std::string type = event->Find("type")->string();
    if (type == "phase_begin") {
      ++begins;
      EXPECT_EQ(event->Find("phase")->string(), "unit");
    } else if (type == "phase_end") {
      ++ends;
      EXPECT_EQ(event->Find("phase")->string(), "unit");
      EXPECT_EQ(event->Find("items")->number(), 3);
      // duration_ms carries 3 decimals: the phase's time to the µs.
      EXPECT_NEAR(event->Find("duration_ms")->number() * 1e3, first * 1e6,
                  1.0);
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);

  // The sample is the same clock reading, truncated to whole µs.
  ASSERT_EQ(PhaseSamples(delta, "phase.unit_micros"), 1u);
  EXPECT_NEAR(static_cast<double>(delta.histograms.at("phase.unit_micros").sum),
              first * 1e6, 1.0);
}

TEST(Phase, ClosedStreamRecordsOnlyTheSample) {
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_FALSE(events.enabled());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::MetricsSnapshot before = registry.Snapshot();
  uint64_t emitted = events.EventCount();
  bool formatted = false;
  {
    obs::Phase phase("quiet");
    phase.Finish([&](obs::Event&) { formatted = true; });
  }
  EXPECT_FALSE(formatted);
  EXPECT_EQ(events.EventCount(), emitted);
  EXPECT_EQ(PhaseSamples(registry.Snapshot().DeltaSince(before),
                         "phase.quiet_micros"),
            1u);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  obs::Stopwatch watch;
  EXPECT_GE(watch.Seconds(), 0.0);
  EXPECT_GE(watch.Nanos(), 0u);
  watch.Restart();
  EXPECT_GE(watch.Seconds(), 0.0);
}

}  // namespace
}  // namespace dtaint

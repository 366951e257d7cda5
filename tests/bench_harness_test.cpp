// Tests for the benchmark telemetry harness (src/obs/bench.h) and the
// BENCH document comparison engine (src/obs/benchdiff.h): schema
// round-trip through the in-repo JSON parser, median-of-N determinism
// under a scripted clock, per-rep metrics isolation, environment-block
// completeness, and the bench_diff gate semantics (regression /
// improvement / missing metric / noise floor / count drift).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/bench.h"
#include "src/obs/benchdiff.h"
#include "src/obs/metrics.h"
#include "src/util/json.h"

namespace dtaint::bench {
namespace {

/// Clock stub: each call pops the next scripted timestamp (the harness
/// reads it twice per rep, at rep start and rep end).
class ScriptedClock {
 public:
  explicit ScriptedClock(std::vector<double> times)
      : times_(std::move(times)) {}
  double operator()() {
    double t = times_.at(next_);
    ++next_;
    return t;
  }

 private:
  std::vector<double> times_;
  size_t next_ = 0;
};

// ---- schema round-trip -----------------------------------------------------

TEST(BenchHarness, JsonSchemaRoundTrip) {
  Harness harness("demo");
  obs::MetricsRegistry registry;
  harness.SetRegistryForTest(&registry);
  // Start=0, end=0.25: one rep with a deterministic quarter-second.
  harness.SetClockForTest(ScriptedClock({0.0, 0.25}));

  harness.Note("unit test");
  harness.Run("r1", [&](Rep& rep) {
    registry.counter("test.count").Add(3);
    rep.Value("findings", 7.0);
  });
  harness.AddExternalRun("micro", 1.5, {{"real_nanos", 42.0}});

  auto doc = ParseJson(harness.ToJson(true));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  EXPECT_EQ(static_cast<int>(doc->Find("schema_version")->number()),
            kBenchSchemaVersion);
  EXPECT_EQ(doc->Find("bench")->string(), "demo");
  EXPECT_TRUE(doc->Find("ok")->boolean());
  ASSERT_TRUE(doc->Find("notes")->is_array());
  EXPECT_EQ(doc->Find("notes")->array().at(0).string(), "unit test");

  const JsonValue* runs = doc->Find("runs");
  ASSERT_TRUE(runs && runs->is_array());
  ASSERT_EQ(runs->array().size(), 2u);

  const JsonValue& r1 = runs->array()[0];
  EXPECT_EQ(r1.Find("name")->string(), "r1");
  EXPECT_EQ(r1.Find("reps")->number(), 1.0);
  EXPECT_EQ(r1.Find("median_key")->string(), "wall_seconds");
  EXPECT_DOUBLE_EQ(r1.Find("wall_seconds")->number(), 0.25);
  EXPECT_DOUBLE_EQ(r1.Find("values")->Find("findings")->number(), 7.0);
  // The per-rep metrics delta rides along inside the run.
  EXPECT_EQ(r1.Find("metrics")->Find("counters")->Find("test.count")
                ->number(),
            3.0);

  const JsonValue& micro = runs->array()[1];
  EXPECT_EQ(micro.Find("name")->string(), "micro");
  EXPECT_DOUBLE_EQ(micro.Find("wall_seconds")->number(), 1.5);
  EXPECT_DOUBLE_EQ(micro.Find("values")->Find("real_nanos")->number(),
                   42.0);
}

TEST(BenchHarness, EnvBlockIsComplete) {
  EnvBlock env = CaptureEnv();
  EXPECT_FALSE(env.git_sha.empty());
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.os.empty());
  EXPECT_GE(env.cpu_count, 1u);

  // And the serialized document carries every env key.
  Harness harness("envtest");
  obs::MetricsRegistry registry;
  harness.SetRegistryForTest(&registry);
  auto doc = ParseJson(harness.ToJson(true));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* env_obj = doc->Find("env");
  ASSERT_TRUE(env_obj && env_obj->is_object());
  for (const char* key : {"git_sha", "compiler", "compiler_flags",
                          "build_type", "os", "cpu_count", "env"}) {
    EXPECT_NE(env_obj->Find(key), nullptr) << "missing env key " << key;
  }
}

// ---- median selection ------------------------------------------------------

TEST(BenchHarness, MedianOfNByWallClockIsDeterministic) {
  Harness harness("median");
  obs::MetricsRegistry registry;
  harness.SetRegistryForTest(&registry);
  // Three reps with walls 5, 1, 3 — median 3, min 1, max 5.
  harness.SetClockForTest(ScriptedClock({0, 5, 10, 11, 20, 23}));

  RunOptions opts;
  opts.reps = 3;
  const RunResult& result = harness.Run("r", opts, [](Rep&) {});
  EXPECT_DOUBLE_EQ(result.wall_seconds, 3.0);
  EXPECT_DOUBLE_EQ(result.wall_min, 1.0);
  EXPECT_DOUBLE_EQ(result.wall_max, 5.0);
}

TEST(BenchHarness, MedianByDesignatedKeyPicksWholeRep) {
  Harness harness("median");
  obs::MetricsRegistry registry;
  harness.SetRegistryForTest(&registry);
  harness.SetClockForTest(ScriptedClock({0, 1, 2, 3, 4, 5}));

  RunOptions opts;
  opts.reps = 3;
  opts.median_key = "score";
  int call = 0;
  const double scores[] = {10.0, 30.0, 20.0};
  const RunResult& result = harness.Run("r", opts, [&](Rep& rep) {
    rep.Value("score", scores[call]);
    rep.Value("probe", static_cast<double>(call));
    ++call;
  });
  // Median by score is the third rep (20) — and the result must carry
  // that rep's values wholesale, not a mix.
  EXPECT_DOUBLE_EQ(result.values.at("score"), 20.0);
  EXPECT_DOUBLE_EQ(result.values.at("probe"), 2.0);
}

TEST(BenchHarness, TiesResolveToStableOrder) {
  Harness harness("ties");
  obs::MetricsRegistry registry;
  harness.SetRegistryForTest(&registry);
  // All three reps take exactly 1s: stable sort keeps rep order, so
  // the median is rep index 1 every time.
  harness.SetClockForTest(ScriptedClock({0, 1, 2, 3, 4, 5}));
  RunOptions opts;
  opts.reps = 3;
  int call = 0;
  const RunResult& result = harness.Run("r", opts, [&](Rep& rep) {
    rep.Value("probe", static_cast<double>(call));
    ++call;
  });
  EXPECT_DOUBLE_EQ(result.values.at("probe"), 1.0);
}

TEST(BenchHarness, PerRepMetricsDeltaDoesNotAccumulate) {
  Harness harness("delta");
  obs::MetricsRegistry registry;
  harness.SetRegistryForTest(&registry);
  harness.SetClockForTest(ScriptedClock({0, 1, 2, 3, 4, 5}));

  RunOptions opts;
  opts.reps = 3;
  const RunResult& result = harness.Run("r", opts, [&](Rep&) {
    registry.counter("work.items").Add(5);
    registry.histogram("work.size").Observe(8);
  });
  // Every rep added 5 and observed one sample; the cumulative registry
  // holds 15/3 but each rep's delta must be exactly its own share.
  EXPECT_EQ(result.metrics.CounterValue("work.items"), 5u);
  EXPECT_EQ(result.metrics.histograms.at("work.size").count, 1u);
  EXPECT_EQ(registry.Snapshot().CounterValue("work.items"), 15u);
}

TEST(BenchHarness, RepsOverrideFromArgv) {
  const char* argv_c[] = {"prog", "--reps", "7"};
  Harness harness("flags", 3, const_cast<char**>(argv_c));
  EXPECT_EQ(harness.RepsFor(3), 7);
}

TEST(BenchHarness, FinishWritesParsableJson) {
  std::string path =
      testing::TempDir() + "/BENCH_finish_test.json";
  const char* argv_c[] = {"prog", "--json-out", path.c_str()};
  Harness harness("finish", 3, const_cast<char**>(argv_c));
  obs::MetricsRegistry registry;
  harness.SetRegistryForTest(&registry);
  harness.SetClockForTest(ScriptedClock({0, 1}));
  harness.Run("r", [](Rep& rep) { rep.Value("n", 1.0); });
  EXPECT_EQ(harness.Finish(true), 0);

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = ParseJson(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("bench")->string(), "finish");
  std::remove(path.c_str());
}

// ---- bench_diff gate semantics ---------------------------------------------

/// Builds a minimal schema-valid document with one run.
std::string Doc(double wall, const std::string& values_json,
                int schema_version = kBenchSchemaVersion) {
  std::ostringstream out;
  out << "{\"schema_version\":" << schema_version
      << ",\"bench\":\"b\",\"ok\":true,\"runs\":[{\"name\":\"r\","
      << "\"wall_seconds\":" << wall << ",\"values\":{" << values_json
      << "}}]}";
  return out.str();
}

DiffStatus StatusOf(const DiffReport& report, std::string_view metric) {
  for (const MetricDelta& row : report.rows) {
    if (row.metric == metric) return row.status;
  }
  ADD_FAILURE() << "no row for metric " << metric;
  return DiffStatus::kOk;
}

TEST(BenchDiff, IdenticalDocumentsPass) {
  std::string doc = Doc(1.0, "\"findings\":5");
  auto report = DiffBenchJson(doc, doc, DiffOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->HasRegression());
}

TEST(BenchDiff, TimeRegressionFailsGate) {
  auto report = DiffBenchJson(Doc(1.0, ""), Doc(2.0, ""), DiffOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(StatusOf(*report, "wall_seconds"), DiffStatus::kRegressed);
  EXPECT_TRUE(report->HasRegression());
}

TEST(BenchDiff, TimeImprovementPasses) {
  auto report = DiffBenchJson(Doc(2.0, ""), Doc(1.0, ""), DiffOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(StatusOf(*report, "wall_seconds"), DiffStatus::kImproved);
  EXPECT_FALSE(report->HasRegression());
}

TEST(BenchDiff, BelowNoiseFloorIsNotGated) {
  // 10x slower but both sides under the 20ms floor: scheduler noise.
  auto report =
      DiffBenchJson(Doc(0.001, ""), Doc(0.01, ""), DiffOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(StatusOf(*report, "wall_seconds"), DiffStatus::kBelowFloor);
  EXPECT_FALSE(report->HasRegression());
}

TEST(BenchDiff, NanosMetricsUseTheirOwnFloor) {
  DiffOptions options;
  auto below = DiffBenchJson(Doc(1.0, "\"op_nanos\":10"),
                             Doc(1.0, "\"op_nanos\":40"), options);
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(StatusOf(*below, "op_nanos"), DiffStatus::kBelowFloor);
  auto above = DiffBenchJson(Doc(1.0, "\"op_nanos\":100"),
                             Doc(1.0, "\"op_nanos\":400"), options);
  ASSERT_TRUE(above.ok());
  EXPECT_EQ(StatusOf(*above, "op_nanos"), DiffStatus::kRegressed);
}

TEST(BenchDiff, CountDriftFailsEvenWhenFast) {
  auto report = DiffBenchJson(Doc(1.0, "\"findings\":5"),
                              Doc(1.0, "\"findings\":6"), DiffOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(StatusOf(*report, "findings"), DiffStatus::kChanged);
  EXPECT_TRUE(report->HasRegression());
}

TEST(BenchDiff, InformationalMetricsNeverGate) {
  auto report =
      DiffBenchJson(Doc(1.0, "\"warm_speedup\":4.0,\"rss_mb\":10"),
                    Doc(1.0, "\"warm_speedup\":1.0,\"rss_mb\":99"),
                    DiffOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(StatusOf(*report, "warm_speedup"), DiffStatus::kInfo);
  EXPECT_EQ(StatusOf(*report, "rss_mb"), DiffStatus::kInfo);
  EXPECT_FALSE(report->HasRegression());
}

TEST(BenchDiff, MissingMetricFailsUnlessAllowed) {
  std::string base = Doc(1.0, "\"findings\":5");
  std::string cur = Doc(1.0, "");
  auto strict = DiffBenchJson(base, cur, DiffOptions{});
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(StatusOf(*strict, "findings"), DiffStatus::kMissing);
  EXPECT_TRUE(strict->HasRegression());

  DiffOptions lax;
  lax.allow_missing = true;
  auto allowed = DiffBenchJson(base, cur, lax);
  ASSERT_TRUE(allowed.ok());
  EXPECT_FALSE(allowed->HasRegression());
}

TEST(BenchDiff, NewMetricsPass) {
  auto report = DiffBenchJson(Doc(1.0, ""), Doc(1.0, "\"extra\":3"),
                              DiffOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(StatusOf(*report, "extra"), DiffStatus::kNew);
  EXPECT_FALSE(report->HasRegression());
}

/// A one-run document whose run carries `counters_json` as its
/// metrics.counters object.
std::string DocWithCounters(const std::string& counters_json) {
  std::ostringstream out;
  out << "{\"schema_version\":" << kBenchSchemaVersion
      << ",\"bench\":\"b\",\"ok\":true,\"runs\":[{\"name\":\"r\","
      << "\"wall_seconds\":1,\"values\":{},\"metrics\":{\"counters\":{"
      << counters_json << "},\"gauges\":{},\"histograms\":{}}}]}";
  return out.str();
}

TEST(BenchDiff, WorkCountersAreGatedExactly) {
  std::string base =
      DocWithCounters("\"engine.state_forks\":100,\"lift.blocks\":7");
  auto same = DiffBenchJson(base, base, DiffOptions{});
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(StatusOf(*same, "counters.engine.state_forks"), DiffStatus::kOk);
  EXPECT_FALSE(same->HasRegression());

  // One extra fork is a change in the layer's work, on any machine.
  auto drift = DiffBenchJson(
      base, DocWithCounters("\"engine.state_forks\":101,\"lift.blocks\":7"),
      DiffOptions{});
  ASSERT_TRUE(drift.ok());
  EXPECT_EQ(StatusOf(*drift, "counters.engine.state_forks"),
            DiffStatus::kChanged);
  EXPECT_EQ(StatusOf(*drift, "counters.lift.blocks"), DiffStatus::kOk);
  EXPECT_TRUE(drift->HasRegression());
}

TEST(BenchDiff, UngatedCountersAreReportedOnly) {
  ASSERT_FALSE(IsGatedCounter("intern.contended"));
  EXPECT_TRUE(IsGatedCounter("intern.nodes"));
  auto report = DiffBenchJson(DocWithCounters("\"intern.contended\":0"),
                              DocWithCounters("\"intern.contended\":9"),
                              DiffOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(StatusOf(*report, "counters.intern.contended"),
            DiffStatus::kInfo);
  EXPECT_FALSE(report->HasRegression());
}

TEST(BenchDiff, CounterMissingOnOneSideIsReported) {
  std::string both = DocWithCounters("\"link.rets_replaced\":3,"
                                     "\"pathfind.paths_found\":8");
  std::string one = DocWithCounters("\"pathfind.paths_found\":8");
  auto dropped = DiffBenchJson(both, one, DiffOptions{});
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(StatusOf(*dropped, "counters.link.rets_replaced"),
            DiffStatus::kMissing);
  EXPECT_TRUE(dropped->HasRegression());

  auto added = DiffBenchJson(one, both, DiffOptions{});
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(StatusOf(*added, "counters.link.rets_replaced"),
            DiffStatus::kNew);
  EXPECT_FALSE(added->HasRegression());

  // A run with no metrics object at all has no counters to compare.
  auto bare = DiffBenchJson(Doc(1.0, ""), Doc(1.0, ""), DiffOptions{});
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(bare->HasRegression());
}

TEST(BenchDiff, SchemaVersionMismatchIsAnError) {
  auto report = DiffBenchJson(Doc(1.0, "", kBenchSchemaVersion + 1),
                              Doc(1.0, ""), DiffOptions{});
  EXPECT_FALSE(report.ok());
}

TEST(BenchDiff, BenchNameMismatchIsAnError) {
  std::string other =
      "{\"schema_version\":1,\"bench\":\"other\",\"runs\":[]}";
  auto report = DiffBenchJson(Doc(1.0, ""), other, DiffOptions{});
  EXPECT_FALSE(report.ok());
}

TEST(BenchDiff, ClassifyMetricContract) {
  EXPECT_EQ(ClassifyMetric("wall_seconds"), MetricClass::kTimeSeconds);
  EXPECT_EQ(ClassifyMetric("summary_seconds"), MetricClass::kTimeSeconds);
  EXPECT_EQ(ClassifyMetric("real_nanos"), MetricClass::kTimeNanos);
  EXPECT_EQ(ClassifyMetric("warm_speedup"), MetricClass::kInformational);
  EXPECT_EQ(ClassifyMetric("hit_ratio"), MetricClass::kInformational);
  EXPECT_EQ(ClassifyMetric("cpu_pct"), MetricClass::kInformational);
  EXPECT_EQ(ClassifyMetric("rss_growth_mb"), MetricClass::kInformational);
  EXPECT_EQ(ClassifyMetric("findings"), MetricClass::kCount);
  EXPECT_EQ(ClassifyMetric("hits"), MetricClass::kCount);
}

TEST(BenchDiff, MarkdownTableListsRegressions) {
  auto report = DiffBenchJson(Doc(1.0, "\"findings\":5"),
                              Doc(2.5, "\"findings\":5"), DiffOptions{});
  ASSERT_TRUE(report.ok());
  std::string md = report->ToMarkdown(/*only_notable=*/true);
  EXPECT_NE(md.find("wall_seconds"), std::string::npos);
  EXPECT_NE(md.find("REGRESSED"), std::string::npos);
  // findings matched exactly — hidden in notable-only mode.
  EXPECT_EQ(md.find("findings"), std::string::npos);
}

}  // namespace
}  // namespace dtaint::bench

#include <gtest/gtest.h>

#include "src/report/json.h"
#include "src/synth/firmware_synth.h"
#include "src/util/json.h"

namespace dtaint {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonReport, EmptyReportIsWellFormed) {
  AnalysisReport report;
  report.binary_name = "empty";
  std::string json = ReportToJson(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"binary\":\"empty\""), std::string::npos);
  EXPECT_NE(json.find("\"findings\":[]"), std::string::npos);
}

TEST(JsonReport, FindingsSerializedWithHops) {
  // Real report from a synthesized vulnerable binary.
  ProgramSpec spec;
  spec.name = "j";
  spec.arch = Arch::kDtArm;
  spec.seed = 3;
  spec.filler_functions = 2;
  PlantSpec p;
  p.id = "jp";
  p.pattern = VulnPattern::kDirect;
  p.source = "getenv";
  p.sink = "system";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  DTaint detector;
  auto report = detector.Analyze(out->binary);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->findings.size(), 1u);

  std::string json = ReportToJson(*report);
  EXPECT_NE(json.find("\"class\":\"Command Injection\""),
            std::string::npos);
  EXPECT_NE(json.find("\"sink\":\"system\""), std::string::npos);
  EXPECT_NE(json.find("\"source\":\"getenv\""), std::string::npos);
  EXPECT_NE(json.find("\"function\":\"jp_handler\""), std::string::npos);
  EXPECT_NE(json.find("\"hops\":["), std::string::npos);

  // Structural sanity: balanced braces/brackets, no dangling commas.
  int depth = 0;
  bool in_string = false;
  char prev = 0;
  for (char c : json) {
    if (in_string) {
      if (c == '"' && prev != '\\') in_string = false;
    } else {
      if (c == '"') in_string = true;
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        EXPECT_NE(prev, ',') << "dangling comma";
        --depth;
      }
      EXPECT_GE(depth, 0);
    }
    prev = c;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonReport, MetricsObjectEmbedsPerRunSnapshot) {
  AnalysisReport report;
  report.binary_name = "m";
  report.metrics.counters["cache.hits"] = 7;
  report.metrics.counters["pathfind.paths_found"] = 2;
  report.metrics.gauges["intern.resident_nodes"] = 4096.0;
  obs::HistogramStats h;
  h.count = 3;
  h.sum = 30;
  h.max = 20;
  h.p50 = 15;
  h.p95 = 20;
  report.metrics.histograms["summary.function_micros"] = h;
  report.pathfinder_stats.sinks_visited = 4;
  report.pathfinder_stats.paths_explored = 9;
  report.pathfinder_stats.paths_found = 2;
  report.interproc_stats.hot_functions = {{"hot_fn", 0.25, false}};

  std::string json = ReportToJson(report);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("cache.hits")->number(), 7.0);
  EXPECT_DOUBLE_EQ(counters->Find("pathfind.paths_found")->number(), 2.0);
  EXPECT_DOUBLE_EQ(
      metrics->Find("gauges")->Find("intern.resident_nodes")->number(),
      4096.0);
  const JsonValue* histogram =
      metrics->Find("histograms")->Find("summary.function_micros");
  ASSERT_NE(histogram, nullptr);
  EXPECT_DOUBLE_EQ(histogram->Find("count")->number(), 3.0);
  EXPECT_DOUBLE_EQ(histogram->Find("p95")->number(), 20.0);

  const JsonValue* pathfinder = parsed->Find("pathfinder");
  ASSERT_NE(pathfinder, nullptr);
  EXPECT_DOUBLE_EQ(pathfinder->Find("sinks_visited")->number(), 4.0);
  EXPECT_DOUBLE_EQ(pathfinder->Find("paths_explored")->number(), 9.0);

  const JsonValue* hot = parsed->Find("hot_functions");
  ASSERT_NE(hot, nullptr);
  ASSERT_TRUE(hot->is_array());
  ASSERT_EQ(hot->array().size(), 1u);
  EXPECT_EQ(hot->array()[0].Find("name")->string(), "hot_fn");
  EXPECT_DOUBLE_EQ(hot->array()[0].Find("seconds")->number(), 0.25);
  EXPECT_EQ(hot->array()[0].Find("cached")->boolean(), false);
}

TEST(JsonReport, FullReportParsesWithRepoParser) {
  // End-to-end: a real report (findings, hops, constraints, metrics)
  // must survive the repo's own JSON parser — producer and consumer
  // cannot drift apart.
  ProgramSpec spec;
  spec.name = "rt";
  spec.arch = Arch::kDtMips;
  spec.seed = 11;
  spec.filler_functions = 3;
  PlantSpec p;
  p.id = "rt";
  p.pattern = VulnPattern::kWrapper;
  p.source = "recv";
  p.sink = "strcpy";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  auto report = DTaint().Analyze(out->binary);
  ASSERT_TRUE(report.ok());

  auto parsed = ParseJson(ReportToJson(*report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("binary")->string(), "rt");
  ASSERT_NE(parsed->Find("findings"), nullptr);
  EXPECT_EQ(parsed->Find("findings")->array().size(),
            report->findings.size());
  ASSERT_NE(parsed->Find("metrics"), nullptr);
  EXPECT_DOUBLE_EQ(
      parsed->Find("metrics")->Find("counters")->Find("lift.functions")
          ->number(),
      static_cast<double>(report->functions));
}

TEST(JsonReport, ResilienceKeysSerializedAndParseable) {
  AnalysisReport report;
  report.binary_name = "resil";
  report.complete = false;
  report.degraded_functions = 2;
  report.suppressed_findings = 1;
  report.interproc_stats.truncated_functions = 3;
  Incident inc;
  inc.binary = "resil";
  inc.phase = "summary";
  inc.detail = "fn_0001";
  inc.status = OutOfRange("analysis budget exhausted (steps)");
  inc.budget.steps = 512;
  inc.budget.states = 7;
  inc.budget.exhausted_by = BudgetExhaustion::kSteps;
  report.incidents.push_back(inc);

  auto parsed = ParseJson(ReportToJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("complete")->boolean(), false);
  const JsonValue* resilience = parsed->Find("resilience");
  ASSERT_NE(resilience, nullptr);
  EXPECT_EQ(resilience->Find("degraded_functions")->number(), 2);
  EXPECT_EQ(resilience->Find("truncated_functions")->number(), 3);
  EXPECT_EQ(resilience->Find("suppressed_findings")->number(), 1);
  const JsonValue* incidents = parsed->Find("incidents");
  ASSERT_NE(incidents, nullptr);
  ASSERT_EQ(incidents->array().size(), 1u);
  const JsonValue& first = incidents->array()[0];
  EXPECT_EQ(first.Find("phase")->string(), "summary");
  EXPECT_EQ(first.Find("detail")->string(), "fn_0001");
  EXPECT_EQ(first.Find("code")->string(), "OUT_OF_RANGE");
  ASSERT_NE(first.Find("budget"), nullptr);
  EXPECT_EQ(first.Find("budget")->Find("steps")->number(), 512);
  EXPECT_EQ(first.Find("budget")->Find("exhausted_by")->string(), "steps");
}

TEST(JsonReport, CompleteReportOmitsNoKeys) {
  // A clean report still carries complete:true and an empty incidents
  // array — consumers should not need key-presence checks.
  AnalysisReport report;
  report.binary_name = "clean";
  auto parsed = ParseJson(ReportToJson(report));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("complete")->boolean(), true);
  EXPECT_TRUE(parsed->Find("incidents")->array().empty());
  ASSERT_NE(parsed->Find("pathfinder"), nullptr);
  EXPECT_EQ(parsed->Find("pathfinder")->Find("degraded_paths")->number(),
            0);
}

TEST(JsonFindings, BareArrayMatchesReportFindings) {
  // FindingsToJson must emit exactly the "findings" array of
  // ReportToJson — differential tests rely on byte-comparability.
  ProgramSpec spec;
  spec.name = "fj";
  spec.arch = Arch::kDtArm;
  spec.seed = 5;
  spec.filler_functions = 2;
  PlantSpec p;
  p.id = "fj";
  p.pattern = VulnPattern::kDirect;
  p.source = "getenv";
  p.sink = "system";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  auto report = DTaint().Analyze(out->binary);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->findings.empty());
  std::string bare = FindingsToJson(report->findings);
  auto parsed = ParseJson(bare);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->array().size(), report->findings.size());
  EXPECT_NE(ReportToJson(*report).find(bare), std::string::npos);
}

TEST(JsonScore, RoundNumbersPresent) {
  DetectionScore score;
  score.true_positives = 3;
  score.false_negatives = 1;
  score.found_ids = {"a", "b", "c"};
  score.missed_ids = {"d"};
  std::string json = ScoreToJson(score);
  EXPECT_NE(json.find("\"true_positives\":3"), std::string::npos);
  EXPECT_NE(json.find("\"recall\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"missed\":[\"d\"]"), std::string::npos);
}

}  // namespace
}  // namespace dtaint

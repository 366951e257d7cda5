// Ablation bench (extra, not a paper table): what each DTaint design
// choice buys. Toggles pointer-alias recognition (Algorithm 1, queried
// on demand) and structure-layout similarity (§III-D) and measures
// recall over the pattern plants that exercise them; compares bottom-up
// linking time against the top-down baseline for the interprocedural
// choice.
#include <cstdio>

#include "src/baseline/naive_reachability.h"
#include "src/baseline/worklist_ddg.h"
#include "src/binary/loader.h"
#include "src/core/dtaint.h"
#include "src/obs/bench.h"
#include "src/report/scoring.h"
#include "src/report/table.h"
#include "src/synth/firmware_synth.h"
#include "src/util/strings.h"

using namespace dtaint;

namespace {

/// A binary stacked with the feature-dependent patterns.
Result<SynthOutput> FeatureProgram() {
  ProgramSpec spec;
  spec.name = "ablation";
  spec.arch = Arch::kDtArm;
  spec.seed = 77;
  spec.filler_functions = 120;
  auto plant = [](const char* id, VulnPattern pattern, const char* source,
                  const char* sink) {
    PlantSpec p;
    p.id = id;
    p.pattern = pattern;
    p.source = source;
    p.sink = sink;
    return p;
  };
  spec.plants = {
      plant("direct1", VulnPattern::kDirect, "getenv", "system"),
      plant("direct2", VulnPattern::kDirect, "recv", "memcpy"),
      plant("wrapper1", VulnPattern::kWrapper, "recv", "strcpy"),
      plant("wrapper2", VulnPattern::kWrapper, "getenv", "system"),
      plant("alias1", VulnPattern::kAliasChain, "recv", "strcpy"),
      plant("alias2", VulnPattern::kAliasChain, "recv", "memcpy"),
      plant("dispatch1", VulnPattern::kDispatch, "recv", "memcpy"),
      plant("loop1", VulnPattern::kLoopCopy, "recv", "loop"),
  };
  return SynthesizeBinary(spec);
}

/// A program whose function pointer is registered through an alias
/// created across a call boundary (VulnPattern::kCrossCallAlias): only
/// the alias oracle's view of the linked summaries resolves the
/// indirect call. Deliberately a separate program from
/// FeatureProgram() — it isolates what the oracle buys.
Result<SynthOutput> CrossCallProgram() {
  ProgramSpec spec;
  spec.name = "xcall_ab";
  spec.arch = Arch::kDtArm;
  spec.seed = 91;
  spec.filler_functions = 120;
  PlantSpec p;
  p.id = "xc1";
  p.pattern = VulnPattern::kCrossCallAlias;
  p.source = "recv";
  p.sink = "memcpy";
  PlantSpec safe = p;
  safe.id = "xs1";
  safe.sanitized = true;
  spec.plants = {p, safe};
  return SynthesizeBinary(spec);
}

struct Row {
  const char* label;
  bool alias;
  bool structsim;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("ablation_features", argc, argv);
  std::printf("=== Ablation: DTaint feature toggles ===\n\n");
  auto out = FeatureProgram();
  if (!out.ok()) {
    std::printf("synth failed: %s\n", out.status().ToString().c_str());
    return harness.Finish(false);
  }

  const Row rows[] = {
      {"full DTaint", true, true},
      {"no pointer aliasing (Alg. 1 off)", false, true},
      {"no structure similarity (S III-D off)", true, false},
      {"neither", false, false},
  };

  TextTable table({"Configuration", "TP", "FN", "Recall", "Paths",
                   "SSA (s)", "DDG (s)"});
  for (const Row& row : rows) {
    // One run per configuration: recall/path counts are deterministic,
    // the phase timings ratio-gated.
    std::string run_name = std::string("alias=") + (row.alias ? "on" : "off") +
                           ",structsim=" + (row.structsim ? "on" : "off");
    Result<AnalysisReport> report = InvalidArgument("not analyzed");
    DetectionScore score;
    harness.Run(run_name, [&](bench::Rep& rep) {
      DTaintConfig config;
      config.enable_alias = row.alias;
      config.enable_structsim = row.structsim;
      DTaint detector(config);
      report = detector.Analyze(out->binary);
      if (!report.ok()) return;
      score = ScoreFindings(report->findings, out->ground_truth);
      rep.Value("ssa_seconds", report->ssa_seconds);
      rep.Value("ddg_seconds", report->ddg_seconds);
      rep.Value("true_positives", static_cast<double>(score.true_positives));
      rep.Value("false_negatives",
                static_cast<double>(score.false_negatives));
      rep.Value("vuln_paths",
                static_cast<double>(report->vulnerable_paths));
    });
    if (!report.ok()) return harness.Finish(false);
    table.AddRow({row.label, std::to_string(score.true_positives),
                  std::to_string(score.false_negatives),
                  FmtDouble(score.Recall(), 2),
                  std::to_string(report->vulnerable_paths),
                  FmtDouble(report->ssa_seconds, 2),
                  FmtDouble(report->ddg_seconds, 3)});
  }
  std::printf("%s\n", table.Render().c_str());

  // The cross-call-alias program, alias on vs off: detection there is
  // what the oracle's linked-summary view buys.
  std::printf("=== Cross-call alias: alias on vs off ===\n\n");
  auto xcall = CrossCallProgram();
  if (!xcall.ok()) {
    std::printf("synth failed: %s\n", xcall.status().ToString().c_str());
    return harness.Finish(false);
  }
  TextTable xcall_table({"Alias", "TP", "FN", "Icalls resolved",
                         "Summary (s)", "Oracle queries"});
  for (bool alias : {true, false}) {
    const char* label = alias ? "on" : "off";
    Result<AnalysisReport> report = InvalidArgument("not analyzed");
    DetectionScore score;
    harness.Run(std::string("crosscall,alias=") + label, [&](bench::Rep& rep) {
      DTaintConfig config;
      config.enable_alias = alias;
      report = DTaint(config).Analyze(xcall->binary);
      if (!report.ok()) return;
      score = ScoreFindings(report->findings, xcall->ground_truth);
      rep.Value("summary_seconds", report->interproc_stats.summary_seconds);
      rep.Value("true_positives", static_cast<double>(score.true_positives));
      rep.Value("false_negatives",
                static_cast<double>(score.false_negatives));
      rep.Value("icalls_resolved",
                static_cast<double>(report->indirect_calls_resolved));
      rep.Value("oracle_queries",
                static_cast<double>(
                    report->metrics.CounterValue("alias.ondemand.queries")));
    });
    if (!report.ok()) return harness.Finish(false);
    xcall_table.AddRow(
        {label, std::to_string(score.true_positives),
         std::to_string(score.false_negatives),
         std::to_string(report->indirect_calls_resolved),
         FmtDouble(report->interproc_stats.summary_seconds, 3),
         std::to_string(
             report->metrics.CounterValue("alias.ondemand.queries"))});
  }
  std::printf("%s\n", xcall_table.Render().c_str());

  // Bottom-up vs top-down interprocedural traversal.
  CfgBuilder builder(out->binary);
  Program program = std::move(*builder.BuildProgram());
  BaselineStats baseline;
  harness.Run("topdown_baseline", [&](bench::Rep& rep) {
    baseline = RunWorklistDdg(program, {"main"});
    rep.Value("contexts", static_cast<double>(baseline.contexts_analyzed));
  });
  std::printf("interprocedural traversal: bottom-up analyzes each of the "
              "%zu functions once;\n  top-down worklist analyzed %zu "
              "(function, context) pairs in %.2f s\n\n",
              program.functions.size(), baseline.contexts_analyzed,
              baseline.seconds);

  // Precision value of data flow: the naive call-graph-reachability
  // scanner flags every sink co-reachable with a source — including
  // the sanitized twin and every incidental safe sink.
  std::vector<NaiveFinding> naive = NaiveReachabilityScan(program);
  std::vector<Finding> as_findings;
  for (const NaiveFinding& nf : naive) {
    Finding f;
    f.path.sink_function = nf.sink_function;
    f.path.sink_name = nf.sink;
    f.path.sink_site = nf.sink_site;
    f.path.source_name = nf.source;
    f.path.vuln_class = nf.vuln_class;
    as_findings.push_back(std::move(f));
  }
  DetectionScore naive_score = ScoreFindings(as_findings, out->ground_truth);
  DTaint full;
  auto full_report = full.Analyze(out->binary);
  DetectionScore dtaint_score =
      ScoreFindings(full_report->findings, out->ground_truth);
  std::printf("precision vs the naive reachability scanner ('grep with a "
              "call graph'):\n");
  TextTable prec({"Detector", "Flagged", "TP", "FP+twin", "Precision",
                  "Recall"});
  prec.AddRow({"naive reachability", std::to_string(naive.size()),
               std::to_string(naive_score.true_positives),
               std::to_string(naive_score.false_positives +
                              naive_score.safe_twin_hits),
               FmtDouble(naive_score.Precision(), 2),
               FmtDouble(naive_score.Recall(), 2)});
  prec.AddRow({"DTaint", std::to_string(full_report->findings.size()),
               std::to_string(dtaint_score.true_positives),
               std::to_string(dtaint_score.false_positives +
                              dtaint_score.safe_twin_hits),
               FmtDouble(dtaint_score.Precision(), 2),
               FmtDouble(dtaint_score.Recall(), 2)});
  std::printf("%s", prec.Render().c_str());
  harness.AddExternalRun(
      "precision_vs_naive", 0.0,
      {{"naive_flagged", static_cast<double>(naive.size())},
       {"naive_true_positives",
        static_cast<double>(naive_score.true_positives)},
       {"dtaint_flagged",
        static_cast<double>(full_report->findings.size())},
       {"dtaint_true_positives",
        static_cast<double>(dtaint_score.true_positives)}});
  return harness.Finish(true);
}

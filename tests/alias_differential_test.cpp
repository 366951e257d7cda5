// Differential oracle for the on-demand alias oracle.
//
// The reference model materializes every alias twin up front: it
// summarizes, links, resolves indirect calls and relinks exactly like
// the detector, then appends Algorithm 1's twins
// (ComputeAliasTwins(CollectAliasFacts(s))) to every *linked* summary
// and runs the path search with no oracle. The detector never
// materializes twins; its path walk asks the oracle for them at each
// taint-transfer site. Its findings must equal the model's on the
// standard pattern corpus, at any thread count, cold or warm cache.
//
// On the cross-call-alias family (VulnPattern::kCrossCallAlias) alias
// recognition must pay for itself: the indirect call through
// container->ctx->handler is resolvable only through alias twins of
// the *linked* entry summary, so the alias-off run finds nothing there
// while the alias-on run finds the planted vulnerability and stays
// silent on its sanitized twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/cache/summary_cache.h"
#include "src/core/alias.h"
#include "src/core/dtaint.h"
#include "src/report/json.h"
#include "src/report/scoring.h"
#include "src/synth/firmware_synth.h"
#include "tests/testing/plant_corpus.h"

namespace dtaint {
namespace {

/// 20 synthesized binaries (10 seeds x 2 architectures).
std::vector<Binary> BuildCorpus() {
  return testing_util::PlantCorpus("afw", 700, 10, 12);
}

/// The reference model's findings (see file comment), serialized like
/// the detector's.
std::string ModelFindings(const Binary& binary) {
  CfgBuilder builder(binary);
  auto program = builder.BuildProgram();
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return std::string();
  SymEngine engine(binary);
  InterprocConfig config;
  CallGraph graph = CallGraph::Build(*program);
  ProgramAnalysis analysis =
      Link(*program, graph, Summarize(*program, graph, engine, config),
           config);
  if (!ResolveIndirectCalls(*program, analysis.summaries,
                            analysis.alias_oracle.get())
           .empty()) {
    analysis = Link(*program, CallGraph::Build(*program),
                    Unlink(std::move(analysis)), config);
  }
  for (auto& [name, summary] : analysis.summaries) {
    std::vector<DefPair> twins =
        ComputeAliasTwins(summary, CollectAliasFacts(summary));
    summary.def_pairs.insert(summary.def_pairs.end(), twins.begin(),
                             twins.end());
  }
  analysis.alias_oracle = nullptr;
  PathFinder finder(*program, analysis);
  std::vector<Finding> findings;
  for (TaintPath& path : FilterVulnerable(finder.FindAll())) {
    if (!path.crossed_degraded) findings.push_back({std::move(path)});
  }
  return FindingsToJson(findings);
}

Result<AnalysisReport> Analyze(const Binary& binary, bool alias = true,
                               int num_threads = 1,
                               SummaryCache* cache = nullptr) {
  DTaintConfig config;
  config.enable_alias = alias;
  config.interproc.num_threads = num_threads;
  config.interproc.cache = cache;
  return DTaint(config).Analyze(binary);
}

/// The detector's findings with alias on.
std::string Findings(const Binary& binary, int num_threads = 1,
                     SummaryCache* cache = nullptr) {
  auto report = Analyze(binary, true, num_threads, cache);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? FindingsToJson(report->findings) : std::string();
}

// ---------- the oracle: standard corpus, detector equals the model ---------

TEST(AliasDifferential, FindingsMatchTheModel) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_EQ(corpus.size(), 20u);
  size_t with_findings = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string model = ModelFindings(corpus[i]);
    ASSERT_FALSE(model.empty());
    if (model != "[]") ++with_findings;
    EXPECT_EQ(Findings(corpus[i]), model)
        << "detector diverged from the model on corpus[" << i << "]";
  }
  // The comparison is not vacuous.
  EXPECT_GT(with_findings, corpus.size() / 2);
}

TEST(AliasDifferential, MatchesTheModelAtEveryThreadCount) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_EQ(corpus.size(), 20u);
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string model = ModelFindings(corpus[i]);
    for (int threads : {2, 8}) {
      EXPECT_EQ(Findings(corpus[i], threads), model)
          << "corpus[" << i << "] at num_threads=" << threads;
    }
  }
}

TEST(AliasDifferential, MatchesTheModelWithColdAndWarmCache) {
  // One shared in-memory cache: the first pass over the corpus fills
  // it, the second is served from it.
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_EQ(corpus.size(), 20u);
  SummaryCache cache;
  for (const char* pass : {"cold", "warm"}) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(Findings(corpus[i], 1, &cache), ModelFindings(corpus[i]))
          << "corpus[" << i << "], " << pass << " cache";
    }
  }
}

// ---------- the family alias recognition exists for -----------------------

std::vector<SynthOutput> BuildCrossCallFamily() {
  std::vector<SynthOutput> family;
  int seed = 0;
  for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
    ProgramSpec spec;
    spec.name = "xcall" + std::to_string(seed);
    spec.arch = arch;
    spec.seed = 800 + static_cast<uint64_t>(seed);
    spec.filler_functions = 14;
    PlantSpec vuln;
    vuln.id = "xc" + std::to_string(seed);
    vuln.pattern = VulnPattern::kCrossCallAlias;
    vuln.source = "recv";
    vuln.sink = "memcpy";
    spec.plants.push_back(vuln);
    PlantSpec safe = vuln;
    safe.id = "xs" + std::to_string(seed);
    safe.sanitized = true;
    spec.plants.push_back(safe);
    auto out = SynthesizeBinary(spec);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (out.ok()) family.push_back(std::move(*out));
    ++seed;
  }
  return family;
}

std::multiset<std::string> FindingKeys(const AnalysisReport& report) {
  std::multiset<std::string> keys;
  for (const Finding& f : report.findings) keys.insert(f.Summary());
  return keys;
}

TEST(AliasDifferential, CrossCallAliasFamilyNeedsAlias) {
  std::vector<SynthOutput> family = BuildCrossCallFamily();
  ASSERT_EQ(family.size(), 2u);
  for (size_t i = 0; i < family.size(); ++i) {
    auto off = Analyze(family[i].binary, /*alias=*/false);
    auto on = Analyze(family[i].binary);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    ASSERT_TRUE(on.ok()) << on.status().ToString();

    // Superset: every alias-off finding appears in the alias-on report.
    std::multiset<std::string> off_keys = FindingKeys(*off);
    std::multiset<std::string> on_keys = FindingKeys(*on);
    EXPECT_TRUE(std::includes(on_keys.begin(), on_keys.end(),
                              off_keys.begin(), off_keys.end()))
        << "family[" << i << "]: alias on lost an alias-off finding";

    // Both registration stores (the plant's and its sanitized twin's)
    // resolve only through the oracle.
    EXPECT_EQ(off->indirect_calls_resolved, 0u) << "family[" << i << "]";
    EXPECT_EQ(on->indirect_calls_resolved, 2u) << "family[" << i << "]";

    DetectionScore off_score =
        ScoreFindings(off->findings, family[i].ground_truth);
    DetectionScore on_score =
        ScoreFindings(on->findings, family[i].ground_truth);
    EXPECT_EQ(off_score.true_positives, 0u)
        << "family[" << i << "]: alias off resolved the cross-call "
        << "registration";
    EXPECT_GE(on_score.true_positives, 1u)
        << "family[" << i << "]: alias on missed the planted vuln";
    EXPECT_EQ(on_score.safe_twin_hits, 0u)
        << "family[" << i << "]: sanitized twin fired";

    EXPECT_EQ(FindingsToJson(on->findings),
              ModelFindings(family[i].binary))
        << "family[" << i << "]: detector diverged from the model";
  }
}

TEST(AliasDifferential, CrossCallFamilyIsDeterministicAcrossThreads) {
  std::vector<SynthOutput> family = BuildCrossCallFamily();
  ASSERT_FALSE(family.empty());
  const Binary& binary = family[0].binary;
  auto normalized = [&](int threads) {
    auto report = Analyze(binary, true, threads);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? testing_util::NormalizedJson(std::move(*report))
                       : std::string();
  };
  std::string reference = normalized(1);
  ASSERT_FALSE(reference.empty());
  for (int threads : {2, 8}) {
    EXPECT_EQ(normalized(threads), reference) << "num_threads=" << threads;
  }
}

}  // namespace
}  // namespace dtaint

// Differential oracle for the function-summary cache and the threaded
// intraprocedural phase.
//
// The cache is only admissible if it is *invisible*: for any input, the
// full analysis report (findings, def-pair propagation counts, path
// counts — everything except wall-clock timings and the cache's own
// counters) must be byte-identical whether the analysis ran cold,
// entirely from a warm cache, or against a cache whose on-disk entries
// were deliberately corrupted (forcing recovery-by-recompute). The same
// bar applies to `InterprocConfig::num_threads`: any thread count must
// produce the same bytes as the sequential run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/cache/summary_cache.h"
#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "src/report/json.h"
#include "src/synth/firmware_synth.h"

namespace dtaint {
namespace {

namespace fs = std::filesystem;

/// 20 synthesized firmware binaries (10 seeds x 2 architectures)
/// rotating through all five plant patterns, half with a sanitized
/// twin so reports contain both findings and their absence.
std::vector<Binary> BuildCorpus() {
  std::vector<Binary> corpus;
  for (int seed = 0; seed < 10; ++seed) {
    for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
      ProgramSpec spec;
      spec.name = "fw" + std::to_string(seed);
      spec.arch = arch;
      spec.seed = 100 + static_cast<uint64_t>(seed);
      spec.filler_functions = 15 + seed;
      PlantSpec p;
      p.id = "v" + std::to_string(seed);
      p.pattern = static_cast<VulnPattern>(seed % 5);
      p.source = (p.pattern == VulnPattern::kDispatch ||
                  p.pattern == VulnPattern::kLoopCopy ||
                  p.pattern == VulnPattern::kAliasChain)
                     ? "recv"
                     : "getenv";
      p.sink = p.pattern == VulnPattern::kLoopCopy
                   ? "loop"
                   : (p.pattern == VulnPattern::kDispatch ? "memcpy"
                                                          : "system");
      spec.plants.push_back(p);
      if (seed % 2) {
        PlantSpec safe = p;
        safe.id = "s" + std::to_string(seed);
        safe.sanitized = true;
        spec.plants.push_back(safe);
      }
      auto out = SynthesizeBinary(spec);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      if (out.ok()) corpus.push_back(std::move(out->binary));
    }
  }
  return corpus;
}

/// Serializes a report with the run-dependent fields (timings, cache
/// counters, per-run metrics, the timing-ordered hot-function profile)
/// zeroed; everything else must survive byte comparison. Note
/// PathFinderStats is NOT cleared: path-search effort is deterministic
/// and must itself be identical cold vs warm.
std::string NormalizedJson(AnalysisReport report) {
  report.ssa_seconds = 0.0;
  report.ddg_seconds = 0.0;
  report.total_seconds = 0.0;
  report.interproc_stats.summary_seconds = 0.0;
  report.interproc_stats.cache_hits = 0;
  report.interproc_stats.cache_misses = 0;
  report.interproc_stats.cache_evictions = 0;
  report.interproc_stats.cache_memory_bytes = 0;
  report.interproc_stats.hot_functions.clear();
  report.hot_functions.clear();
  report.metrics = obs::MetricsSnapshot{};
  return ReportToJson(report);
}

std::string AnalyzeNormalized(const Binary& binary,
                              SummaryCache* cache = nullptr,
                              int num_threads = 1) {
  DTaintConfig config;
  config.interproc.cache = cache;
  config.interproc.num_threads = num_threads;
  auto report = DTaint(config).Analyze(binary);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? NormalizedJson(*report) : std::string();
}

void CorruptEveryEntry(const fs::path& dir) {
  size_t corrupted = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".dtsc") continue;
    std::vector<uint8_t> bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 3] ^= 0xA5;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);
}

// ---------- the oracle -------------------------------------------------------

TEST(CacheDifferential, ColdWarmAndCorruptedRunsAreByteIdentical) {
  fs::path dir = "cache_diff_disk";
  fs::remove_all(dir);
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 20u);

  // Reference: cache disabled entirely.
  std::vector<std::string> cold;
  for (const Binary& binary : corpus) {
    cold.push_back(AnalyzeNormalized(binary));
    ASSERT_FALSE(cold.back().empty());
  }

  CacheConfig cache_config;
  cache_config.disk_dir = dir.string();

  // Populating run: misses store entries.
  {
    SummaryCache cache(cache_config);
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(AnalyzeNormalized(corpus[i], &cache), cold[i])
          << "populating run diverged on corpus[" << i << "]";
    }
    EXPECT_GT(cache.stats().stores, 0u);
  }

  // Warm run: a fresh process-equivalent (new cache instance, empty
  // memory tier) must serve every single function from disk — which
  // also proves decode(encode(x)) is analysis-equivalent to x — and,
  // every summary being a hit, must not lift a single function's IR.
  {
    SummaryCache cache(cache_config);
    obs::Counter& lifted =
        obs::MetricsRegistry::Global().counter("lift.ir_functions");
    uint64_t lifted_before = lifted.Value();
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(AnalyzeNormalized(corpus[i], &cache), cold[i])
          << "warm run diverged on corpus[" << i << "]";
    }
    EXPECT_EQ(lifted.Value() - lifted_before, 0u);
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.disk_hits, 0u);
    EXPECT_EQ(stats.corrupt_entries, 0u);
  }

  // Corrupted run: every on-disk entry is damaged; the cache must
  // detect each one, recompute, and still produce identical bytes.
  {
    CorruptEveryEntry(dir);
    SummaryCache cache(cache_config);
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(AnalyzeNormalized(corpus[i], &cache), cold[i])
          << "corrupted-cache run diverged on corpus[" << i << "]";
    }
    EXPECT_GT(cache.stats().corrupt_entries, 0u);
  }

  fs::remove_all(dir);
}

// ---------- thread-count determinism ----------------------------------------

TEST(CacheDifferential, ThreadCountNeverChangesSummaries) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const Binary& binary = corpus[i * 5];
    CfgBuilder builder(binary);
    auto program = builder.BuildProgram();
    ASSERT_TRUE(program.ok());
    SymEngine engine(binary);
    CallGraph graph = CallGraph::Build(*program);

    // Baseline: sequential summaries, serialized.
    InterprocConfig sequential;
    ProgramAnalysis base = RunBottomUp(*program, graph, engine, sequential);

    for (int threads : {2, 8}) {
      InterprocConfig parallel_config;
      parallel_config.num_threads = threads;
      ProgramAnalysis parallel_result =
          RunBottomUp(*program, graph, engine, parallel_config);
      ASSERT_EQ(parallel_result.summaries.size(), base.summaries.size());
      for (const auto& [name, summary] : base.summaries) {
        auto it = parallel_result.summaries.find(name);
        ASSERT_NE(it, parallel_result.summaries.end()) << name;
        EXPECT_EQ(EncodeSummary(it->second), EncodeSummary(summary))
            << name << " differs at num_threads=" << threads;
      }
    }
  }
}

TEST(CacheDifferential, ThreadsShareOneCacheSafely) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_GE(corpus.size(), 6u);
  SummaryCache cache;  // memory-only, shared across all runs
  for (size_t i = 0; i < 6; ++i) {
    std::string reference = AnalyzeNormalized(corpus[i]);
    EXPECT_EQ(AnalyzeNormalized(corpus[i], &cache, /*num_threads=*/8),
              reference)
        << "corpus[" << i << "]";
  }
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(CacheDifferential, AbsurdThreadCountIsClampedNotFatal) {
  // Regression: num_threads far beyond the function count used to ask
  // the OS for that many threads; the pool is now clamped to the number
  // of work items, so this must both survive and stay deterministic.
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_FALSE(corpus.empty());
  std::string reference = AnalyzeNormalized(corpus[0]);
  EXPECT_EQ(AnalyzeNormalized(corpus[0], nullptr, /*num_threads=*/10000),
            reference);
}

}  // namespace
}  // namespace dtaint

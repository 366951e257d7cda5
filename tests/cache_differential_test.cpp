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
#include <string>
#include <vector>

#include "src/cache/summary_cache.h"
#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "tests/testing/pack_files.h"
#include "tests/testing/plant_corpus.h"

namespace dtaint {
namespace {

namespace fs = std::filesystem;

/// 20 synthesized firmware binaries (10 seeds x 2 architectures).
std::vector<Binary> BuildCorpus() {
  return testing_util::PlantCorpus("fw", 100, 10, 15);
}

using testing_util::NormalizedJson;

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

/// Flips a byte inside every blob of every pack, so each disk copy
/// fails to decode. Returns the number of blobs damaged.
size_t CorruptEveryEntry(const fs::path& dir) {
  size_t corrupted = 0;
  for (const fs::path& pack : testing_util::PackFiles(dir)) {
    std::vector<uint8_t> bytes = testing_util::ReadBytes(pack);
    for (const testing_util::PackBlob& blob : testing_util::PackBlobs(bytes)) {
      bytes[blob.offset + blob.length / 3] ^= 0xA5;
      ++corrupted;
    }
    testing_util::WriteBytes(pack, bytes);
  }
  return corrupted;
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
  // One pack per binary that stored anything.
  EXPECT_GT(testing_util::PackFiles(dir).size(), 0u);
  EXPECT_LE(testing_util::PackFiles(dir).size(), corpus.size());

  // Warm run: a fresh process-equivalent (new cache instance, nothing
  // queued) must serve every single function from disk — which
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
    ASSERT_GT(CorruptEveryEntry(dir), 0u);
    SummaryCache cache(cache_config);
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(AnalyzeNormalized(corpus[i], &cache), cold[i])
          << "corrupted-cache run diverged on corpus[" << i << "]";
    }
    CacheStats stats = cache.stats();
    EXPECT_GT(stats.corrupt_entries, 0u);
    // Every disk lookup found a damaged copy: none served.
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_EQ(stats.corrupt_entries, stats.misses);
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

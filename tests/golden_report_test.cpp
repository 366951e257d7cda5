// Golden-digest oracle for analysis reports and summary-codec bytes.
//
// The analysis must be a pure function of its input binary: the
// normalized report (everything except wall-clock timings, cache
// counters and per-run metrics) has to be byte-identical at any
// thread count and with a cold or a warm summary cache — including a
// cache filled by an alias-off scan; and every function summary has to
// encode to the same
// EncodeSummary bytes, because the persistent cache is keyed and
// compared by them. Those values are pinned here as 64-bit FNV-1a
// digests recorded from the implementation, so any change to what the
// engine computes — or to how it encodes it — shows up as a digest
// mismatch. A mismatch prints the replacement table line; update the
// table only for an intended change of analysis output, never to
// paper over a config that disagrees with the others (that is a
// determinism bug).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/cache/summary_cache.h"
#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "src/util/hash.h"
#include "tests/testing/plant_corpus.h"

namespace dtaint {
namespace {

struct GoldenEntry {
  const char* name;
  uint64_t report;  // normalized report
  uint64_t codec;   // every (function name, EncodeSummary blob)
};

// clang-format off
const GoldenEntry kGolden[] = {
    {"ifw0/ARM", 0x2aa94087a6509d82ull, 0x1d2a1e217db87d20ull},
    {"ifw0/MIPS", 0xfeb9bd7c4e026431ull, 0xb1714387f9492bd4ull},
    {"ifw1/ARM", 0xb68c1e6059297596ull, 0xc3cd3754e058b121ull},
    {"ifw1/MIPS", 0xda7dbf18137b9b85ull, 0x1a2eeea120983007ull},
    {"ifw2/ARM", 0x5d73bd2b370186d8ull, 0x74a0cf31dfc02537ull},
    {"ifw2/MIPS", 0x7fd3fc28ce8853e1ull, 0x2e110192900384c6ull},
    {"ifw3/ARM", 0x51127c22fd4408f0ull, 0x80d09d3d8736c0c1ull},
    {"ifw3/MIPS", 0xeb907788ccb323ffull, 0x0c259f5dc91befbbull},
    {"ifw4/ARM", 0x6de37c7e214b8e78ull, 0xc607b717b9e316ecull},
    {"ifw4/MIPS", 0xc1782c16b3491995ull, 0x3fdc7f3ef7a892deull},
    {"sfw0/ARM", 0xab8efdae91dc94c2ull, 0x4f2afc3e00ac7daaull},
    {"sfw0/MIPS", 0xa694060c803ac3ebull, 0x6907c2946759a5f9ull},
    {"sfw1/ARM", 0x355072824fd5d63cull, 0x5378eec2b163f697ull},
    {"sfw1/MIPS", 0x809d719bc976f9a5ull, 0xca558cec96d1c941ull},
    {"sfw2/ARM", 0x9748aab8564265bcull, 0x1b65eb970b1276eeull},
    {"sfw2/MIPS", 0x8ab0b4ceb261ff93ull, 0x38881cce98292af2ull},
    {"sfw3/ARM", 0xce8218a329378740ull, 0xbe071ca77c9def63ull},
    {"sfw3/MIPS", 0x523137cd2b3be7c1ull, 0x60d016350c203096ull},
    {"sfw4/ARM", 0x0d423fd699e211b7ull, 0xca327bd2a982c880ull},
    {"sfw4/MIPS", 0x29ce32ce6bace052ull, 0xd754b87d1f16fb93ull},
    {"sfw5/ARM", 0xd1dcbc6ab1d70edfull, 0xafe4bfe1134bd112ull},
    {"sfw5/MIPS", 0xb3dd4410b14e72ccull, 0x6d9643e8c4ee61caull},
    {"sfw6/ARM", 0xebb86fd4beee2d1full, 0x09c527d4d2c5560bull},
    {"sfw6/MIPS", 0xae3e814c67b6b3a0ull, 0xf24f41da623aa1ceull},
    {"sfw7/ARM", 0x411ee0c39be3729full, 0x728148fabafd2245ull},
    {"sfw7/MIPS", 0x0544fc02127702acull, 0xe87e199664f4cd25ull},
    {"sfw8/ARM", 0xdeeebd9f62eb67ffull, 0xd31e88c7491829ffull},
    {"sfw8/MIPS", 0xa93a77d35cd9a418ull, 0x587c64f663f59bb7ull},
    {"sfw9/ARM", 0xe2eabbd09a82c654ull, 0x97e7b16074b187abull},
    {"sfw9/MIPS", 0xa0279ff7fc4db607ull, 0xcf57fb984165c43bull},
};
// clang-format on

using testing_util::NamedBinary;
using testing_util::NormalizedJson;

/// The two corpora the interned-vs-legacy expression and CoW-vs-legacy
/// state differential suites ran on: 30 binaries.
const std::vector<NamedBinary>& Corpus() {
  static const std::vector<NamedBinary> corpus = [] {
    std::vector<NamedBinary> out;
    testing_util::AddPlantCorpus("ifw", 300, 5, 15, &out);
    testing_util::AddPlantCorpus("sfw", 900, 10, 12, &out);
    return out;
  }();
  return corpus;
}

uint64_t ReportDigest(const Binary& binary, int num_threads,
                      SummaryCache* cache) {
  DTaintConfig config;
  config.interproc.num_threads = num_threads;
  config.interproc.cache = cache;
  auto report = DTaint(config).Analyze(binary);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? Fnv1a(NormalizedJson(*report)) : 0;
}

uint64_t CodecDigest(const Binary& binary, int num_threads) {
  CfgBuilder builder(binary);
  auto program = builder.BuildProgram();
  EXPECT_TRUE(program.ok());
  if (!program.ok()) return 0;
  SymEngine engine(binary);
  CallGraph graph = CallGraph::Build(*program);
  InterprocConfig config;
  config.num_threads = num_threads;
  ProgramAnalysis analysis = RunBottomUp(*program, graph, engine, config);
  uint64_t h = kFnvOffset;
  for (const auto& [name, summary] : analysis.summaries) {
    h = Fnv1a(name, h);
    h = Fnv1a(EncodeSummary(summary), h);
  }
  return h;
}

std::string DigestLine(const std::string& name, uint64_t report,
                       uint64_t codec) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},",
                name.c_str(), report, codec);
  return buf;
}

const GoldenEntry* FindGolden(const std::string& name) {
  for (const GoldenEntry& entry : kGolden) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

// ---------- the oracle -------------------------------------------------------

TEST(GoldenReport, CorpusMatchesTheTable) {
  const std::vector<NamedBinary>& corpus = Corpus();
  ASSERT_EQ(corpus.size(), 30u);
  EXPECT_EQ(std::size(kGolden), corpus.size());
  for (const NamedBinary& item : corpus) {
    EXPECT_NE(FindGolden(item.name), nullptr) << item.name;
  }
}

TEST(GoldenReport, ReportsMatchGoldenDigests) {
  for (const NamedBinary& item : Corpus()) {
    uint64_t report = ReportDigest(item.binary, 1, nullptr);
    uint64_t codec = CodecDigest(item.binary, 1);
    const GoldenEntry* golden = FindGolden(item.name);
    if (!golden || golden->report != report || golden->codec != codec) {
      ADD_FAILURE() << "digest mismatch for " << item.name
                    << "; the current line is:\n"
                    << DigestLine(item.name, report, codec);
    }
  }
}

TEST(GoldenReport, EveryThreadCountMatches) {
  for (const NamedBinary& item : Corpus()) {
    const GoldenEntry* golden = FindGolden(item.name);
    ASSERT_NE(golden, nullptr) << item.name;
    for (int threads : {2, 8}) {
      EXPECT_EQ(ReportDigest(item.binary, threads, nullptr), golden->report)
          << item.name << " at num_threads=" << threads;
      EXPECT_EQ(CodecDigest(item.binary, threads), golden->codec)
          << item.name << " codec bytes at num_threads=" << threads;
    }
  }
}

TEST(GoldenReport, ColdAndWarmCacheMatch) {
  // A cache filled by a cold run must replay to the same bytes.
  for (const NamedBinary& item : Corpus()) {
    const GoldenEntry* golden = FindGolden(item.name);
    ASSERT_NE(golden, nullptr) << item.name;
    SummaryCache cache;  // in-memory
    for (const char* pass : {"cold", "warm"}) {
      EXPECT_EQ(ReportDigest(item.binary, 1, &cache), golden->report)
          << item.name << " at 1 thread, " << pass << " cache";
      EXPECT_EQ(ReportDigest(item.binary, 2, &cache), golden->report)
          << item.name << " at 2 threads, " << pass << " cache";
    }
  }
}

TEST(GoldenReport, AliasOffCacheServesAnAliasOnScan) {
  // Summaries do not depend on the alias setting, so they share cache
  // keys: a cache filled by a cold alias-off scan serves every function
  // of the alias-on scan that follows, and that scan still reproduces
  // the golden report.
  for (const NamedBinary& item : Corpus()) {
    const GoldenEntry* golden = FindGolden(item.name);
    ASSERT_NE(golden, nullptr) << item.name;
    SummaryCache cache;  // in-memory
    DTaintConfig off;
    off.enable_alias = false;
    off.interproc.cache = &cache;
    auto cold = DTaint(off).Analyze(item.binary);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_GT(cold->interproc_stats.cache_misses, 0u) << item.name;

    DTaintConfig on;
    on.interproc.cache = &cache;
    auto warm = DTaint(on).Analyze(item.binary);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->interproc_stats.cache_misses, 0u) << item.name;
    EXPECT_EQ(Fnv1a(NormalizedJson(*warm)), golden->report) << item.name;
  }
}

}  // namespace
}  // namespace dtaint

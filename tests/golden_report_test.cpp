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
    {"ifw0/ARM", 0x2aa94087a6509d82ull, 0x7fdfee9598cdc096ull},
    {"ifw0/MIPS", 0xfeb9bd7c4e026431ull, 0x59710be68d53ee02ull},
    {"ifw1/ARM", 0xb68c1e6059297596ull, 0x65bd95f580096835ull},
    {"ifw1/MIPS", 0xda7dbf18137b9b85ull, 0x265b757e3f79d935ull},
    {"ifw2/ARM", 0x5d73bd2b370186d8ull, 0x40d1a9083ca797f7ull},
    {"ifw2/MIPS", 0x7fd3fc28ce8853e1ull, 0xa2ae57159e169187ull},
    {"ifw3/ARM", 0x51127c22fd4408f0ull, 0x3c718c43f3b1792full},
    {"ifw3/MIPS", 0xeb907788ccb323ffull, 0x9ccb1070ba0d56c5ull},
    {"ifw4/ARM", 0x6de37c7e214b8e78ull, 0xaedea4e4afdc97c5ull},
    {"ifw4/MIPS", 0xc1782c16b3491995ull, 0x86712ca713cd1dd6ull},
    {"sfw0/ARM", 0xab8efdae91dc94c2ull, 0x5c46eeecc5cb2a94ull},
    {"sfw0/MIPS", 0xa694060c803ac3ebull, 0x5a21d741ee3e51f2ull},
    {"sfw1/ARM", 0x355072824fd5d63cull, 0x88f3ccd960848107ull},
    {"sfw1/MIPS", 0x809d719bc976f9a5ull, 0xfb4d9715c208d884ull},
    {"sfw2/ARM", 0x9748aab8564265bcull, 0x70dcf57a1adf95a5ull},
    {"sfw2/MIPS", 0x8ab0b4ceb261ff93ull, 0xece20a8b4296ef47ull},
    {"sfw3/ARM", 0xce8218a329378740ull, 0x582b9012e331688cull},
    {"sfw3/MIPS", 0x523137cd2b3be7c1ull, 0x15316d7bb3bbbd74ull},
    {"sfw4/ARM", 0x0d423fd699e211b7ull, 0xcec0eed1879d1cf2ull},
    {"sfw4/MIPS", 0x29ce32ce6bace052ull, 0xf7f5f3948f2482caull},
    {"sfw5/ARM", 0xd1dcbc6ab1d70edfull, 0x6743a8f2fbb0823dull},
    {"sfw5/MIPS", 0xb3dd4410b14e72ccull, 0x91c9ea2a83133f39ull},
    {"sfw6/ARM", 0xebb86fd4beee2d1full, 0xf38363663dd74720ull},
    {"sfw6/MIPS", 0xae3e814c67b6b3a0ull, 0x0761ea5369c52705ull},
    {"sfw7/ARM", 0x411ee0c39be3729full, 0x44940d373e441466ull},
    {"sfw7/MIPS", 0x0544fc02127702acull, 0x15a6f83cea08264cull},
    {"sfw8/ARM", 0xdeeebd9f62eb67ffull, 0x9bd6b22cde0ce834ull},
    {"sfw8/MIPS", 0xa93a77d35cd9a418ull, 0x18aea67ea01c3f6eull},
    {"sfw9/ARM", 0xe2eabbd09a82c654ull, 0x1276adf520f7e2a7ull},
    {"sfw9/MIPS", 0xa0279ff7fc4db607ull, 0xa84a0f47a7529cb7ull},
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

// Golden-digest oracle for analysis reports and summary-codec bytes.
//
// The analysis must be a pure function of its input binary: the
// normalized report (everything except wall-clock timings, cache
// counters and per-run metrics) has to be byte-identical at any
// thread count, with a cold or a warm summary cache, and in either
// alias mode; and every function summary has to encode to the same
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
  uint64_t report;   // normalized report, eager alias mode
  uint64_t ondemand; // normalized report, on-demand alias mode
  uint64_t codec;    // every (function name, EncodeSummary blob)
};

// clang-format off
const GoldenEntry kGolden[] = {
    {"ifw0/ARM", 0x4dda6d4f6075a26aull, 0x4dda6d4f6075a26aull, 0x5ad6d9a0a5ca4757ull},
    {"ifw0/MIPS", 0x9af8b31a75fa2787ull, 0x9af8b31a75fa2787ull, 0x63aa3199de068d89ull},
    {"ifw1/ARM", 0xc54d178649aa296aull, 0xc54d178649aa296aull, 0x7ef9615aade9adf7ull},
    {"ifw1/MIPS", 0xb489e6f1db4eba67ull, 0xb489e6f1db4eba67ull, 0xcc86d3ee6304b9b6ull},
    {"ifw2/ARM", 0x8f7156f635b6ce3aull, 0xa23a9303c7e3fd8aull, 0xffd14c8075d453c4ull},
    {"ifw2/MIPS", 0x154d80ded8fb34b5ull, 0x499b4e60777258a1ull, 0xf49a0ea183d5b70dull},
    {"ifw3/ARM", 0x8615512dfa88d2e9ull, 0xcb2a8a72468d0406ull, 0xf04ef2a71c3f4586ull},
    {"ifw3/MIPS", 0x6b79d36b353b8bf6ull, 0x5d5a3c78d89e41ebull, 0x19a1a3c8288b859full},
    {"ifw4/ARM", 0x347a458bff64fa5eull, 0x347a458bff64fa5eull, 0x2a58dd489c5fc3a6ull},
    {"ifw4/MIPS", 0x007793ae8be36a19ull, 0x007793ae8be36a19ull, 0x36e0b26758fc2b71ull},
    {"sfw0/ARM", 0x7176cce3db749b94ull, 0x7176cce3db749b94ull, 0x1fbb27823dda6352ull},
    {"sfw0/MIPS", 0xe4f105c92f207a6bull, 0xe4f105c92f207a6bull, 0x94b25ad86365920aull},
    {"sfw1/ARM", 0xa08f6f5773228cf0ull, 0xa08f6f5773228cf0ull, 0x4b33ee356d19c545ull},
    {"sfw1/MIPS", 0xb29f62277956de4full, 0xb29f62277956de4full, 0x5b0f444d23595b2eull},
    {"sfw2/ARM", 0x3e51ecd5274dd250ull, 0x38f0291c191920a4ull, 0xf2cfd9aac5d9a178ull},
    {"sfw2/MIPS", 0xd4e4c6212df94d4dull, 0x38025be86912766dull, 0x01ac06fc649a8dc7ull},
    {"sfw3/ARM", 0x02b8b951fd3cb4e3ull, 0x722c7d4af33035c6ull, 0xaeb6252664d88170ull},
    {"sfw3/MIPS", 0x9b28babb815ffbceull, 0x37b891970fdb6809ull, 0x1308939d801441deull},
    {"sfw4/ARM", 0x370cd5ec48103f8dull, 0x370cd5ec48103f8dull, 0xf3ac7a8bd6ed8974ull},
    {"sfw4/MIPS", 0x307555337233bcaaull, 0x307555337233bcaaull, 0x72c4f0d33f87aa1dull},
    {"sfw5/ARM", 0x983a203d4daf9acdull, 0x983a203d4daf9acdull, 0xcc8eca551ed4da8eull},
    {"sfw5/MIPS", 0x1dcdbd01158eb024ull, 0x1dcdbd01158eb024ull, 0x716d61859818688cull},
    {"sfw6/ARM", 0x96ca5277762023d5ull, 0x96ca5277762023d5ull, 0x358f93dafd41de87ull},
    {"sfw6/MIPS", 0x443407764cd06654ull, 0x443407764cd06654ull, 0x0a7eff3d61a9a8b7ull},
    {"sfw7/ARM", 0x1a3142697c22837eull, 0x72fb745f52fff61full, 0xa9eb43b1dd180717ull},
    {"sfw7/MIPS", 0x8b8c49d780676995ull, 0xf6305657dbd4c5d6ull, 0x3dc993488f5ccca8ull},
    {"sfw8/ARM", 0xcd2f5c90c96e2809ull, 0xe4a8f5bf869d470bull, 0x77a9eecec8d45e5bull},
    {"sfw8/MIPS", 0x8e45b6fe5efe9a98ull, 0xfa30f6cd991cd4eeull, 0x0d7e3fb828483d7dull},
    {"sfw9/ARM", 0x9582e01ff26b9a60ull, 0x9582e01ff26b9a60ull, 0xbef4b638b0c96728ull},
    {"sfw9/MIPS", 0xc5a22513acef1f9dull, 0xc5a22513acef1f9dull, 0x2c6e027561031030ull},
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
                      SummaryCache* cache, AliasMode alias_mode) {
  DTaintConfig config;
  config.interproc.num_threads = num_threads;
  config.interproc.cache = cache;
  config.interproc.alias_mode = alias_mode;
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
                       uint64_t ondemand, uint64_t codec) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull},",
                name.c_str(), report, ondemand, codec);
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
    uint64_t report = ReportDigest(item.binary, 1, nullptr, AliasMode::kEager);
    uint64_t ondemand =
        ReportDigest(item.binary, 1, nullptr, AliasMode::kOnDemandSSE);
    uint64_t codec = CodecDigest(item.binary, 1);
    const GoldenEntry* golden = FindGolden(item.name);
    if (!golden || golden->report != report ||
        golden->ondemand != ondemand || golden->codec != codec) {
      ADD_FAILURE() << "digest mismatch for " << item.name
                    << "; the current line is:\n"
                    << DigestLine(item.name, report, ondemand, codec);
    }
  }
}

TEST(GoldenReport, EveryThreadCountMatches) {
  for (const NamedBinary& item : Corpus()) {
    const GoldenEntry* golden = FindGolden(item.name);
    ASSERT_NE(golden, nullptr) << item.name;
    for (int threads : {2, 8}) {
      EXPECT_EQ(ReportDigest(item.binary, threads, nullptr, AliasMode::kEager),
                golden->report)
          << item.name << " eager at num_threads=" << threads;
      EXPECT_EQ(ReportDigest(item.binary, threads, nullptr,
                             AliasMode::kOnDemandSSE),
                golden->ondemand)
          << item.name << " on-demand at num_threads=" << threads;
      EXPECT_EQ(CodecDigest(item.binary, threads), golden->codec)
          << item.name << " codec bytes at num_threads=" << threads;
    }
  }
}

TEST(GoldenReport, ColdAndWarmCacheMatch) {
  // A cache filled by a cold run must replay to the same bytes; the
  // cache keys by alias mode, so one cache serves both modes.
  for (const NamedBinary& item : Corpus()) {
    const GoldenEntry* golden = FindGolden(item.name);
    ASSERT_NE(golden, nullptr) << item.name;
    SummaryCache cache;  // in-memory
    for (const char* pass : {"cold", "warm"}) {
      EXPECT_EQ(ReportDigest(item.binary, 1, &cache, AliasMode::kEager),
                golden->report)
          << item.name << " eager, " << pass << " cache";
      EXPECT_EQ(ReportDigest(item.binary, 2, &cache, AliasMode::kOnDemandSSE),
                golden->ondemand)
          << item.name << " on-demand, " << pass << " cache";
    }
  }
}

}  // namespace
}  // namespace dtaint

// Synthesized plant corpora and report normalization shared by the
// report-level oracles (cache, alias, state and golden differential
// tests). Each suite seeds its own corpus; the shape is common.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/dtaint.h"
#include "src/report/json.h"
#include "src/synth/firmware_synth.h"

namespace dtaint {
namespace testing_util {

struct NamedBinary {
  std::string name;  // "<prefix><seed>/<arch>"
  Binary binary;
};

/// `seeds` x {ARM, MIPS} synthesized binaries, seed-major, rotating
/// through the five standard plant patterns, with a sanitized twin on
/// odd seeds so reports contain both findings and their absence.
inline void AddPlantCorpus(const std::string& prefix, uint64_t seed_base,
                           int seeds, int filler_base,
                           std::vector<NamedBinary>* corpus) {
  for (int seed = 0; seed < seeds; ++seed) {
    for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
      ProgramSpec spec;
      spec.name = prefix + std::to_string(seed);
      spec.arch = arch;
      spec.seed = seed_base + static_cast<uint64_t>(seed);
      spec.filler_functions = filler_base + seed;
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
      if (!out.ok()) continue;
      corpus->push_back({spec.name + "/" + std::string(ArchName(arch)),
                         std::move(out->binary)});
    }
  }
}

/// AddPlantCorpus without the names.
inline std::vector<Binary> PlantCorpus(const std::string& prefix,
                                       uint64_t seed_base, int seeds,
                                       int filler_base) {
  std::vector<NamedBinary> named;
  AddPlantCorpus(prefix, seed_base, seeds, filler_base, &named);
  std::vector<Binary> corpus;
  for (NamedBinary& item : named) corpus.push_back(std::move(item.binary));
  return corpus;
}

/// Serializes a report with the run-dependent fields (timings, cache
/// counters, per-run metrics, the timing-ordered hot-function profile)
/// zeroed; everything else must survive byte comparison. PathFinder
/// effort is not cleared: path search is deterministic.
inline std::string NormalizedJson(AnalysisReport report) {
  report.ssa_seconds = 0.0;
  report.ddg_seconds = 0.0;
  report.total_seconds = 0.0;
  report.interproc_stats.summary_seconds = 0.0;
  report.interproc_stats.cache_hits = 0;
  report.interproc_stats.cache_misses = 0;
  report.interproc_stats.hot_functions.clear();
  report.metrics = obs::MetricsSnapshot{};
  return ReportToJson(report);
}

}  // namespace testing_util
}  // namespace dtaint

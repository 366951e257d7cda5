// Cache bench (extra): cold vs warm corpus re-scan.
//
// The persistent function-summary cache targets the fleet-audit loop:
// the same firmware corpus is re-scanned after every detector or
// signature tweak, but the binaries themselves rarely change. This
// bench scans a 20-binary synthesized corpus three ways — cold (no
// cache), populating (cold + store overhead), and warm (every summary
// served from disk).
//
// Two times are reported per phase. "Summary (s)" is the
// summary-production time (InterprocStats::summary_seconds: symbolic
// analysis, or a cache hit) — the work the cache can
// serve, and the headline self-check: warm must be at least 3x faster
// than cold. "Wall (s)" is the whole pipeline including the phases no
// summary cache can skip (lifting, linking, indirect-call resolution,
// path search), so its ratio is Amdahl-bounded well below the
// summary-phase ratio; it is printed so the end-to-end win is never
// overstated.
//
// Repetition (median-of-3 by summary time) and per-phase metrics come
// from the shared bench harness; each rep's cache.* counters are a
// clean per-rep registry delta, so reps can't contaminate each other.
#include <cstdio>
#include <filesystem>
#include <vector>

#include "src/cache/summary_cache.h"
#include "src/core/dtaint.h"
#include "src/obs/bench.h"
#include "src/report/table.h"
#include "src/synth/firmware_synth.h"
#include "src/util/strings.h"

using namespace dtaint;

namespace {

std::vector<Binary> BuildCorpus() {
  std::vector<Binary> corpus;
  for (int seed = 0; seed < 20; ++seed) {
    ProgramSpec spec;
    spec.name = "fleet" + std::to_string(seed);
    spec.arch = seed % 2 ? Arch::kDtMips : Arch::kDtArm;
    spec.seed = 4000 + static_cast<uint64_t>(seed);
    // Branch-heavy, compute-dense fillers: symbolic exploration (up to
    // the per-function path budget, with checksum/parse-style
    // arithmetic on every path) dominates, as in real parser-dense
    // firmware — the workload the cache exists for. Tiny straight-line
    // functions are cheaper to re-analyze than to deserialize and
    // would undersell.
    spec.filler_functions = 40;
    spec.filler_min_blocks = 18;
    spec.filler_max_blocks = 44;
    spec.filler_alu_burst = 192;
    PlantSpec p;
    p.id = "v";
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
    spec.plants = {p};
    auto out = SynthesizeBinary(spec);
    if (out.ok()) corpus.push_back(std::move(out->binary));
  }
  return corpus;
}

struct SweepTotals {
  double summary_seconds = 0.0;
  size_t findings = 0;
  size_t hits = 0;
  size_t misses = 0;
};

/// Scans the corpus once and records the rep's results; hit/miss
/// counters come from the per-report registry-backed compat stats.
SweepTotals Sweep(const std::vector<Binary>& corpus, SummaryCache* cache,
                  bench::Rep& rep) {
  SweepTotals t;
  for (const Binary& binary : corpus) {
    DTaintConfig config;
    config.interproc.cache = cache;
    auto report = DTaint(config).Analyze(binary);
    if (!report.ok()) continue;
    t.summary_seconds += report->interproc_stats.summary_seconds;
    t.findings += report->findings.size();
    t.hits += report->interproc_stats.cache_hits;
    t.misses += report->interproc_stats.cache_misses;
  }
  rep.Value("summary_seconds", t.summary_seconds);
  rep.Value("findings", static_cast<double>(t.findings));
  rep.Value("hits", static_cast<double>(t.hits));
  rep.Value("misses", static_cast<double>(t.misses));
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("cache_warm", argc, argv);
  std::printf("=== Summary cache: cold vs warm corpus scan ===\n\n");
  std::filesystem::path dir = "bench_cache_warm_dir";
  std::filesystem::remove_all(dir);
  CacheConfig cache_config;
  cache_config.disk_dir = dir.string();

  std::vector<Binary> corpus = BuildCorpus();
  // Median-of-3 by summary-production time — one noisy scheduler tick
  // on a small box otherwise swings the headline ratio by tens of
  // percent.
  bench::RunOptions median3;
  median3.reps = 3;
  median3.median_key = "summary_seconds";
  std::printf("corpus: %zu binaries, ~63 functions each; median-of-%d\n\n",
              corpus.size(), harness.RepsFor(median3.reps));

  const bench::RunResult& cold = harness.Run(
      "cold", median3, [&](bench::Rep& rep) { Sweep(corpus, nullptr, rep); });

  // The summed per-report compat counters must equal both the cache's
  // own lifetime CacheStats and the harness's per-rep registry delta —
  // three views of the same traffic.
  bool compat_ok = true;
  bench::RunOptions once;
  const bench::RunResult& populate =
      harness.Run("populate", once, [&](bench::Rep& rep) {
        SummaryCache cache(cache_config);
        SweepTotals t = Sweep(corpus, &cache, rep);
        CacheStats stats = cache.stats();
        compat_ok = compat_ok && t.hits == stats.hits &&
                    t.misses == stats.misses;
      });
  compat_ok =
      compat_ok &&
      populate.metrics.CounterValue("cache.hits") ==
          static_cast<uint64_t>(populate.values.at("hits")) &&
      populate.metrics.CounterValue("cache.misses") ==
          static_cast<uint64_t>(populate.values.at("misses"));

  const bench::RunResult& warm =
      harness.Run("warm", median3, [&](bench::Rep& rep) {
        // Fresh instance per rep = fresh process: nothing is queued
        // and everything must come off disk.
        SummaryCache cache(cache_config);
        SweepTotals t = Sweep(corpus, &cache, rep);
        CacheStats stats = cache.stats();
        compat_ok = compat_ok && t.hits == stats.hits &&
                    t.misses == stats.misses;
      });
  compat_ok = compat_ok &&
              warm.metrics.CounterValue("cache.hits") ==
                  static_cast<uint64_t>(warm.values.at("hits"));
  std::filesystem::remove_all(dir);

  double cold_summary = cold.values.at("summary_seconds");
  double warm_summary = warm.values.at("summary_seconds");
  TextTable table({"Phase", "Summary (s)", "Wall (s)", "Findings",
                   "Hits", "Misses", "Summary speedup"});
  auto row = [&](const char* name, const bench::RunResult& r) {
    table.AddRow({name, FmtDouble(r.values.at("summary_seconds"), 3),
                  FmtDouble(r.wall_seconds, 3),
                  std::to_string(static_cast<size_t>(r.values.at("findings"))),
                  std::to_string(static_cast<size_t>(r.values.at("hits"))),
                  std::to_string(static_cast<size_t>(r.values.at("misses"))),
                  FmtDouble(cold_summary / r.values.at("summary_seconds"),
                            2) +
                      "x"});
  };
  row("cold (no cache)", cold);
  row("populating", populate);
  row("warm (from disk)", warm);
  std::printf("%s\n", table.Render().c_str());

  double speedup = cold_summary / warm_summary;
  harness.AddExternalRun("derived", 0.0,
                         {{"warm_speedup", speedup},
                          {"wall_speedup",
                           cold.wall_seconds / warm.wall_seconds}});
  harness.Note("warm_speedup target >= 3x");
  bool identical = cold.values.at("findings") == warm.values.at("findings") &&
                   cold.values.at("findings") ==
                       populate.values.at("findings");
  std::printf("warm summary-production speedup: %.2fx (target >= 3x); "
              "end-to-end wall: %.2fx; findings identical across "
              "phases: %s\n",
              speedup, cold.wall_seconds / warm.wall_seconds,
              identical ? "yes" : "NO");
  std::printf("(the differential test suite proves full-report byte "
              "equality; this bench only totals findings)\n");
  std::printf("registry-backed hit/miss counters match the cache's own "
              "CacheStats and the per-rep metrics delta: %s\n",
              compat_ok ? "yes" : "NO");
  bool ok = speedup >= 3.0 && identical &&
            warm.values.at("misses") == 0 && compat_ok;
  return harness.Finish(ok);
}

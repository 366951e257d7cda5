// Figure 1: "The number of firmware can be successfully emulated."
//
// Reproduces the paper's empirical study (§II-A): a corpus of 6,529
// firmware images (2009-2016) is pushed through a FIRMADYNE-like
// full-system emulation attempt; only a small fraction boots with
// working networking. The paper's headline numbers: <670 emulable,
// 5,859 not; >65% of images don't even unpack (§VI).
#include <cstdio>

#include "src/emu/corpus.h"
#include "src/emu/firmadyne_sim.h"
#include "src/obs/bench.h"
#include "src/obs/events.h"
#include "src/report/table.h"
#include "src/util/strings.h"

using namespace dtaint;

int main(int argc, char** argv) {
  bench::Harness harness("fig1_emulation", argc, argv);
  std::printf("=== Figure 1: firmware emulation study "
              "(FIRMADYNE-like, synthetic corpus) ===\n\n");

  CorpusConfig config;
  std::vector<CorpusEntry> corpus;
  std::map<uint16_t, YearTally> tallies;
  harness.Run("emulation_study", [&](bench::Rep& rep) {
    corpus = GenerateCorpus(config);
    tallies = RunEmulationStudy(corpus);
    rep.Value("images", static_cast<double>(corpus.size()));
  });

  TextTable table({"Year", "Images", "Emulated", "Failed", "Emul.%",
                   "unpack-fail", "peripheral", "nvram", "net-init"});
  int total = 0, emulated = 0, unpack_failed = 0;
  for (const auto& [year, tally] : tallies) {
    total += tally.total;
    emulated += tally.emulated;
    auto count = [&](EmulationOutcome o) {
      auto it = tally.by_outcome.find(o);
      return it == tally.by_outcome.end() ? 0 : it->second;
    };
    unpack_failed += count(EmulationOutcome::kUnpackFailed);
    table.AddRow({std::to_string(year), std::to_string(tally.total),
                  std::to_string(tally.emulated),
                  std::to_string(tally.total - tally.emulated),
                  FmtDouble(100.0 * tally.emulated / tally.total, 1),
                  std::to_string(count(EmulationOutcome::kUnpackFailed)),
                  std::to_string(count(EmulationOutcome::kPeripheralFault)),
                  std::to_string(count(EmulationOutcome::kNvramFault)),
                  std::to_string(
                      count(EmulationOutcome::kNetworkInitFailed))});
  }
  std::printf("%s\n", table.Render().c_str());

  // ASCII histogram in the figure's style: gray = failed, red(#) = ok.
  std::printf("per-year histogram ('.' = 20 failed, '#' = 20 emulated):\n");
  for (const auto& [year, tally] : tallies) {
    std::string bar;
    for (int i = 0; i < (tally.total - tally.emulated) / 20; ++i)
      bar += '.';
    for (int i = 0; i < tally.emulated / 20 + 1; ++i) bar += '#';
    std::printf("  %d |%s\n", year, bar.c_str());
  }

  std::printf("\nTotals: %d images; %d emulable (%.1f%%), %d not; "
              "%d (%.1f%%) failed to unpack\n",
              total, emulated, 100.0 * emulated / total, total - emulated,
              unpack_failed, 100.0 * unpack_failed / total);
  std::printf("Paper:  6,529 images; <670 emulable (~10%%); 5,859 not; "
              ">65%% failed to unpack (Section VI)\n");
  // The corpus is seeded, so these tallies are deterministic counts
  // the regression gate can hold exactly.
  harness.AddExternalRun(
      "totals", 0.0,
      {{"images", static_cast<double>(total)},
       {"emulated", static_cast<double>(emulated)},
       {"unpack_failed", static_cast<double>(unpack_failed)}});

  // The identical per-image sweep with the NDJSON event stream off,
  // then on (one image_begin/image_end pair per image, written to a
  // scratch file). "events_emitted" is a deterministic count the
  // regression gate holds exactly. The sweep is microseconds per
  // image, so it prices nothing: table3_detection's
  // instrumentation_overhead run measures the event cost on a
  // real scan.
  auto sweep = [&](obs::EventStream* events) {
    int ok = 0;
    for (const CorpusEntry& entry : corpus) {
      if (events) {
        events->Emit(obs::Event("image_begin")
                         .Str("image", entry.vendor)
                         .Num("year", static_cast<uint64_t>(entry.year)));
      }
      EmulationOutcome outcome = AttemptEmulation(entry);
      if (outcome == EmulationOutcome::kSuccess) ++ok;
      if (events) {
        events->Emit(obs::Event("image_end")
                         .Str("image", entry.vendor)
                         .Str("status", EmulationOutcomeName(outcome))
                         .Bool("complete",
                               outcome == EmulationOutcome::kSuccess));
      }
    }
    return ok;
  };
  harness.Run("emulation_sweep_events_off", [&](bench::Rep& rep) {
    rep.Value("emulated", static_cast<double>(sweep(nullptr)));
  });
  const char* scratch = "bench_fig1_events.ndjson";
  uint64_t events_emitted = 0;
  harness.Run("emulation_sweep_events_on", [&](bench::Rep& rep) {
    obs::EventStream stream;
    if (!stream.Open(scratch, "fig1_emulation")) return;
    rep.Value("emulated", static_cast<double>(sweep(&stream)));
    stream.Close("ok");
    events_emitted = stream.EventCount();
    rep.Value("events_emitted", static_cast<double>(events_emitted));
  });
  std::printf("\nEvent stream: %llu events emitted\n",
              static_cast<unsigned long long>(events_emitted));
  std::remove(scratch);
  return harness.Finish(true);
}

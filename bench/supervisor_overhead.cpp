// Supervisor bench (extra): isolated workers vs in-process A/B.
//
// The crash-isolated scan supervisor (src/resilience/supervisor.h)
// buys fault containment with forked workers (one fork per worker,
// reused across images), a pipe round-trip per image, and a JSON
// result line for every outcome. This bench prices that
// isolation tax: the same synthesized fleet is scanned twice through
// the same ScanSupervisor — once with workers = 0 (direct call, the A
// side) and once with one real forked worker (the B side) — and
// the wall-clock ratio is reported as supervisor.overhead_ratio.
//
// The ratio is informational (the `_ratio` suffix exempts it from the
// bench_diff regression gate — fork cost is kernel- and
// machine-dependent), but the detection counts are not: both sides
// must produce identical findings/function/tp tallies and metrics
// counter deltas (a forked worker's arrive with each outcome), or the
// result pipe is corrupting outcomes in flight. Those counts are
// exact-match gated against the committed baseline.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/core/dtaint.h"
#include "src/obs/bench.h"
#include "src/report/json.h"
#include "src/report/table.h"
#include "src/resilience/supervisor.h"
#include "src/synth/firmware_synth.h"
#include "src/util/strings.h"

using namespace dtaint;

namespace {

std::vector<Binary> BuildFleet() {
  std::vector<Binary> fleet;
  for (int seed = 0; seed < 8; ++seed) {
    ProgramSpec spec;
    spec.name = "sup" + std::to_string(seed);
    spec.arch = seed % 2 ? Arch::kDtMips : Arch::kDtArm;
    spec.seed = 7000 + static_cast<uint64_t>(seed);
    spec.filler_functions = 24;
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
    if (out.ok()) fleet.push_back(std::move(out->binary));
  }
  return fleet;
}

std::vector<TaskSpec> FleetTasks(const std::vector<Binary>& fleet) {
  std::vector<TaskSpec> tasks;
  for (size_t i = 0; i < fleet.size(); ++i) {
    TaskSpec task;
    task.label = "sup" + std::to_string(i);
    task.fingerprint = "bench_fp_" + std::to_string(i);
    tasks.push_back(task);
  }
  return tasks;
}

struct FleetTotals {
  uint64_t done = 0;
  uint64_t functions = 0;
  uint64_t findings = 0;
  uint64_t tp = 0;

  bool operator==(const FleetTotals&) const = default;
};

/// One full fleet pass through the supervisor; the TaskFn runs a real
/// analysis and serializes real findings, so the isolated side pays
/// the genuine outcome-serialization cost, not a toy payload's.
FleetTotals RunFleet(const std::vector<Binary>& fleet,
                     const std::vector<TaskSpec>& tasks, bool in_process,
                     bench::Rep& rep) {
  SupervisorConfig config;
  config.workers = in_process ? 0 : 1;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      tasks, [&](size_t index, const AnalysisBudget&) {
        ScanOutcome out;
        auto report = DTaint(DTaintConfig{}).Analyze(fleet[index]);
        if (!report.ok()) {
          out.status = "failed";
          return out;
        }
        out.status = "ok";
        out.complete = report->complete;
        out.functions = report->functions;
        out.findings = report->findings.size();
        out.findings_json = FindingsToJson(report->findings);
        return out;
      });
  FleetTotals totals;
  for (const TaskResult& result : results) {
    if (result.state != TaskResult::State::kDone) continue;
    ++totals.done;
    totals.functions += result.outcome.functions;
    totals.findings += result.outcome.findings;
    totals.tp += result.outcome.tp;
  }
  rep.Value("done", static_cast<double>(totals.done));
  rep.Value("functions", static_cast<double>(totals.functions));
  rep.Value("findings", static_cast<double>(totals.findings));
  return totals;
}

/// A run's counter deltas but the ones that count a process, not the
/// scan: supervisor.* counts the runner, and a forked worker's first
/// image recycles what its interner inherited at fork.
std::map<std::string, uint64_t, std::less<>> WorkCounters(
    const bench::RunResult& run) {
  auto work = run.metrics.counters;
  std::erase_if(work, [](const auto& counter) {
    return counter.first.starts_with("supervisor.") ||
           counter.first == "intern.recycles";
  });
  return work;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("supervisor_overhead", argc, argv);
  std::printf("=== Scan supervisor: isolated workers vs in-process ===\n\n");

  std::vector<Binary> fleet = BuildFleet();
  std::vector<TaskSpec> tasks = FleetTasks(fleet);
  std::printf("fleet: %zu binaries, one reused forked worker on the "
              "isolated side\n\n",
              fleet.size());

  // Median-of-3 by wall time: fork, pipe and waitpid latency are at the
  // mercy of the scheduler, and the ratio is the headline.
  bench::RunOptions median3;
  median3.reps = 3;

  FleetTotals in_process_totals, isolated_totals;
  const bench::RunResult& in_process =
      harness.Run("in_process", median3, [&](bench::Rep& rep) {
        in_process_totals = RunFleet(fleet, tasks, /*in_process=*/true, rep);
      });
  const bench::RunResult& isolated =
      harness.Run("isolated", median3, [&](bench::Rep& rep) {
        isolated_totals = RunFleet(fleet, tasks, /*in_process=*/false, rep);
      });

  double ratio = in_process.wall_seconds > 0.0
                     ? isolated.wall_seconds / in_process.wall_seconds
                     : 0.0;
  TextTable table({"Mode", "Wall (s)", "Done", "Functions", "Findings"});
  auto row = [&](const char* name, const bench::RunResult& r) {
    table.AddRow({name, FmtDouble(r.wall_seconds, 3),
                  std::to_string(static_cast<size_t>(r.values.at("done"))),
                  std::to_string(
                      static_cast<size_t>(r.values.at("functions"))),
                  std::to_string(
                      static_cast<size_t>(r.values.at("findings")))});
  };
  row("in-process", in_process);
  row("isolated workers", isolated);
  std::printf("%s\n", table.Render().c_str());

  harness.AddExternalRun("derived", 0.0,
                         {{"supervisor.overhead_ratio", ratio}});
  harness.Note("overhead_ratio is informational: fork cost is "
               "machine-dependent; the count identity is the gate");

  bool identical = in_process_totals == isolated_totals &&
                   WorkCounters(in_process) == WorkCounters(isolated);
  bool all_done = in_process_totals.done == tasks.size() &&
                  isolated_totals.done == tasks.size();
  std::printf("isolation overhead: %.2fx wall; outcomes identical across "
              "the wire: %s; all %zu images scanned on both sides: %s\n",
              ratio, identical ? "yes" : "NO", tasks.size(),
              all_done ? "yes" : "NO");
  return harness.Finish(identical && all_done);
}

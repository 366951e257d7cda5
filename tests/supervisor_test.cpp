// Scan supervisor tests.
//
// Three layers of coverage:
//  * the result pipe — a worker that exits before its whole result
//    line, writes bytes after it, or sends a line that does not decode
//    fails the attempt as `wire` (the outcome codec itself is checked
//    through the stream resume, whose replays must be byte-exact);
//  * the supervisor state machine — retry with tightened budgets,
//    quarantine after 1 + max_retries attempts, the per-image
//    watchdog, resume from the event stream (torn and untrusted lines
//    cost a re-scan, never a wrong result), stop_on_failure, and reused
//    workers (replacement, per-task limits and counters), exercised
//    both in-process (deterministic, fault-injected) and with real
//    forked workers;
//  * the kill-mid-scan resume oracle — a corpus_scan subprocess is
//    crashed at a fault-injected point under either runner, rerun with
//    --resume on its event stream, and the merged fleet JSON must be
//    byte-identical to an uninterrupted run's; a poison image must
//    quarantine without poisoning the rest of the fleet; the parent's
//    heartbeat counts every image a worker finishes, and its metrics
//    every counter a worker bumps.
//
// All file outputs land under obs_artifacts/ in the working directory
// so CI can upload them from failing jobs.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/scan_report.h"
#include "src/resilience/budget.h"
#include "src/resilience/fault.h"
#include "src/resilience/supervisor.h"
#include "src/util/json.h"

namespace dtaint {
namespace {

namespace fs = std::filesystem;

fs::path ArtifactDir() {
  fs::path dir = "obs_artifacts";
  fs::create_directories(dir);
  return dir;
}

/// Fresh per-test scratch directory under the artifact dir.
fs::path ScratchDir(const std::string& name) {
  fs::path dir = ArtifactDir() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultPlan::Global().Clear(); }
  void TearDown() override { FaultPlan::Global().Clear(); }
};

/// A representative outcome exercising every codec field, including
/// JSON-hostile bytes in the raw fragments' neighbors.
ScanOutcome SampleOutcome() {
  ScanOutcome out;
  out.status = "ok";
  out.row = "ok \"quoted\"\n";
  out.complete = true;
  out.functions = 123;
  out.findings = 2;
  out.findings_json = "[{\"sink\": \"strcpy\", \"depth\": 3}]";
  out.has_score = true;
  out.score_json = "{\"tp\": 2, \"fn\": 0, \"fp\": 1}";
  out.tp = 2;
  out.fn = 0;
  out.fp = 1;
  Incident inc;
  inc.binary = "img \\ one";
  inc.phase = "summary";
  inc.detail = "parse_uri";
  inc.status = OutOfRange("budget: steps");
  out.incidents.push_back(inc);
  out.counters = {{"summary.functions", 123}, {"cache.hits", 0}};
  return out;
}

void ExpectOutcomeEq(const ScanOutcome& got, const ScanOutcome& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.row, want.row);
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.functions, want.functions);
  EXPECT_EQ(got.findings, want.findings);
  EXPECT_EQ(got.findings_json, want.findings_json);
  EXPECT_EQ(got.has_score, want.has_score);
  EXPECT_EQ(got.score_json, want.score_json);
  EXPECT_EQ(got.tp, want.tp);
  EXPECT_EQ(got.fn, want.fn);
  EXPECT_EQ(got.fp, want.fp);
  ASSERT_EQ(got.incidents.size(), want.incidents.size());
  for (size_t i = 0; i < got.incidents.size(); ++i) {
    EXPECT_EQ(got.incidents[i].binary, want.incidents[i].binary);
    EXPECT_EQ(got.incidents[i].phase, want.incidents[i].phase);
    EXPECT_EQ(got.incidents[i].detail, want.incidents[i].detail);
    EXPECT_EQ(got.incidents[i].status.code(), want.incidents[i].status.code());
  }
  EXPECT_EQ(got.counters, want.counters);
}

/// A forked task's outcome with the zeros of its counter delta dropped:
/// the worker ships every counter name its registry holds, bumped or
/// not.
ScanOutcome Bumped(ScanOutcome outcome) {
  std::erase_if(outcome.counters,
                [](const auto& counter) { return counter.second == 0; });
  return outcome;
}

// ---------- TightenBudget ----------------------------------------------------

TEST_F(SupervisorTest, TightenBudgetNeverLoosensAndShrinksPerAttempt) {
  AnalysisBudget base;  // everything unlimited
  EXPECT_FALSE(TightenBudget(base, 1).limited());

  // Retry 1: unlimited budgets become limited — a crashing image never
  // gets a *less* constrained second chance.
  AnalysisBudget second = TightenBudget(base, 2);
  EXPECT_TRUE(second.limited());
  EXPECT_GT(second.max_steps, 0u);
  EXPECT_GT(second.max_states, 0u);
  EXPECT_GT(second.max_expr_nodes, 0u);
  EXPECT_GT(second.deadline_ms, 0.0);

  // Each further attempt halves again, monotonically.
  AnalysisBudget prev = second;
  for (int attempt = 3; attempt < 8; ++attempt) {
    AnalysisBudget next = TightenBudget(base, attempt);
    EXPECT_LE(next.max_steps, prev.max_steps) << "attempt " << attempt;
    EXPECT_LE(next.max_states, prev.max_states) << "attempt " << attempt;
    EXPECT_LE(next.max_expr_nodes, prev.max_expr_nodes)
        << "attempt " << attempt;
    EXPECT_LE(next.deadline_ms, prev.deadline_ms) << "attempt " << attempt;
    EXPECT_TRUE(next.limited());
    prev = next;
  }

  // A base stricter than the degraded ceiling wins: tightening never
  // raises a limit the caller already set.
  AnalysisBudget strict;
  strict.max_steps = 10;
  strict.deadline_ms = 1.0;
  AnalysisBudget tightened = TightenBudget(strict, 2);
  EXPECT_EQ(tightened.max_steps, 10u);
  EXPECT_DOUBLE_EQ(tightened.deadline_ms, 1.0);
}

// ---------- supervisor state machine -----------------------------------------

ScanOutcome OutcomeForIndex(size_t index) {
  ScanOutcome out;
  out.status = "ok";
  out.row = "ok";
  out.complete = true;
  out.functions = 10 + index;
  out.findings = index;
  out.findings_json = "[" + std::to_string(index) + "]";
  out.tp = index;
  return out;
}

std::vector<TaskSpec> Tasks(const std::vector<std::string>& labels) {
  std::vector<TaskSpec> tasks;
  for (const std::string& label : labels) {
    tasks.push_back(TaskSpec{label, "fp_" + label});
  }
  return tasks;
}

TEST_F(SupervisorTest, ForkedWorkersReturnOutcomesInTaskOrder) {
  // Each task bumps a counter in its worker by index + 1. The delta
  // rides its outcome, only that task's even on a reused worker, and
  // Run adds it into this process's registry.
  obs::Counter& bumps =
      obs::MetricsRegistry::Global().counter("supervisor_test.bumps");
  const uint64_t bumps_before = bumps.Value();
  SupervisorConfig config;
  config.workers = 2;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"a", "b", "c"}), [](size_t index, const AnalysisBudget&) {
        obs::MetricsRegistry::Global()
            .counter("supervisor_test.bumps")
            .Add(index + 1);
        return OutcomeForIndex(index);
      });
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].state, TaskResult::State::kDone) << i;
    EXPECT_EQ(results[i].attempts, 1u);
    EXPECT_FALSE(results[i].in_process);
    EXPECT_FALSE(results[i].resumed);
    ScanOutcome want = OutcomeForIndex(i);
    want.counters["supervisor_test.bumps"] = i + 1;
    ExpectOutcomeEq(Bumped(results[i].outcome), want);
  }
  EXPECT_EQ(bumps.Value() - bumps_before, 1u + 2u + 3u);
  // Two workers for three tasks: the third reuses whichever is free.
  EXPECT_EQ(supervisor.stats().workers_spawned, 2u);
  EXPECT_EQ(supervisor.stats().worker_failures, 0u);
}

TEST_F(SupervisorTest, InProcessModeMatchesForkedResults) {
  SupervisorConfig config;
  config.workers = 0;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"a", "b"}),
      [](size_t index, const AnalysisBudget&) { return OutcomeForIndex(index); });
  ASSERT_EQ(results.size(), 2u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].state, TaskResult::State::kDone);
    EXPECT_TRUE(results[i].in_process);
    ExpectOutcomeEq(results[i].outcome, OutcomeForIndex(i));
  }
  EXPECT_EQ(supervisor.stats().workers_spawned, 0u);
}

TEST_F(SupervisorTest, WorkerDeathRetriesWithTightenedBudgetThenSucceeds) {
  // In-process the fault plan's occurrence counters are shared across
  // attempts, so a count-1 worker_kill fails attempt 1 and lets
  // attempt 2 through — the retry path without any fork.
  FaultRule rule;
  rule.site = FaultSite::kWorkerKill;
  rule.match = "flaky";
  FaultPlan::Global().Install({rule});

  SupervisorConfig config;
  config.workers = 0;
  config.max_retries = 2;
  ScanSupervisor supervisor(config);
  std::vector<bool> budget_limited;
  auto results = supervisor.Run(
      Tasks({"flaky"}), [&](size_t index, const AnalysisBudget& budget) {
        budget_limited.push_back(budget.limited());
        return OutcomeForIndex(index);
      });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, TaskResult::State::kDone);
  EXPECT_EQ(results[0].attempts, 2u);
  EXPECT_EQ(results[0].worker_restarts, 1u);
  ASSERT_EQ(results[0].incidents.size(), 1u);
  EXPECT_EQ(results[0].incidents[0].phase, "supervisor");
  EXPECT_NE(results[0].incidents[0].status.message().find("worker signal"),
            std::string::npos);
  // The first attempt never ran the task (killed before), the retry
  // ran it under a tightened (now limited) budget.
  ASSERT_EQ(budget_limited.size(), 1u);
  EXPECT_TRUE(budget_limited[0]);
  EXPECT_EQ(supervisor.stats().retries, 1u);
  EXPECT_EQ(supervisor.stats().quarantined, 0u);
}

TEST_F(SupervisorTest, PoisonImageQuarantinesWithoutPoisoningTheFleet) {
  // Every forked attempt of "poison" SIGKILLs itself; the two healthy
  // neighbors must complete untouched.
  FaultRule rule;
  rule.site = FaultSite::kWorkerKill;
  rule.match = "poison";
  rule.count = -1;
  FaultPlan::Global().Install({rule});

  SupervisorConfig config;
  config.max_retries = 1;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"good0", "poison", "good2"}),
      [](size_t index, const AnalysisBudget&) { return OutcomeForIndex(index); });
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].state, TaskResult::State::kDone);
  EXPECT_EQ(results[2].state, TaskResult::State::kDone);
  ExpectOutcomeEq(Bumped(results[0].outcome), OutcomeForIndex(0));
  ExpectOutcomeEq(Bumped(results[2].outcome), OutcomeForIndex(2));

  const TaskResult& poison = results[1];
  EXPECT_EQ(poison.state, TaskResult::State::kQuarantined);
  EXPECT_EQ(poison.attempts, 2u);  // 1 + max_retries
  EXPECT_NE(poison.quarantine_reason.find("after 2 attempts"),
            std::string::npos);
  // One incident per failed attempt plus the quarantine verdict.
  ASSERT_EQ(poison.incidents.size(), 3u);
  EXPECT_EQ(poison.incidents.back().detail, "quarantine");
  EXPECT_EQ(supervisor.stats().retries, 1u);
  EXPECT_EQ(supervisor.stats().quarantined, 1u);
}

TEST_F(SupervisorTest, WorkerDeathFailsOnlyItsTaskAndIsReplaced) {
  // One worker: poison kills it mid-task, the next dispatch forks a
  // replacement that finishes the fleet.
  FaultRule rule;
  rule.site = FaultSite::kWorkerKill;
  rule.match = "poison";
  rule.count = -1;
  FaultPlan::Global().Install({rule});

  SupervisorConfig config;
  config.max_retries = 0;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"good0", "poison", "good2", "good3"}),
      [](size_t index, const AnalysisBudget&) { return OutcomeForIndex(index); });
  ASSERT_EQ(results.size(), 4u);
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
    EXPECT_EQ(results[i].state, TaskResult::State::kDone) << i;
    EXPECT_EQ(results[i].attempts, 1u) << i;
    EXPECT_FALSE(results[i].in_process) << i;
    ExpectOutcomeEq(Bumped(results[i].outcome), OutcomeForIndex(i));
  }
  EXPECT_EQ(results[1].state, TaskResult::State::kQuarantined);
  EXPECT_EQ(supervisor.stats().workers_spawned, 2u);
  EXPECT_EQ(supervisor.stats().worker_failures, 1u);
}

// ---------- result pipe ------------------------------------------------------

/// The write-only pipes open in this process, above stderr.
std::set<int> WriteOnlyPipes() {
  std::set<int> fds;
  for (int fd = 3; fd < 1024; ++fd) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && S_ISFIFO(st.st_mode) &&
        (::fcntl(fd, F_GETFL) & O_ACCMODE) == O_WRONLY) {
      fds.insert(fd);
    }
  }
  return fds;
}

/// The write-only pipes the test process held before Run forked.
std::set<int> pipes_before_run;

/// In a forked worker, writes `bytes` past the supervisor to its result
/// pipe: the one write-only pipe the test process did not hold before
/// Run (the worker closes the parent's ends of every other worker's).
void WriteToResultPipe(const std::string& bytes) {
  std::set<int> fds = WriteOnlyPipes();
  for (int fd : pipes_before_run) fds.erase(fd);
  ASSERT_EQ(fds.size(), 1u);
  int fd = *fds.begin();
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

/// Runs `labels` on one forked worker without retries.
std::vector<TaskResult> RunOnOneWorker(const std::vector<std::string>& labels,
                                       const TaskFn& fn,
                                       SupervisorStats* stats) {
  SupervisorConfig config;
  config.max_retries = 0;
  ScanSupervisor supervisor(config);
  pipes_before_run = WriteOnlyPipes();
  std::vector<TaskResult> results = supervisor.Run(Tasks(labels), fn);
  *stats = supervisor.stats();
  return results;
}

void ExpectWireFailure(const TaskResult& result) {
  EXPECT_EQ(result.state, TaskResult::State::kQuarantined);
  EXPECT_EQ(result.quarantine_reason, "worker wire after 1 attempts");
}

TEST_F(SupervisorTest, WorkerThatExitsBeforeItsResultLineFailsAsWire) {
  // Both workers exit 0 without a '\n': one wrote nothing, the other a
  // whole outcome with no line end. Neither answered.
  SupervisorStats stats;
  auto results = RunOnOneWorker(
      {"silent", "unended"},
      [](size_t index, const AnalysisBudget&) -> ScanOutcome {
        if (index == 1) WriteToResultPipe(ScanOutcomeToJson(OutcomeForIndex(1)));
        ::_exit(0);
      },
      &stats);
  ASSERT_EQ(results.size(), 2u);
  ExpectWireFailure(results[0]);
  ExpectWireFailure(results[1]);
  EXPECT_EQ(stats.workers_spawned, 2u);
}

TEST_F(SupervisorTest, UndecodableResultLineFailsAsWireAndReplacesTheWorker) {
  // An outcome without a status does not decode: the worker is out of
  // step, so it is killed, and the next task gets a fresh one.
  SupervisorStats stats;
  auto results = RunOnOneWorker(
      {"blank", "good"},
      [](size_t index, const AnalysisBudget&) {
        ScanOutcome out = OutcomeForIndex(index);
        if (index == 0) out.status.clear();
        return out;
      },
      &stats);
  ASSERT_EQ(results.size(), 2u);
  ExpectWireFailure(results[0]);
  EXPECT_EQ(results[1].state, TaskResult::State::kDone);
  ExpectOutcomeEq(Bumped(results[1].outcome), OutcomeForIndex(1));
  EXPECT_EQ(stats.workers_spawned, 2u);
  EXPECT_EQ(stats.worker_failures, 1u);
}

TEST_F(SupervisorTest, BytesAfterTheResultLineFailAsWire) {
  // A whole, decodable line followed by more bytes, in one write: the
  // line is not taken, and the worker is replaced.
  SupervisorStats stats;
  auto results = RunOnOneWorker(
      {"trailing", "good"},
      [](size_t index, const AnalysisBudget&) {
        if (index == 0) {
          WriteToResultPipe(ScanOutcomeToJson(OutcomeForIndex(0)) + "\n{");
        }
        return OutcomeForIndex(index);
      },
      &stats);
  ASSERT_EQ(results.size(), 2u);
  ExpectWireFailure(results[0]);
  EXPECT_EQ(results[1].state, TaskResult::State::kDone);
  EXPECT_EQ(stats.workers_spawned, 2u);
}

TEST_F(SupervisorTest, EachTaskOnAReusedWorkerSeesTheForkTimeFaultCounters) {
  // A count-1 rule matching everything fires once per process — but a
  // reused worker rewinds the counters before each task, so it fires
  // in every task, as it did when each task had a worker of its own.
  FaultRule rule;
  rule.site = FaultSite::kLoad;
  FaultPlan::Global().Install({rule});

  SupervisorConfig config;
  config.max_retries = 0;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"a", "b", "c"}), [](size_t index, const AnalysisBudget&) {
        ScanOutcome out = OutcomeForIndex(index);
        out.status =
            FaultPlan::Global().ShouldFail(FaultSite::kLoad, "image")
                ? "fired"
                : "quiet";
        return out;
      });
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].state, TaskResult::State::kDone) << i;
    EXPECT_EQ(results[i].outcome.status, "fired") << i;
  }
  EXPECT_EQ(supervisor.stats().workers_spawned, 1u);
}

TEST_F(SupervisorTest, CpuLimitIsPerTaskNotPerWorker) {
  // image_timeout_ms 999 gives each task a 2 s CPU allowance (3 s for
  // the first, as the CPU used before it rounds up to a second).
  // Eighty tasks of 0.05 CPU s on one worker use 4 s together: a limit
  // counted from the worker's fork would kill it partway through. Each
  // task's watchdog leaves it 20x its CPU in wall time, so a task still
  // ends on a host whose cores the other tests keep busy.
  constexpr double kTaskCpuMs = 50;
  constexpr int kTasks = 80;
  SupervisorConfig config;
  config.max_retries = 0;
  config.image_timeout_ms = 999;
  std::vector<std::string> labels;
  for (int i = 0; i < kTasks; ++i) labels.push_back("t" + std::to_string(i));
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks(labels), [](size_t index, const AnalysisBudget&) {
        auto cpu_ms = [] {
          struct timespec ts;
          ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
          return ts.tv_sec * 1000.0 + ts.tv_nsec / 1e6;
        };
        double start = cpu_ms();
        volatile uint64_t sink = 0;
        while (cpu_ms() - start < kTaskCpuMs) {
          for (int i = 0; i < 10000; ++i) sink = sink + static_cast<uint64_t>(i);
        }
        return OutcomeForIndex(index);
      });
  ASSERT_EQ(results.size(), static_cast<size_t>(kTasks));
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].state, TaskResult::State::kDone)
        << i << ": " << results[i].quarantine_reason;
  }
  EXPECT_EQ(supervisor.stats().workers_spawned, 1u);
}

TEST_F(SupervisorTest, RunReapsEveryWorkerBeforeReturning) {
  auto expect_no_child = [](const char* when) {
    int status = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << when;
    EXPECT_EQ(errno, ECHILD) << when;
  };
  TaskFn fn = [](size_t index, const AnalysisBudget&) {
    return OutcomeForIndex(index);
  };

  SupervisorConfig config;
  config.workers = 2;
  {
    ScanSupervisor supervisor(config);
    auto results = supervisor.Run(Tasks({"a", "b", "c", "d"}), fn);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(supervisor.stats().workers_spawned, 2u);
  }
  expect_no_child("after a clean run");

  // A stop_on_failure stop leaves the surviving worker idle; it must
  // still be shut down and reaped. The slow task keeps the second
  // worker busy until the poison's death has stopped the run.
  FaultRule rule;
  rule.site = FaultSite::kWorkerKill;
  rule.match = "poison";
  rule.count = -1;
  FaultPlan::Global().Install({rule});
  config.max_retries = 0;
  config.stop_on_failure = true;
  {
    ScanSupervisor supervisor(config);
    auto results = supervisor.Run(
        Tasks({"poison", "slow", "late"}),
        [](size_t index, const AnalysisBudget&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          return OutcomeForIndex(index);
        });
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].state, TaskResult::State::kQuarantined);
    EXPECT_EQ(results[1].state, TaskResult::State::kDone);
    EXPECT_EQ(results[2].state, TaskResult::State::kSkipped);
  }
  expect_no_child("after a stop_on_failure stop");
}

TEST_F(SupervisorTest, WatchdogKillsHungWorker) {
  FaultRule rule;
  rule.site = FaultSite::kWorkerHang;
  rule.match = "hang";
  rule.count = -1;
  FaultPlan::Global().Install({rule});

  SupervisorConfig config;
  config.max_retries = 0;
  config.image_timeout_ms = 200;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"hang"}),
      [](size_t index, const AnalysisBudget&) { return OutcomeForIndex(index); });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, TaskResult::State::kQuarantined);
  EXPECT_NE(results[0].quarantine_reason.find("timeout"), std::string::npos);
}

TEST_F(SupervisorTest, MemLimitTurnsRunawayAllocationIntoOomFailure) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RLIMIT_AS is meaningless under sanitizers";
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "RLIMIT_AS is meaningless under sanitizers";
#endif
#endif
  SupervisorConfig config;
  config.max_retries = 0;
  config.mem_limit_mb = 128;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"hog"}), [](size_t, const AnalysisBudget&) {
        // Far past RLIMIT_AS; the child's bad_alloc handler exits with
        // kWorkerExitOom. Touch pages so the optimizer keeps the vector.
        std::vector<char> hog;
        hog.resize(size_t{1} << 31, 'x');
        ScanOutcome out;
        out.status = "ok";
        out.functions = static_cast<uint64_t>(hog.back());
        return out;
      });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, TaskResult::State::kQuarantined);
  EXPECT_NE(results[0].quarantine_reason.find("oom"), std::string::npos);
#endif
}

TEST_F(SupervisorTest, StopOnFailureSkipsRemainingTasks) {
  FaultRule rule;
  rule.site = FaultSite::kWorkerKill;
  rule.match = "poison";
  rule.count = -1;
  FaultPlan::Global().Install({rule});

  SupervisorConfig config;
  config.workers = 0;
  config.max_retries = 0;
  config.stop_on_failure = true;
  ScanSupervisor supervisor(config);
  int ran = 0;
  auto results = supervisor.Run(
      Tasks({"poison", "late0", "late1"}),
      [&](size_t index, const AnalysisBudget&) {
        ++ran;
        return OutcomeForIndex(index);
      });
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].state, TaskResult::State::kQuarantined);
  EXPECT_EQ(results[1].state, TaskResult::State::kSkipped);
  EXPECT_EQ(results[2].state, TaskResult::State::kSkipped);
  EXPECT_EQ(ran, 0);
}

// ---------- resume from the event stream -------------------------------------

/// Runs `tasks` with the global event stream open on `path` (appended
/// to with `resume`, as `corpus_scan --resume` does) and, with
/// `resume`, replaying it first.
std::vector<TaskResult> RunWithStream(const fs::path& path, bool resume,
                                      const std::vector<TaskSpec>& tasks,
                                      const TaskFn& fn,
                                      SupervisorConfig config,
                                      SupervisorStats* stats = nullptr) {
  obs::EventStream& stream = obs::EventStream::Global();
  EXPECT_TRUE(stream.Open(path.string(), "supervisor_test", resume));
  if (resume) config.resume_from = path.string();
  ScanSupervisor supervisor(config);
  std::vector<TaskResult> results = supervisor.Run(tasks, fn);
  stream.Close("ok");
  if (stats) *stats = supervisor.stats();
  return results;
}

/// The `type` events of a stream, in order.
std::vector<JsonValue> EventsOfType(std::string_view ndjson,
                                    std::string_view type) {
  std::vector<JsonValue> events;
  obs::ForEachEvent(ndjson, [&](const JsonValue& event, std::string_view t) {
    if (t == type) events.push_back(event);
  });
  return events;
}

TEST_F(SupervisorTest, StreamRecordsEveryTerminalResultForResume) {
  fs::path path = ScratchDir("stream_resume") / "events.ndjson";
  FaultRule rule;
  rule.site = FaultSite::kWorkerKill;
  rule.match = "poison";
  rule.count = -1;
  FaultPlan::Global().Install({rule});
  int scans = 0;
  // Task 0 carries every codec field, JSON-hostile bytes included.
  TaskFn fn = [&](size_t index, const AnalysisBudget&) {
    ++scans;
    return index == 0 ? SampleOutcome() : OutcomeForIndex(index);
  };
  std::vector<TaskSpec> tasks = Tasks({"a", "poison", "c"});
  SupervisorConfig config;
  config.workers = 0;
  config.max_retries = 1;
  std::vector<TaskResult> first =
      RunWithStream(path, /*resume=*/false, tasks, fn, config);
  ASSERT_EQ(first[1].state, TaskResult::State::kQuarantined);
  EXPECT_EQ(scans, 2);

  // The parent's terminal records carry everything a resume needs.
  std::vector<JsonValue> done = EventsOfType(ReadAll(path), "image_done");
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].Find("image")->string(), "a");
  EXPECT_EQ(done[0].Find("fp")->string(), "fp_a");
  EXPECT_EQ(static_cast<int>(done[0].Find("attempts")->number()), 1);
  EXPECT_TRUE(done[0].Find("outcome")->is_object());
  std::vector<JsonValue> quarantined =
      EventsOfType(ReadAll(path), "image_quarantined");
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].Find("fp")->string(), "fp_poison");
  EXPECT_EQ(static_cast<int>(quarantined[0].Find("worker_restarts")->number()),
            2);
  EXPECT_EQ(quarantined[0].Find("incidents")->array().size(), 3u);

  // Resume: nothing is scanned again, and every result comes back as
  // the first run had it.
  FaultPlan::Global().Clear();
  SupervisorStats stats;
  std::vector<TaskResult> resumed =
      RunWithStream(path, /*resume=*/true, tasks, fn, config, &stats);
  EXPECT_EQ(scans, 2) << "resume must not re-scan recorded images";
  EXPECT_EQ(stats.resumed, 3u);
  ASSERT_EQ(resumed.size(), 3u);
  for (size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_TRUE(resumed[i].resumed) << i;
    EXPECT_EQ(resumed[i].state, first[i].state) << i;
    EXPECT_EQ(resumed[i].attempts, first[i].attempts) << i;
    EXPECT_EQ(resumed[i].worker_restarts, first[i].worker_restarts) << i;
    ASSERT_EQ(resumed[i].incidents.size(), first[i].incidents.size()) << i;
  }
  ExpectOutcomeEq(resumed[0].outcome, SampleOutcome());
  ExpectOutcomeEq(resumed[2].outcome, OutcomeForIndex(2));
  EXPECT_EQ(resumed[1].quarantine_reason, first[1].quarantine_reason);
  EXPECT_EQ(resumed[1].incidents.back().detail, "quarantine");
  // The resumed segment records each replayed done image again, so the
  // file stays a complete record however often it is resumed.
  EXPECT_EQ(EventsOfType(ReadAll(path), "image_done").size(), 4u);
  EXPECT_EQ(EventsOfType(ReadAll(path), "image_quarantined").size(), 1u);

  // Resuming from a file that does not exist is a fresh run.
  SupervisorConfig fresh = config;
  fresh.resume_from = (path.parent_path() / "missing.ndjson").string();
  ScanSupervisor supervisor(fresh);
  supervisor.Run(tasks, fn);
  EXPECT_EQ(scans, 5);
  EXPECT_EQ(supervisor.stats().resumed, 0u);
}

TEST_F(SupervisorTest, StreamReplayTrustsOnlyWholeTerminalRecords) {
  fs::path path = ScratchDir("stream_untrusted") / "events.ndjson";
  const std::string outcome = ScanOutcomeToJson(OutcomeForIndex(5));
  {
    std::ofstream out(path, std::ios::binary);
    out << "not json\n"
        // No fingerprint.
        << R"({"v":1,"type":"image_done","image":"a","outcome":)" << outcome
        << "}\n"
        // No outcome.
        << R"({"v":1,"type":"image_done","image":"b","fp":"fp_b"})" << "\n"
        // An outcome without its status.
        << R"({"v":1,"type":"image_done","image":"c","fp":"fp_c",)"
        << R"("outcome":{"findings_json":"[]"}})" << "\n"
        // Begun, never finished.
        << R"({"v":1,"type":"image_begin","image":"d","fp":"fp_d"})" << "\n"
        // An incident with an unknown status code.
        << R"({"v":1,"type":"image_quarantined","image":"f","fp":"fp_f",)"
        << R"("reason":"r","incidents":[{"code":"NOPE"}]})" << "\n"
        // The one whole record.
        << R"({"v":1,"type":"image_done","image":"e","fp":"fp_e",)"
        << R"("attempts":1,"worker_restarts":0,"incidents":[],"outcome":)"
        << outcome << "}\n";
  }
  int scans = 0;
  SupervisorConfig config;
  config.workers = 0;
  config.resume_from = path.string();
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(Tasks({"a", "b", "c", "d", "e", "f"}),
                                [&](size_t index, const AnalysisBudget&) {
                                  ++scans;
                                  return OutcomeForIndex(index);
                                });
  EXPECT_EQ(scans, 5);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].state, TaskResult::State::kDone) << i;
    EXPECT_EQ(results[i].resumed, i == 4) << i;
    ExpectOutcomeEq(results[i].outcome, OutcomeForIndex(i == 4 ? 5 : i));
  }
}

TEST_F(SupervisorTest, StreamReplaySurvivesTornWritesAndGarbage) {
  fs::path path = ScratchDir("stream_torn") / "events.ndjson";
  int scans = 0;
  TaskFn fn = [&](size_t index, const AnalysisBudget&) {
    ++scans;
    return OutcomeForIndex(index);
  };
  std::vector<TaskSpec> tasks = Tasks({"A", "B", "C", "D"});
  SupervisorConfig config;
  config.workers = 0;
  // B's image_done is torn: a prefix, no newline. C's, the next line,
  // glues onto it — at-least-once means C's record may be lost with
  // B's; D's must survive because C's newline ended the glued line.
  FaultRule rule;
  rule.site = FaultSite::kStreamTorn;
  rule.match = "B";
  FaultPlan::Global().Install({rule});
  RunWithStream(path, /*resume=*/false, tasks, fn, config);
  FaultPlan::Global().Clear();
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "}{ total garbage\n";
  }
  size_t malformed = obs::ForEachEvent(
      ReadAll(path), [](const JsonValue&, std::string_view) {});
  EXPECT_EQ(malformed, 2u);  // the glued torn line + the garbage

  std::vector<TaskResult> results =
      RunWithStream(path, /*resume=*/true, tasks, fn, config);
  EXPECT_EQ(scans, 4 + 2) << "only the lost records cost a re-scan";
  EXPECT_TRUE(results[0].resumed);
  EXPECT_FALSE(results[1].resumed);  // torn away
  EXPECT_FALSE(results[2].resumed);  // glued onto the torn line
  EXPECT_TRUE(results[3].resumed);   // the line after survives
  // A torn record is lost, never misparsed.
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectOutcomeEq(results[i].outcome, OutcomeForIndex(i));
  }
}

TEST_F(SupervisorTest, ResumeReplaysStreamWithoutRescanning) {
  // Scans are counted in the metrics registry, which a forked task's
  // counters reach through its outcome: the first run folds one scan
  // per image under either runner, and a resume folds none, though a
  // forked run's replayed outcomes carry their counters.
  obs::Counter& scans =
      obs::MetricsRegistry::Global().counter("supervisor_test.scans");
  TaskFn fn = [](size_t index, const AnalysisBudget&) {
    obs::MetricsRegistry::Global().counter("supervisor_test.scans").Add();
    return OutcomeForIndex(index);
  };
  std::vector<TaskSpec> tasks = Tasks({"a", "b"});
  for (int workers : {0, 1}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    fs::path path =
        ScratchDir("supervisor_resume" + std::to_string(workers)) /
        "events.ndjson";
    SupervisorConfig config;
    config.workers = workers;
    const uint64_t before = scans.Value();
    auto first = RunWithStream(path, /*resume=*/false, tasks, fn, config);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].state, TaskResult::State::kDone);
    EXPECT_EQ(scans.Value() - before, 2u);

    SupervisorStats stats;
    auto results =
        RunWithStream(path, /*resume=*/true, tasks, fn, config, &stats);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(scans.Value() - before, 2u)
        << "resume must not re-scan recorded images or fold their counters";
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].state, TaskResult::State::kDone);
      EXPECT_TRUE(results[i].resumed);
      ExpectOutcomeEq(results[i].outcome, first[i].outcome);
      ScanOutcome want = OutcomeForIndex(i);
      if (workers > 0) want.counters["supervisor_test.scans"] = 1;
      ExpectOutcomeEq(Bumped(results[i].outcome), want);
    }
    EXPECT_EQ(stats.resumed, 2u);

    // A changed blob (different fingerprint, same label) is re-scanned:
    // the replay keys on content, not on the human label.
    std::vector<TaskSpec> changed = tasks;
    changed[1].fingerprint = "fp_b_v2";
    auto results3 = RunWithStream(path, /*resume=*/true, changed, fn, config);
    EXPECT_EQ(scans.Value() - before, 3u);
    EXPECT_TRUE(results3[0].resumed);
    EXPECT_FALSE(results3[1].resumed);
  }
}

// ---------- scan_report supervisor aggregation -------------------------------

TEST_F(SupervisorTest, ScanReportAggregatesSupervisorLifecycle) {
  // Two streams from the same fleet: the first run retried "flaky"
  // once, quarantined "poison" and was killed scanning "late"; the
  // resumed run replayed "flaky" and scanned "late". Rows must merge by
  // image name across streams, and image_done, which the parent writes
  // for resume, shows up only in events_by_type.
  const std::string first_run =
      "{\"v\":1,\"type\":\"stream_begin\",\"ts_ms\":0,\"tid\":0}\n"
      "{\"v\":1,\"type\":\"image_begin\",\"ts_ms\":1,\"tid\":0,"
      "\"image\":\"flaky\",\"arch\":\"arm\",\"packing\":\"none\"}\n"
      "{\"v\":1,\"type\":\"worker_exit\",\"ts_ms\":2,\"tid\":0,"
      "\"image\":\"flaky\",\"attempt\":1,\"failure\":\"signal\"}\n"
      "{\"v\":1,\"type\":\"image_retry\",\"ts_ms\":3,\"tid\":0,"
      "\"image\":\"flaky\",\"next_attempt\":2,\"failure\":\"signal\"}\n"
      "{\"v\":1,\"type\":\"image_begin\",\"ts_ms\":4,\"tid\":0,"
      "\"image\":\"flaky\",\"arch\":\"arm\",\"packing\":\"none\"}\n"
      "{\"v\":1,\"type\":\"image_end\",\"ts_ms\":5,\"tid\":0,"
      "\"image\":\"flaky\",\"status\":\"ok\",\"complete\":true,"
      "\"functions\":7,\"findings\":1,\"duration_ms\":2.0}\n"
      "{\"v\":1,\"type\":\"image_done\",\"ts_ms\":5.5,\"tid\":0,"
      "\"image\":\"flaky\",\"fp\":\"f1\",\"attempts\":2,"
      "\"worker_restarts\":1,\"incidents\":[],\"outcome\":{}}\n"
      "{\"v\":1,\"type\":\"worker_exit\",\"ts_ms\":6,\"tid\":0,"
      "\"image\":\"poison\",\"attempt\":1,\"failure\":\"signal\"}\n"
      "{\"v\":1,\"type\":\"image_quarantined\",\"ts_ms\":7,\"tid\":0,"
      "\"image\":\"poison\",\"fp\":\"f2\",\"attempts\":1,"
      "\"worker_restarts\":1,\"reason\":\"worker signal\","
      "\"incidents\":[]}\n"
      "{\"v\":1,\"type\":\"image_begin\",\"ts_ms\":8,\"tid\":0,"
      "\"image\":\"late\",\"arch\":\"arm\",\"packing\":\"none\"}\n";
  const std::string resumed_run =
      "{\"v\":1,\"type\":\"stream_begin\",\"ts_ms\":0,\"tid\":0}\n"
      "{\"v\":1,\"type\":\"image_resumed\",\"ts_ms\":1,\"tid\":0,"
      "\"image\":\"flaky\",\"status\":\"ok\",\"attempts\":2}\n"
      "{\"v\":1,\"type\":\"image_done\",\"ts_ms\":1.5,\"tid\":0,"
      "\"image\":\"flaky\",\"fp\":\"f1\",\"attempts\":2,"
      "\"worker_restarts\":1,\"incidents\":[],\"outcome\":{}}\n"
      "{\"v\":1,\"type\":\"image_begin\",\"ts_ms\":2,\"tid\":0,"
      "\"image\":\"late\",\"arch\":\"arm\",\"packing\":\"none\"}\n"
      "{\"v\":1,\"type\":\"image_end\",\"ts_ms\":3,\"tid\":0,"
      "\"image\":\"late\",\"status\":\"ok\",\"complete\":true,"
      "\"functions\":3,\"findings\":0,\"duration_ms\":1.0}\n"
      "{\"v\":1,\"type\":\"image_done\",\"ts_ms\":3.5,\"tid\":0,"
      "\"image\":\"late\",\"fp\":\"f3\",\"attempts\":1,"
      "\"worker_restarts\":0,\"incidents\":[],\"outcome\":{}}\n"
      "{\"v\":1,\"type\":\"stream_end\",\"ts_ms\":4,\"tid\":0}\n";

  obs::ScanAggregate agg;
  obs::AggregateEvents(first_run, &agg);
  obs::AggregateEvents(resumed_run, &agg);
  obs::FinalizeAggregate(&agg, obs::ScanReportOptions{});

  EXPECT_EQ(agg.streams, 2u);
  EXPECT_EQ(agg.truncated_streams, 1u);
  EXPECT_EQ(agg.image_retries, 1u);
  EXPECT_EQ(agg.quarantined_images, 1u);
  EXPECT_EQ(agg.worker_exits, 2u);
  EXPECT_EQ(agg.resumed_images, 1u);
  EXPECT_EQ(agg.events_by_type.at("image_done"), 3u);

  // One logical row per image, with the attempt count folded in.
  ASSERT_EQ(agg.images.size(), 3u);
  EXPECT_EQ(agg.images[0].image, "flaky");
  EXPECT_EQ(agg.images[0].status, "ok");
  EXPECT_EQ(agg.images[0].attempts, 2u);
  EXPECT_TRUE(agg.images[0].resumed);
  EXPECT_EQ(agg.images[1].image, "poison");
  EXPECT_EQ(agg.images[1].status, "quarantined");
  EXPECT_EQ(agg.images[2].image, "late");
  EXPECT_EQ(agg.images[2].status, "ok");
  EXPECT_EQ(agg.images[2].attempts, 2u);
  EXPECT_FALSE(agg.images[2].resumed);

  std::string md = obs::AggregateToMarkdown(agg);
  EXPECT_NE(md.find("| Attempts |"), std::string::npos);
  EXPECT_NE(md.find("supervisor: 1 retried, 1 quarantined"),
            std::string::npos);
  EXPECT_NE(md.find("(resumed)"), std::string::npos);

  const std::string agg_json = obs::AggregateToJson(agg);
  auto json = ParseJson(agg_json);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(static_cast<int>(json->Find("quarantined_images")->number()), 1);
  EXPECT_EQ(static_cast<int>(json->Find("image_retries")->number()), 1);
  const auto& images = json->Find("images")->array();
  ASSERT_EQ(images.size(), 3u);
  EXPECT_EQ(static_cast<int>(images[0].Find("attempts")->number()), 2);
  EXPECT_TRUE(images[0].Find("resumed")->boolean());

  // `corpus_scan --resume` appends the resumed run to the killed run's
  // file: read as one file, the two streams aggregate and convert
  // exactly as they do read as two.
  obs::ScanAggregate one_file;
  obs::AggregateEvents(first_run + resumed_run, &one_file);
  obs::FinalizeAggregate(&one_file, obs::ScanReportOptions{});
  EXPECT_EQ(obs::AggregateToJson(one_file), agg_json);
  const std::string trace = obs::EventsToChromeTrace({first_run, resumed_run});
  EXPECT_EQ(obs::EventsToChromeTrace({first_run + resumed_run}), trace);
  // The killed run's open "late" slice and the resumed run's closed one
  // sit on different pids.
  auto parsed = ParseJson(trace);
  ASSERT_TRUE(parsed.ok());
  const auto& records = parsed->Find("traceEvents")->array();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[3].Find("name")->string(), "late");
  EXPECT_EQ(static_cast<int>(records[3].Find("pid")->number()), 1);
  EXPECT_EQ(records[4].Find("name")->string(), "late");
  EXPECT_EQ(static_cast<int>(records[4].Find("pid")->number()), 2);
}

// ---------- kill-mid-scan resume oracle (corpus_scan subprocess) -------------

const char* CorpusScanBin() { return std::getenv("DTAINT_CORPUS_SCAN_BIN"); }

int RunScan(const std::string& bin, const std::string& args) {
  std::string cmd =
      "\"" + bin + "\" --heartbeat-ms 0 " + args + " > /dev/null 2>&1";
  return std::system(cmd.c_str());
}

/// The `image` field of every `type` event in `ndjson`, in order.
std::vector<std::string> ImagesOf(std::string_view ndjson,
                                  std::string_view type) {
  std::vector<std::string> images;
  for (const JsonValue& event : EventsOfType(ndjson, type)) {
    images.emplace_back(event.Find("image")->string());
  }
  return images;
}

/// corpus_scan's images ahead of the one the oracles kill it on.
const std::vector<std::string> kBeforeTenda = {
    "D-Link DIR-505", "D-Link DIR-868L", "Netgear R7000", "Netgear WNR2000"};

TEST_F(SupervisorTest, ResumeOracleSurvivesKillMidScan) {
  const char* bin = CorpusScanBin();
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  fs::path dir = ScratchDir("resume_oracle");
  for (std::string workers : {"0", "1"}) {
    SCOPED_TRACE("--workers " + workers);
    const std::string runner = "--workers " + workers;
    fs::path clean_json = dir / ("clean" + workers + ".json");
    fs::path resumed_json = dir / ("resumed" + workers + ".json");
    fs::path events = dir / ("crash" + workers + ".ndjson");

    // Ground truth: the corpus scanned to completion.
    ASSERT_EQ(RunScan(bin, runner + " --json-out \"" + clean_json.string() +
                               "\""),
              0);
    std::string want = ReadAll(clean_json);
    ASSERT_FALSE(want.empty());

    // Kill the scan mid-fleet at a deterministic point: in process,
    // ScanImage's crash consult right after Tenda AC15's image_begin;
    // with a worker, the parent's consult before the image's first
    // request.
    ::setenv("DTAINT_FAULTS", "crash@Tenda AC15", 1);
    int rc_crash = RunScan(bin, runner + " --events-out \"" +
                                    events.string() + "\" --json-out \"" +
                                    (dir / "partial.json").string() + "\"");
    ::unsetenv("DTAINT_FAULTS");
    EXPECT_NE(rc_crash, 0) << "crash fault should have killed the scan";
    // The stream holds a whole image_done for every image finished
    // before the kill, and none for the one in flight.
    const std::string crashed = ReadAll(events);
    EXPECT_EQ(ImagesOf(crashed, "image_done"), kBeforeTenda);

    // Resume. The merged fleet JSON must be byte-identical to the
    // uninterrupted run's — kill -9 plus --resume == never killed.
    ASSERT_EQ(RunScan(bin, runner + " --resume --events-out \"" +
                               events.string() + "\" --json-out \"" +
                               resumed_json.string() + "\""),
              0);
    EXPECT_EQ(ReadAll(resumed_json), want) << "resume oracle violated";
    // The resumed run appended to the file: it replayed the finished
    // images and scanned from the one in flight on.
    const std::string appended = ReadAll(events).substr(crashed.size());
    EXPECT_EQ(ImagesOf(appended, "image_resumed"), kBeforeTenda);
    std::vector<std::string> begun = ImagesOf(appended, "image_begin");
    ASSERT_FALSE(begun.empty());
    EXPECT_EQ(begun.front(), "Tenda AC15");
  }
}

TEST_F(SupervisorTest, ResumeOracleSurvivesATornLastLine) {
  const char* bin = CorpusScanBin();
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  fs::path dir = ScratchDir("resume_torn");
  fs::path clean_json = dir / "clean.json";
  fs::path resumed_json = dir / "resumed.json";
  fs::path events = dir / "crash.ndjson";
  ASSERT_EQ(RunScan(bin, "--workers 1 --json-out \"" + clean_json.string() +
                             "\""),
            0);

  // Netgear WNR2000's image_done is torn, and the parent dies before
  // the next image's first request: the file ends mid-line.
  ::setenv("DTAINT_FAULTS", "stream_torn@Netgear WNR2000;crash@Tenda AC15",
           1);
  int rc_crash = RunScan(bin, "--workers 1 --events-out \"" +
                                  events.string() + "\"");
  ::unsetenv("DTAINT_FAULTS");
  EXPECT_NE(rc_crash, 0);
  const std::string crashed = ReadAll(events);
  ASSERT_FALSE(crashed.empty());
  EXPECT_NE(crashed.back(), '\n');
  EXPECT_EQ(ImagesOf(crashed, "image_done"),
            std::vector<std::string>(kBeforeTenda.begin(),
                                     kBeforeTenda.end() - 1));

  ASSERT_EQ(RunScan(bin, "--workers 1 --resume --events-out \"" +
                             events.string() + "\" --json-out \"" +
                             resumed_json.string() + "\""),
            0);
  EXPECT_EQ(ReadAll(resumed_json), ReadAll(clean_json))
      << "resume oracle violated";
  // The torn record costs only its image a re-scan, and the appended
  // stream starts on a line of its own: none of its lines is lost.
  const std::string appended = ReadAll(events).substr(crashed.size());
  EXPECT_EQ(appended.front(), '\n');
  std::vector<std::string> types;
  size_t malformed = obs::ForEachEvent(
      appended, [&](const JsonValue&, std::string_view type) {
        types.emplace_back(type);
      });
  EXPECT_EQ(malformed, 0u);
  ASSERT_FALSE(types.empty());
  EXPECT_EQ(types.front(), "stream_begin");
  EXPECT_EQ(ImagesOf(appended, "image_resumed"),
            std::vector<std::string>(kBeforeTenda.begin(),
                                     kBeforeTenda.end() - 1));
  std::vector<std::string> begun = ImagesOf(appended, "image_begin");
  ASSERT_GE(begun.size(), 2u);
  EXPECT_EQ(begun[0], "Netgear WNR2000");
  EXPECT_EQ(begun[1], "Tenda AC15");
}

TEST_F(SupervisorTest, HeartbeatCountsEveryImageTheParentFolds) {
  const char* bin = CorpusScanBin();
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  fs::path dir = ScratchDir("heartbeat");
  // The heartbeats' images_done, the last one's functions_done, and the
  // --metrics-out counters but the ones that count a process:
  // supervisor.workers_spawned, and intern.recycles (each worker's
  // first image has no earlier generation to recycle).
  // events.emitted counts the 1 ms beats, so it is checked per run.
  struct Beats {
    std::vector<uint64_t> images_done;
    uint64_t images_total = 0;
    uint64_t functions_done = 0;
    std::map<std::string, uint64_t> counters;
  };
  auto beats_of = [&](const std::string& workers) {
    SCOPED_TRACE("--workers " + workers);
    fs::path events = dir / ("events" + workers + ".ndjson");
    fs::path metrics = dir / ("metrics" + workers + ".json");
    std::string cmd = "\"" + std::string(bin) + "\" --workers " + workers +
                      " --heartbeat-ms 1 --events-out \"" + events.string() +
                      "\" --metrics-out \"" + metrics.string() +
                      "\" > /dev/null 2>&1";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    Beats beats;
    uint64_t lines = 0;
    obs::ForEachEvent(ReadAll(events), [&](const JsonValue& event,
                                           std::string_view type) {
      ++lines;
      if (type != "heartbeat") return;
      beats.images_done.push_back(FieldCount(event, "images_done"));
      beats.images_total = FieldCount(event, "images_total");
      beats.functions_done = FieldCount(event, "functions_done");
    });
    auto parsed = ParseJson(ReadAll(metrics));
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return beats;
    const JsonValue* counters = parsed->Find("counters");
    EXPECT_TRUE(counters && counters->is_object());
    if (!counters || !counters->is_object()) return beats;
    for (const auto& entry : counters->object()) {
      beats.counters[entry.first] = FieldCount(*counters, entry.first);
    }
    // Every line but stream_end, written after the metrics, the
    // workers' lines included.
    EXPECT_EQ(beats.counters["events.emitted"] + 1, lines);
    for (const char* name :
         {"events.emitted", "intern.recycles", "supervisor.workers_spawned"}) {
      beats.counters.erase(name);
    }
    return beats;
  };
  Beats in_process = beats_of("0");
  EXPECT_GT(in_process.functions_done, 0u);
  EXPECT_GT(in_process.counters["summary.functions"], 0u);
  for (std::string workers : {"1", "2"}) {
    SCOPED_TRACE("--workers " + workers);
    Beats forked = beats_of(workers);
    // The parent beats once per image it folds, whichever worker
    // finished it.
    EXPECT_EQ(forked.images_total, 8u);
    std::vector<uint64_t>& done = forked.images_done;
    EXPECT_TRUE(std::is_sorted(done.begin(), done.end()));
    std::vector<uint64_t> values = done;
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::vector<uint64_t> every(forked.images_total + 1);
    std::iota(every.begin(), every.end(), uint64_t{0});
    EXPECT_EQ(values, every);
    // Every function and every counter is counted once, whichever
    // process did the work.
    EXPECT_EQ(forked.functions_done, in_process.functions_done);
    EXPECT_EQ(forked.counters, in_process.counters);
  }
}

TEST_F(SupervisorTest, PoisonImageQuarantinedInFleetScan) {
  const char* bin = CorpusScanBin();
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  fs::path dir = ScratchDir("poison_fleet");
  fs::path json_path = dir / "poison.json";
  fs::path events_path = dir / "poison.ndjson";

  ::setenv("DTAINT_FAULTS", "worker_kill@Tenda AC15:*", 1);
  int rc = RunScan(bin, "--workers 1 --max-retries 1 --json-out \"" +
                            json_path.string() + "\" --events-out \"" +
                            events_path.string() + "\"");
  ::unsetenv("DTAINT_FAULTS");
  EXPECT_EQ(rc, 0) << "a poison image must not fail the fleet run";

  auto fleet = ParseJson(ReadAll(json_path));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  const JsonValue* totals = fleet->Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(static_cast<int>(totals->Find("quarantined")->number()), 1);
  EXPECT_EQ(static_cast<int>(totals->Find("retries")->number()), 1);
  EXPECT_EQ(static_cast<int>(totals->Find("worker_restarts")->number()), 2);

  size_t ok_images = 0;
  bool poison_seen = false;
  for (const JsonValue& image : fleet->Find("images")->array()) {
    std::string label = std::string(image.Find("label")->string());
    std::string status = std::string(image.Find("status")->string());
    if (label == "Tenda AC15") {
      poison_seen = true;
      EXPECT_EQ(status, "quarantined");
      EXPECT_EQ(static_cast<int>(image.Find("attempts")->number()), 2);
    } else {
      EXPECT_NE(status, "quarantined") << label;
      if (status == "ok") ++ok_images;
    }
  }
  EXPECT_TRUE(poison_seen);
  EXPECT_GE(ok_images, 4u) << "healthy images must complete untouched";

  // The lifecycle events feed scan_report: one quarantined row there too.
  auto agg = obs::AggregateEventFiles({events_path.string()});
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->quarantined_images, 1u);
  EXPECT_EQ(agg->image_retries, 1u);
  EXPECT_GE(agg->worker_exits, 2u);
}

TEST_F(SupervisorTest, FailFastStopsAtTheSameImageUnderEveryRunner) {
  const char* bin = CorpusScanBin();
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  fs::path dir = ScratchDir("fail_fast");
  // The first extractable image fails to extract; --fail-fast stops the
  // fleet there whether images run in process, in process resuming
  // from a stream that holds no image yet, or in a forked worker.
  auto labels_of = [&](const std::string& name, const std::string& args) {
    fs::path json_path = dir / (name + ".json");
    int rc = RunScan(bin, "--corrupt 1 --fail-fast " + args +
                              " --json-out \"" + json_path.string() + "\"");
    EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 1) << name;
    std::vector<std::string> labels;
    auto fleet = ParseJson(ReadAll(json_path));
    EXPECT_TRUE(fleet.ok()) << name;
    if (!fleet.ok()) return labels;
    for (const JsonValue& image : fleet->Find("images")->array()) {
      labels.emplace_back(image.Find("label")->string());
    }
    return labels;
  };
  std::vector<std::string> plain = labels_of("plain", "");
  ASSERT_FALSE(plain.empty());
  EXPECT_LT(plain.size(), 8u) << "the plain run did not stop";
  EXPECT_EQ(labels_of("resume", "--resume --events-out \"" +
                                    (dir / "resume.ndjson").string() + "\""),
            plain);
  EXPECT_EQ(labels_of("isolate", "--workers 1"), plain);
}

}  // namespace
}  // namespace dtaint

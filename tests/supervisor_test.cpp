// Scan supervisor + checkpoint journal tests.
//
// Three layers of coverage:
//  * codecs — the worker wire frame and the journal record format must
//    round-trip exactly (they carry raw JSON fragments whose bytes are
//    part of the resume oracle's identity contract) and reject any
//    truncation or corruption;
//  * the supervisor state machine — retry with tightened budgets,
//    quarantine after 1 + max_retries attempts, the per-image
//    watchdog, resume-from-journal, stop_on_failure, and reused
//    workers (replacement, per-task limits and counters), exercised
//    both in-process (deterministic, fault-injected) and with real
//    forked workers;
//  * the kill-mid-scan resume oracle — a corpus_scan subprocess is
//    crashed at a fault-injected point, rerun with --resume, and the
//    merged fleet JSON must be byte-identical to an uninterrupted
//    run's; a poison image must quarantine without poisoning the rest
//    of the fleet.
//
// All file outputs land under obs_artifacts/ in the working directory
// so CI can upload them from failing jobs.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/scan_report.h"
#include "src/resilience/budget.h"
#include "src/resilience/fault.h"
#include "src/resilience/journal.h"
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

// ---------- wire codec -------------------------------------------------------

TEST_F(SupervisorTest, WireFrameRoundTrips) {
  ScanOutcome want = SampleOutcome();
  std::string frame = EncodeWireResult(want);
  auto got = DecodeWireResult(frame);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectOutcomeEq(*got, want);
}

TEST_F(SupervisorTest, WireFrameRejectsCorruption) {
  std::string frame = EncodeWireResult(SampleOutcome());

  // Truncation anywhere — the "child died mid-write" spectrum.
  for (size_t len : {size_t{0}, size_t{3}, size_t{11}, frame.size() - 1}) {
    EXPECT_FALSE(DecodeWireResult(std::string_view(frame).substr(0, len)).ok())
        << "prefix of length " << len << " decoded";
  }
  // Trailing bytes after a complete frame.
  EXPECT_FALSE(DecodeWireResult(frame + "x").ok());
  // Bad magic.
  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeWireResult(bad_magic).ok());
  // Version skew.
  std::string bad_version = frame;
  bad_version[4] = static_cast<char>(kWireVersion + 1);
  EXPECT_FALSE(DecodeWireResult(bad_version).ok());
  // Payload corruption that breaks the JSON.
  std::string bad_payload = frame;
  bad_payload[13] = '\xff';
  EXPECT_FALSE(DecodeWireResult(bad_payload).ok());
}

// ---------- journal records --------------------------------------------------

TEST_F(SupervisorTest, JournalRecordsRoundTrip) {
  JournalRecord done;
  done.type = "image_done";
  done.image = "Tenda AC15";
  done.fingerprint = "00ff00ff";
  done.attempts = 3;
  done.worker_restarts = 2;
  Incident inc;
  inc.binary = "Tenda AC15";
  inc.phase = "supervisor";
  inc.detail = "attempt 1";
  inc.status = Internal("worker signal: signal 11");
  done.incidents.push_back(inc);
  done.outcome = SampleOutcome();

  auto parsed = JournalRecordFromLine(JournalRecordToLine(done));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, "image_done");
  EXPECT_EQ(parsed->image, done.image);
  EXPECT_EQ(parsed->fingerprint, done.fingerprint);
  EXPECT_EQ(parsed->attempts, 3u);
  EXPECT_EQ(parsed->worker_restarts, 2u);
  ASSERT_EQ(parsed->incidents.size(), 1u);
  EXPECT_EQ(parsed->incidents[0].detail, "attempt 1");
  ASSERT_TRUE(parsed->outcome.has_value());
  ExpectOutcomeEq(*parsed->outcome, *done.outcome);

  JournalRecord quarantined;
  quarantined.type = "image_quarantined";
  quarantined.image = "poison";
  quarantined.fingerprint = "beef";
  quarantined.attempts = 2;
  quarantined.reason = "worker signal after 2 attempts";
  auto q = JournalRecordFromLine(JournalRecordToLine(quarantined));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->type, "image_quarantined");
  EXPECT_EQ(q->reason, quarantined.reason);
  EXPECT_FALSE(q->outcome.has_value());
}

TEST_F(SupervisorTest, JournalRecordRejectsMalformedLines) {
  EXPECT_FALSE(JournalRecordFromLine("").ok());
  EXPECT_FALSE(JournalRecordFromLine("not json").ok());
  EXPECT_FALSE(JournalRecordFromLine("{\"v\":1}").ok());
  // Wrong schema version.
  EXPECT_FALSE(
      JournalRecordFromLine(
          R"({"v":99,"type":"image_begin","image":"a","fp":"f"})")
          .ok());
  // Unknown type.
  EXPECT_FALSE(
      JournalRecordFromLine(R"({"v":1,"type":"mystery","image":"a","fp":"f"})")
          .ok());
  // image_done without its outcome.
  EXPECT_FALSE(
      JournalRecordFromLine(
          R"({"v":1,"type":"image_done","image":"a","fp":"f","attempts":1})")
          .ok());
}

TEST_F(SupervisorTest, JournalAppendAndReplayRecoverState) {
  fs::path dir = ScratchDir("journal_replay");
  auto journal = ScanJournal::Open(dir.string());
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  JournalRecord begin_a;
  begin_a.type = "image_begin";
  begin_a.image = "A";
  begin_a.fingerprint = "fa";
  JournalRecord done_a = begin_a;
  done_a.type = "image_done";
  done_a.attempts = 2;
  done_a.outcome = SampleOutcome();
  JournalRecord begin_b;
  begin_b.type = "image_begin";
  begin_b.image = "B";
  begin_b.fingerprint = "fb";
  JournalRecord quarantine_c;
  quarantine_c.type = "image_quarantined";
  quarantine_c.image = "C";
  quarantine_c.fingerprint = "fc";
  quarantine_c.reason = "worker timeout after 1 attempts";
  ASSERT_TRUE(journal->Append(begin_a).ok());
  ASSERT_TRUE(journal->Append(done_a).ok());
  ASSERT_TRUE(journal->Append(begin_b).ok());
  ASSERT_TRUE(journal->Append(quarantine_c).ok());

  auto replay = ScanJournal::Replay(dir.string());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records, 4u);
  EXPECT_EQ(replay->garbage_lines, 0u);
  ASSERT_EQ(replay->done.count("fa"), 1u);
  EXPECT_EQ(replay->done.at("fa").attempts, 2u);
  ASSERT_TRUE(replay->done.at("fa").outcome.has_value());
  ExpectOutcomeEq(*replay->done.at("fa").outcome, *done_a.outcome);
  ASSERT_EQ(replay->quarantined.count("fc"), 1u);
  // B began but never finished: the image the dead scan was chewing on.
  ASSERT_EQ(replay->in_flight.size(), 1u);
  EXPECT_EQ(replay->in_flight[0], "B");

  // A missing journal is an empty replay, not an error.
  auto empty = ScanJournal::Replay((dir / "nonexistent").string());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->records, 0u);
}

TEST_F(SupervisorTest, JournalReplaySurvivesTornWritesAndGarbage) {
  fs::path dir = ScratchDir("journal_torn");
  {
    auto journal = ScanJournal::Open(dir.string());
    ASSERT_TRUE(journal.ok());
    JournalRecord done_a;
    done_a.type = "image_done";
    done_a.image = "A";
    done_a.fingerprint = "fa";
    done_a.outcome = SampleOutcome();
    ASSERT_TRUE(journal->Append(done_a).ok());

    // The next record is deliberately torn: only a prefix, no newline.
    FaultRule rule;
    rule.site = FaultSite::kJournalTorn;
    rule.match = "image_done:B";
    FaultPlan::Global().Install({rule});
    JournalRecord done_b = done_a;
    done_b.image = "B";
    done_b.fingerprint = "fb";
    ASSERT_TRUE(journal->Append(done_b).ok());
    FaultPlan::Global().Clear();

    // The record after the torn one glues onto its line — at-least-once
    // means C's record may be lost with B's; the one after *that* must
    // survive because Append's newline terminated the glued line.
    JournalRecord done_c = done_a;
    done_c.image = "C";
    done_c.fingerprint = "fc";
    ASSERT_TRUE(journal->Append(done_c).ok());
    JournalRecord done_d = done_a;
    done_d.image = "D";
    done_d.fingerprint = "fd";
    ASSERT_TRUE(journal->Append(done_d).ok());
  }
  // Hand-inject free-standing garbage too.
  {
    std::ofstream out(ScanJournal::PathFor(dir.string()),
                      std::ios::binary | std::ios::app);
    out << "}{ total garbage\n";
  }

  auto replay = ScanJournal::Replay(dir.string());
  ASSERT_TRUE(replay.ok());
  EXPECT_GE(replay->garbage_lines, 2u);  // glued torn line + hand garbage
  EXPECT_EQ(replay->done.count("fa"), 1u);
  EXPECT_EQ(replay->done.count("fb"), 0u);  // torn away
  EXPECT_EQ(replay->done.count("fd"), 1u);  // post-tear append survives
  // No phantom entries: a torn record is *lost*, never misparsed.
  for (const auto& [fp, record] : replay->done) {
    EXPECT_TRUE(fp == "fa" || fp == "fc" || fp == "fd") << fp;
  }
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
  SupervisorConfig config;
  config.workers = 2;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"a", "b", "c"}),
      [](size_t index, const AnalysisBudget&) { return OutcomeForIndex(index); });
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].state, TaskResult::State::kDone) << i;
    EXPECT_EQ(results[i].attempts, 1u);
    EXPECT_FALSE(results[i].in_process);
    EXPECT_FALSE(results[i].resumed);
    ExpectOutcomeEq(results[i].outcome, OutcomeForIndex(i));
  }
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
  config.backoff_initial_us = 1;
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
  config.backoff_initial_us = 1;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"good0", "poison", "good2"}),
      [](size_t index, const AnalysisBudget&) { return OutcomeForIndex(index); });
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].state, TaskResult::State::kDone);
  EXPECT_EQ(results[2].state, TaskResult::State::kDone);
  ExpectOutcomeEq(results[0].outcome, OutcomeForIndex(0));
  ExpectOutcomeEq(results[2].outcome, OutcomeForIndex(2));

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
    ExpectOutcomeEq(results[i].outcome, OutcomeForIndex(i));
  }
  EXPECT_EQ(results[1].state, TaskResult::State::kQuarantined);
  EXPECT_EQ(supervisor.stats().workers_spawned, 2u);
  EXPECT_EQ(supervisor.stats().worker_failures, 1u);
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
  // the first, as the CPU used before it rounds up to a second). Eight
  // tasks of ~0.4 CPU s on one worker use 3.2 s together: a limit
  // counted from the worker's fork would kill it partway through.
  SupervisorConfig config;
  config.max_retries = 0;
  config.image_timeout_ms = 999;
  ScanSupervisor supervisor(config);
  auto results = supervisor.Run(
      Tasks({"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}),
      [](size_t index, const AnalysisBudget&) {
        auto cpu_ms = [] {
          struct timespec ts;
          ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
          return ts.tv_sec * 1000.0 + ts.tv_nsec / 1e6;
        };
        double start = cpu_ms();
        volatile uint64_t sink = 0;
        while (cpu_ms() - start < 400.0) {
          for (int i = 0; i < 10000; ++i) sink = sink + static_cast<uint64_t>(i);
        }
        return OutcomeForIndex(index);
      });
  ASSERT_EQ(results.size(), 8u);
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

TEST_F(SupervisorTest, ResumeReplaysJournalWithoutRescanning) {
  fs::path dir = ScratchDir("supervisor_resume");
  std::vector<TaskSpec> tasks = Tasks({"a", "b"});
  int scans = 0;
  TaskFn fn = [&](size_t index, const AnalysisBudget&) {
    ++scans;
    return OutcomeForIndex(index);
  };

  SupervisorConfig config;
  config.workers = 0;
  config.journal_dir = dir.string();
  {
    ScanSupervisor first(config);
    auto results = first.Run(tasks, fn);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].state, TaskResult::State::kDone);
    EXPECT_EQ(scans, 2);
  }

  config.resume = true;
  ScanSupervisor second(config);
  auto results = second.Run(tasks, fn);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(scans, 2) << "resume must not re-scan journaled images";
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].state, TaskResult::State::kDone);
    EXPECT_TRUE(results[i].resumed);
    ExpectOutcomeEq(results[i].outcome, OutcomeForIndex(i));
  }
  EXPECT_EQ(second.stats().resumed, 2u);

  // A changed blob (different fingerprint, same label) is re-scanned:
  // the journal keys on content, not on the human label.
  std::vector<TaskSpec> changed = tasks;
  changed[1].fingerprint = "fp_b_v2";
  ScanSupervisor third(config);
  auto results3 = third.Run(changed, fn);
  EXPECT_EQ(scans, 3);
  EXPECT_TRUE(results3[0].resumed);
  EXPECT_FALSE(results3[1].resumed);
}

// ---------- scan_report supervisor aggregation -------------------------------

TEST_F(SupervisorTest, ScanReportAggregatesSupervisorLifecycle) {
  // Two streams from the same fleet: the first run retried "flaky"
  // once and quarantined "poison"; the resumed run replayed "flaky"
  // from the journal. Rows must merge by image name across streams.
  const std::string first_run =
      "{\"v\":1,\"type\":\"stream_begin\",\"ts_ms\":0,\"tid\":0}\n"
      "{\"v\":1,\"type\":\"image_begin\",\"ts_ms\":1,\"tid\":0,"
      "\"image\":\"flaky\",\"arch\":\"arm\",\"packing\":\"none\"}\n"
      "{\"v\":1,\"type\":\"worker_exit\",\"ts_ms\":2,\"tid\":0,"
      "\"image\":\"flaky\",\"attempt\":1,\"failure\":\"signal\"}\n"
      "{\"v\":1,\"type\":\"image_retry\",\"ts_ms\":3,\"tid\":0,"
      "\"image\":\"flaky\",\"next_attempt\":2,\"failure\":\"signal\","
      "\"backoff_us\":100}\n"
      "{\"v\":1,\"type\":\"image_begin\",\"ts_ms\":4,\"tid\":0,"
      "\"image\":\"flaky\",\"arch\":\"arm\",\"packing\":\"none\"}\n"
      "{\"v\":1,\"type\":\"image_end\",\"ts_ms\":5,\"tid\":0,"
      "\"image\":\"flaky\",\"status\":\"ok\",\"complete\":true,"
      "\"functions\":7,\"findings\":1,\"duration_ms\":2.0}\n"
      "{\"v\":1,\"type\":\"worker_exit\",\"ts_ms\":6,\"tid\":0,"
      "\"image\":\"poison\",\"attempt\":1,\"failure\":\"signal\"}\n"
      "{\"v\":1,\"type\":\"image_quarantined\",\"ts_ms\":7,\"tid\":0,"
      "\"image\":\"poison\",\"attempts\":1,\"reason\":\"worker signal\"}\n"
      "{\"v\":1,\"type\":\"stream_end\",\"ts_ms\":8,\"tid\":0}\n";
  const std::string resumed_run =
      "{\"v\":1,\"type\":\"stream_begin\",\"ts_ms\":0,\"tid\":0}\n"
      "{\"v\":1,\"type\":\"image_resumed\",\"ts_ms\":1,\"tid\":0,"
      "\"image\":\"flaky\",\"status\":\"ok\",\"attempts\":2}\n"
      "{\"v\":1,\"type\":\"stream_end\",\"ts_ms\":2,\"tid\":0}\n";

  obs::ScanAggregate agg;
  obs::AggregateEvents(first_run, &agg);
  obs::AggregateEvents(resumed_run, &agg);
  obs::FinalizeAggregate(&agg, obs::ScanReportOptions{});

  EXPECT_EQ(agg.image_retries, 1u);
  EXPECT_EQ(agg.quarantined_images, 1u);
  EXPECT_EQ(agg.worker_exits, 2u);
  EXPECT_EQ(agg.resumed_images, 1u);

  // One logical row per image, with the attempt count folded in.
  ASSERT_EQ(agg.images.size(), 2u);
  EXPECT_EQ(agg.images[0].image, "flaky");
  EXPECT_EQ(agg.images[0].status, "ok");
  EXPECT_EQ(agg.images[0].attempts, 2u);
  EXPECT_TRUE(agg.images[0].resumed);
  EXPECT_EQ(agg.images[1].image, "poison");
  EXPECT_EQ(agg.images[1].status, "quarantined");

  std::string md = obs::AggregateToMarkdown(agg);
  EXPECT_NE(md.find("| Attempts |"), std::string::npos);
  EXPECT_NE(md.find("supervisor: 1 retried, 1 quarantined"),
            std::string::npos);
  EXPECT_NE(md.find("(resumed)"), std::string::npos);

  auto json = ParseJson(obs::AggregateToJson(agg));
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(static_cast<int>(json->Find("quarantined_images")->number()), 1);
  EXPECT_EQ(static_cast<int>(json->Find("image_retries")->number()), 1);
  const auto& images = json->Find("images")->array();
  ASSERT_EQ(images.size(), 2u);
  EXPECT_EQ(static_cast<int>(images[0].Find("attempts")->number()), 2);
  EXPECT_TRUE(images[0].Find("resumed")->boolean());
}

// ---------- kill-mid-scan resume oracle (corpus_scan subprocess) -------------

const char* CorpusScanBin() { return std::getenv("DTAINT_CORPUS_SCAN_BIN"); }

int RunScan(const std::string& bin, const std::string& args) {
  std::string cmd =
      "\"" + bin + "\" --heartbeat-ms 0 " + args + " > /dev/null 2>&1";
  return std::system(cmd.c_str());
}

TEST_F(SupervisorTest, ResumeOracleSurvivesKillMidScan) {
  const char* bin = CorpusScanBin();
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  fs::path dir = ScratchDir("resume_oracle");
  fs::path clean_json = dir / "clean.json";
  fs::path resumed_json = dir / "resumed.json";
  fs::path clean_journal = dir / "journal_clean";
  fs::path crash_journal = dir / "journal_crash";

  // Ground truth: the corpus scanned to completion with isolation on.
  ASSERT_EQ(RunScan(bin, "--workers 1 --journal \"" + clean_journal.string() +
                             "\" --json-out \"" + clean_json.string() + "\""),
            0);
  std::string want = ReadAll(clean_json);
  ASSERT_FALSE(want.empty());

  // Kill the scan mid-fleet at a deterministic point: the supervisor
  // consults the crash site right after journaling image_begin.
  ::setenv("DTAINT_FAULTS", "crash@Tenda AC15", 1);
  int rc_crash =
      RunScan(bin, "--workers 1 --journal \"" + crash_journal.string() +
                       "\" --json-out \"" + (dir / "partial.json").string() +
                       "\"");
  ::unsetenv("DTAINT_FAULTS");
  EXPECT_NE(rc_crash, 0) << "crash fault should have killed the scan";
  // The journal holds whole parseable records — including the begin of
  // the image the scan died on.
  auto replay = ScanJournal::Replay(crash_journal.string());
  ASSERT_TRUE(replay.ok());
  EXPECT_GT(replay->records, 0u);
  ASSERT_FALSE(replay->in_flight.empty());
  EXPECT_EQ(replay->in_flight[0], "Tenda AC15");

  // Resume. The merged fleet JSON must be byte-identical to the
  // uninterrupted run's — kill -9 plus --resume == never killed.
  ASSERT_EQ(RunScan(bin, "--workers 1 --resume --journal \"" +
                             crash_journal.string() + "\" --json-out \"" +
                             resumed_json.string() + "\""),
            0);
  EXPECT_EQ(ReadAll(resumed_json), want) << "resume oracle violated";
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
  // fleet there whether images run in process, in process with the
  // journal, or in a forked worker.
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
  EXPECT_EQ(labels_of("journal",
                      "--journal \"" + (dir / "journal").string() + "\""),
            plain);
  EXPECT_EQ(labels_of("isolate", "--workers 1"), plain);
}

}  // namespace
}  // namespace dtaint

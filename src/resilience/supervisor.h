// Crash-isolated scan supervisor — a pool of long-lived forked
// workers with watchdogs, resource limits, retry/quarantine policy, and
// resume from the event stream of an interrupted run.
//
// The in-process incident machinery (incident.h, budget.h) contains
// *expected* failures: malformed binaries, exhausted budgets. It cannot
// contain a worker that SIGSEGVs in the lifter, leaks until the OOM
// killer fires, or spins forever in a pathological loop — one poison
// image would take the whole fleet run down with it. The supervisor
// closes that gap: images are scanned in forked worker processes, each
// ScanOutcome comes back over a pipe as one line of JSON, and the
// parent enforces a per-image wall-clock watchdog plus
// RLIMIT_AS / RLIMIT_CPU in the workers.
//
// Workers are reused. Up to `workers` of them run at once, each forked
// on demand and then fed one (task, attempt) request at a time over its
// command pipe; it answers each with one ScanOutcomeToJson line on its
// result pipe (the bytes an `image_done` event embeds: JsonEscape
// escapes every control character, so the line's '\n' is its only
// one), hands its freed heap back (malloc_trim), and waits for
// the next request. Before each task it moves its RLIMIT_CPU soft
// limit to the CPU it has used plus the per-task allowance, resets the
// fault plan's occurrence counters to their values at fork, and pins a
// fresh expression-interner generation, so every task runs as if it
// had a worker of its own. A worker exits on
// EOF of its command pipe; Run closes every pipe and reaps every worker
// before it returns.
//
// Task lifecycle state machine (per image):
//
//   PENDING --request to an idle or newly forked worker--> RUNNING
//   RUNNING --result line ok----------------------------------> DONE
//      |  `--timeout--> KILLED(SIGKILL) --.
//      `--signal/OOM/exit/bad line--------+--> FAILED
//   FAILED --attempts left--> PENDING (back of the queue, tightened budget)
//   FAILED --attempts exhausted--> QUARANTINED
//
// A worker that dies (or is killed by the watchdog, or sends a line
// that does not decode, or bytes after it) takes only its in-flight
// task down with it; it is reaped, and the next dispatch forks a
// replacement.
//
// Every failure becomes a typed Incident (phase "supervisor"); the
// image goes to the back of the queue at once and re-runs under a
// *tightened* AnalysisBudget (TightenBudget: full -> degraded ->
// harshly degraded), so an image that only dies when allowed to run
// long gets a cheap second chance.
// After 1 + max_retries attempts the image is quarantined: recorded,
// reported, and never allowed to poison the rest of the fleet.
//
// Resume: the event stream (src/obs/events.h) is the scan's one
// crash-safe record. For every task it folds, the parent emits an
// `image_done` event (label, content fingerprint `fp`, attempts, worker
// restarts, supervisor incidents and the ScanOutcome as raw JSON) or an
// `image_quarantined` event with the same identity fields — one
// O_APPEND write(2) each, so a kill -9 of the supervisor loses none
// that were emitted. Workers write to the same file but never these
// two types. With `resume_from` set, Run first replays that file's
// image_done / image_quarantined lines, keyed by fingerprint (a resume
// never reuses the outcome of a *different* image that shares a label),
// and runs only the rest; `corpus_scan --resume` then appends to the
// same file. The record is at-least-once: a torn or malformed line
// (the `stream_torn` fault site) costs that image a re-scan, never a
// wrong report, because a replayed outcome is the whole line or
// nothing.
//
// With `workers` 0 there is no pool: every task runs in this process,
// one after another, under the same retry/quarantine state machine and
// resume (worker fault sites become synthetic failures, exceptions
// become failed attempts). If fork or pipe creation itself fails
// (containers without CAP_SYS_ADMIN analogues, fd exhaustion), a forked
// run degrades to the same in-process path for that task — isolation is
// best-effort, the scan itself is not.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/resilience/budget.h"
#include "src/resilience/incident.h"
#include "src/util/status.h"

namespace dtaint {

class JsonValue;

/// Everything the fleet report needs from one image's scan — the unit
/// the supervisor's workers return on their result pipes and its
/// `image_done` events record. JSON fragments (findings, score) are
/// carried as raw pre-serialized strings so a resume reproduces the
/// fleet report byte-for-byte.
struct ScanOutcome {
  /// "ok", "unextractable", or "failed" (the supervisor adds
  /// "quarantined" at the TaskResult level, never here).
  std::string status;
  /// Human table cell ("ok", "unextractable", "FAILED: extract", ...).
  std::string row;
  bool complete = false;
  uint64_t functions = 0;
  uint64_t findings = 0;
  /// Raw JSON array (report/json.h FindingsToJson output), embedded
  /// verbatim in the fleet report.
  std::string findings_json = "[]";
  bool has_score = false;
  /// Raw JSON object (report/scoring.h ScoreToJson output).
  std::string score_json;
  /// Detection tallies, already folded (fp includes safe-twin hits);
  /// they count toward fleet totals only when `complete`.
  uint64_t tp = 0;
  uint64_t fn = 0;
  uint64_t fp = 0;
  /// Analysis incidents, relabeled with the fleet image label.
  std::vector<Incident> incidents;
};

/// Whether `outcome` stops a fail-fast fleet run: the scan failed, or
/// it finished without being complete. An unextractable image does
/// not stop it.
inline bool StopsFailFast(const ScanOutcome& outcome) {
  return outcome.status == "failed" ||
         (outcome.status == "ok" && !outcome.complete);
}

/// Serializes an outcome as one JSON object (stable key order — the
/// codec is part of the resume oracle's byte-identity contract).
std::string ScanOutcomeToJson(const ScanOutcome& outcome);

/// Inverse of ScanOutcomeToJson; also accepts an already-parsed value.
Result<ScanOutcome> ScanOutcomeFromJson(std::string_view json);
Result<ScanOutcome> ScanOutcomeFromJson(const JsonValue& value);

/// Child exit codes with supervisor meaning. Chosen high to stay clear
/// of the scan body's own exit codes and shell conventions.
inline constexpr int kWorkerExitOom = 77;    // std::bad_alloc caught
inline constexpr int kWorkerExitError = 76;  // other uncaught exception

/// Why a worker attempt failed (drives the Incident message and the
/// worker_exit event).
enum class WorkerFailure : uint8_t {
  kTimeout,  // watchdog deadline passed; parent SIGKILLed it
  kSignal,   // died on a signal (SIGSEGV, SIGKILL from OOM killer, ...)
  kOom,      // exited kWorkerExitOom: allocation failed under RLIMIT_AS
  kExit,     // nonzero exit for any other reason
  kWire,     // no whole result line, or one that didn't decode
};

/// "timeout", "signal", "oom", "exit", "wire".
std::string_view WorkerFailureName(WorkerFailure failure);

/// Budget for attempt `attempt` (1-based). Attempt 1 runs the base
/// budget untouched; each later attempt caps every limit at a degraded
/// constant halved again per extra attempt — a crashing image gets
/// progressively cheaper chances, never more expensive ones. Limits
/// the base leaves unlimited (0) become limited on retry.
AnalysisBudget TightenBudget(const AnalysisBudget& base, int attempt);

struct SupervisorConfig {
  /// Concurrent forked worker processes; 0 runs every task in this
  /// process (no isolation; resume still works).
  int workers = 1;
  /// Extra attempts after the first before quarantine (so an image is
  /// tried at most 1 + max_retries times).
  int max_retries = 2;
  /// Per-image wall-clock watchdog; 0 = no deadline. A deadline also
  /// caps the CPU time of each task a worker runs (its RLIMIT_CPU soft
  /// limit) at image_timeout_ms / 1000 + 2 seconds.
  uint32_t image_timeout_ms = 0;
  /// RLIMIT_AS for each worker; 0 = unlimited. (Meaningless under
  /// ASan, which reserves terabytes of shadow address space.)
  uint32_t mem_limit_mb = 0;
  /// Base analysis budget; retries run TightenBudget(budget, attempt).
  AnalysisBudget budget;
  /// Event stream of an earlier run of the same fleet; empty = a fresh
  /// run. Run replays its image_done / image_quarantined lines and
  /// skips the images they name. A missing file is an empty replay.
  std::string resume_from;
  /// Stop dispatching new images after a quarantine, or after a task
  /// whose outcome StopsFailFast (fail-fast fleets). Replayed outcomes
  /// never stop a run.
  bool stop_on_failure = false;
};

/// One unit of supervised work.
struct TaskSpec {
  std::string label;        // fleet label, also the fault-site detail
  std::string fingerprint;  // content identity, the resume key
};

/// What happened to one task, attempts included.
struct TaskResult {
  enum class State : uint8_t {
    kDone,         // outcome is valid (possibly replayed on resume)
    kQuarantined,  // gave up after 1 + max_retries attempts
    kSkipped,      // never dispatched (stop_on_failure tripped first)
  };
  State state = State::kSkipped;
  ScanOutcome outcome;
  uint32_t attempts = 0;
  uint32_t worker_restarts = 0;  // failed attempts (== attempts-1 when done)
  bool resumed = false;          // replayed from `resume_from`
  bool in_process = false;       // ran in this process (workers 0/fallback)
  std::string quarantine_reason;
  /// Supervisor-level incidents (one per failed attempt, plus the
  /// quarantine verdict), distinct from outcome.incidents.
  std::vector<Incident> incidents;
};

/// Run-level tallies, mirrored into metrics counters (supervisor.*).
struct SupervisorStats {
  uint64_t tasks = 0;
  uint64_t workers_spawned = 0;
  uint64_t worker_failures = 0;
  uint64_t retries = 0;
  uint64_t quarantined = 0;
  uint64_t resumed = 0;
  uint64_t in_process_fallbacks = 0;
};

/// The task body: scan image `index` under `budget` and return its
/// outcome. With workers >= 1 it runs inside a forked worker, which runs
/// many tasks one after another: it must not assume it shares memory
/// with the caller afterwards, and must leave nothing behind that
/// changes the outcome of the next task it runs.
using TaskFn = std::function<ScanOutcome(size_t index, const AnalysisBudget& budget)>;

class ScanSupervisor {
 public:
  explicit ScanSupervisor(SupervisorConfig config);

  /// Runs every task to a terminal state (done / quarantined /
  /// skipped). Results are returned in task order regardless of
  /// completion order. Emits supervisor lifecycle events
  /// (image_resumed, image_retry, image_done, image_quarantined,
  /// worker_exit) into the global event stream when it is open, and
  /// bumps the `supervisor.images_done` counter (the heartbeat's
  /// images_done) once per task that reaches done or quarantined,
  /// replayed or not. A task a forked worker finished also adds its
  /// outcome's functions to `supervisor.functions_done`, the part of
  /// the heartbeat's functions_done the worker's own counters hold.
  std::vector<TaskResult> Run(const std::vector<TaskSpec>& tasks,
                              const TaskFn& fn);

  const SupervisorStats& stats() const { return stats_; }

 private:
  struct Worker;  // one live forked worker (supervisor.cpp)

  /// Forks a worker that serves requests for `tasks` until its command
  /// pipe closes. The child closes every `pool` worker's pipe ends.
  /// False when fork/pipe failed and the caller should fall back to
  /// in-process execution (`label` names the task in the warning).
  bool ForkWorker(const std::vector<TaskSpec>& tasks, const TaskFn& fn,
                  const std::vector<Worker>& pool, const std::string& label,
                  Worker* worker);

  /// The worker side: RLIMIT_AS, then per request the CPU limit, the
  /// fault counters, the worker fault sites, an interner pin, fn, the
  /// result line and a heap trim. Exits on EOF of `cmd_fd`.
  [[noreturn]] void ServeTasks(const std::vector<TaskSpec>& tasks,
                               const TaskFn& fn, int cmd_fd, int result_fd);

  /// In-process execution of one attempt (workers 0 and fork
  /// fallback). False on failure, with the failure kind and a detail
  /// message filled in (worker fault sites become synthetic failures;
  /// exceptions become kExit / kOom).
  bool RunInProcess(const TaskSpec& task, size_t index, int attempt,
                    const TaskFn& fn, ScanOutcome* outcome,
                    WorkerFailure* failure, std::string* detail);

  SupervisorConfig config_;
  SupervisorStats stats_;
};

}  // namespace dtaint

#include "src/resilience/supervisor.h"

#include <fcntl.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <pthread.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <new>
#include <thread>
#include <utility>

#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/scan_report.h"
#include "src/resilience/fault.h"
#include "src/symexec/intern.h"
#include "src/util/json.h"
#include "src/util/strings.h"

namespace dtaint {

namespace {

using Clock = std::chrono::steady_clock;

Status AppendIncidents(const JsonValue& parent, std::string_view key,
                       std::vector<Incident>* out) {
  const JsonValue* list = parent.Find(key);
  if (!list) return Status::Ok();
  if (!list->is_array()) return CorruptData("incidents: not an array");
  for (const JsonValue& entry : list->array()) {
    auto incident = IncidentFromJson(entry);
    if (!incident.ok()) return incident.status();
    out->push_back(std::move(*incident));
  }
  return Status::Ok();
}

/// The terminal results an earlier run's event stream records, by
/// content fingerprint: its parent-written image_done and
/// image_quarantined lines, the last one per fingerprint winning. A
/// line that lacks a field the result needs is skipped, so the image
/// it names is scanned again. A missing file replays nothing.
std::map<std::string, TaskResult, std::less<>> ReplayStream(
    const std::string& path) {
  std::map<std::string, TaskResult, std::less<>> replay;
  auto text = obs::ReadEventFiles({path});
  if (!text.ok()) return replay;
  obs::ForEachEvent(text->front(), [&](const JsonValue& event,
                                       std::string_view type) {
    bool done = type == "image_done";
    if (!done && type != "image_quarantined") return;
    std::string fp(FieldStr(event, "fp"));
    if (fp.empty()) return;
    TaskResult result;
    if (done) {
      const JsonValue* outcome = event.Find("outcome");
      if (!outcome) return;
      auto decoded = ScanOutcomeFromJson(*outcome);
      if (!decoded.ok()) return;
      result.state = TaskResult::State::kDone;
      result.outcome = std::move(*decoded);
    } else {
      result.state = TaskResult::State::kQuarantined;
      result.quarantine_reason = FieldStr(event, "reason");
    }
    if (!AppendIncidents(event, "incidents", &result.incidents).ok()) return;
    result.attempts = static_cast<uint32_t>(FieldCount(event, "attempts"));
    result.worker_restarts =
        static_cast<uint32_t>(FieldCount(event, "worker_restarts"));
    result.resumed = true;
    replay[fp] = std::move(result);
  });
  return replay;
}

}  // namespace

// ---- ScanOutcome codec ----------------------------------------------------

std::string ScanOutcomeToJson(const ScanOutcome& outcome) {
  std::string out = "{";
  out += "\"status\":\"" + JsonEscape(outcome.status) + "\",";
  out += "\"row\":\"" + JsonEscape(outcome.row) + "\",";
  out += std::string("\"complete\":") + (outcome.complete ? "true" : "false");
  out += ",\"functions\":" + std::to_string(outcome.functions);
  out += ",\"findings\":" + std::to_string(outcome.findings);
  // Raw report fragments travel as escaped *strings*, not as embedded
  // JSON: unescape(escape(x)) == x for any byte string, which is what
  // makes a resume reproduce the fleet report byte-for-byte.
  // Re-serializing a parsed tree would not make that guarantee.
  out += ",\"findings_json\":\"" + JsonEscape(outcome.findings_json) + "\"";
  if (outcome.has_score) {
    out += ",\"score_json\":\"" + JsonEscape(outcome.score_json) + "\"";
  }
  out += ",\"tp\":" + std::to_string(outcome.tp);
  out += ",\"fn\":" + std::to_string(outcome.fn);
  out += ",\"fp\":" + std::to_string(outcome.fp);
  out += ",\"incidents\":" + IncidentsToJson(outcome.incidents);
  if (!outcome.counters.empty()) {
    out += ",\"counters\":{";
    const char* sep = "";
    for (const auto& [name, value] : outcome.counters) {
      out += sep;
      out += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
      sep = ",";
    }
    out += "}";
  }
  out += "}";
  return out;
}

Result<ScanOutcome> ScanOutcomeFromJson(const JsonValue& value) {
  if (!value.is_object()) return CorruptData("outcome: not an object");
  ScanOutcome outcome;
  outcome.status = FieldStr(value, "status");
  if (outcome.status.empty()) return CorruptData("outcome: missing status");
  outcome.row = FieldStr(value, "row");
  outcome.complete = FieldBool(value, "complete");
  outcome.functions = FieldCount(value, "functions");
  outcome.findings = FieldCount(value, "findings");
  const JsonValue* findings = value.Find("findings_json");
  if (!findings || !findings->is_string()) {
    return CorruptData("outcome: missing findings_json");
  }
  outcome.findings_json = findings->string();
  if (const JsonValue* score = value.Find("score_json");
      score && score->is_string()) {
    outcome.has_score = true;
    outcome.score_json = score->string();
  }
  outcome.tp = FieldCount(value, "tp");
  outcome.fn = FieldCount(value, "fn");
  outcome.fp = FieldCount(value, "fp");
  Status status = AppendIncidents(value, "incidents", &outcome.incidents);
  if (!status.ok()) return status;
  if (const JsonValue* counters = value.Find("counters");
      counters && counters->is_object()) {
    for (const auto& entry : counters->object()) {
      outcome.counters[entry.first] = FieldCount(*counters, entry.first);
    }
  }
  return outcome;
}

Result<ScanOutcome> ScanOutcomeFromJson(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  return ScanOutcomeFromJson(*parsed);
}

std::string_view WorkerFailureName(WorkerFailure failure) {
  switch (failure) {
    case WorkerFailure::kTimeout:
      return "timeout";
    case WorkerFailure::kSignal:
      return "signal";
    case WorkerFailure::kOom:
      return "oom";
    case WorkerFailure::kExit:
      return "exit";
    case WorkerFailure::kWire:
      return "wire";
  }
  return "unknown";
}

AnalysisBudget TightenBudget(const AnalysisBudget& base, int attempt) {
  if (attempt <= 1) return base;
  // Degraded ceilings for the first retry; every further retry halves
  // them again. Generous enough that an ordinary firmware image still
  // completes (degraded summaries are sound), tight enough that an
  // image which only crashes when allowed to run long dies cheap.
  constexpr double kDeadlineMs = 5'000;
  // The work of 2,000,000 three-address IR statements, in flat-IR
  // steps (4.6x fewer on the fleet_cold corpus; DESIGN.md "Resilience").
  constexpr uint64_t kMaxSteps = 430'000;
  constexpr uint64_t kMaxStates = 65'536;
  constexpr uint64_t kMaxExprNodes = 8'000'000;
  int shift = std::min(attempt - 2, 16);
  auto cap = [shift](uint64_t base_limit, uint64_t degraded) {
    degraded >>= shift;
    if (degraded == 0) degraded = 1;
    return base_limit == 0 ? degraded : std::min(base_limit, degraded);
  };
  AnalysisBudget out = base;
  double deadline = kDeadlineMs / static_cast<double>(1 << shift);
  out.deadline_ms =
      base.deadline_ms <= 0 ? deadline : std::min(base.deadline_ms, deadline);
  out.max_steps = cap(base.max_steps, kMaxSteps);
  out.max_states = cap(base.max_states, kMaxStates);
  out.max_expr_nodes = cap(base.max_expr_nodes, kMaxExprNodes);
  return out;
}

// ---- ScanSupervisor -------------------------------------------------------

/// One long-lived forked worker.
struct ScanSupervisor::Worker {
  pid_t pid = -1;
  int cmd_fd = -1;     // write end of the command pipe
  int result_fd = -1;  // read end of the result pipe (non-blocking)
  bool busy = false;   // a task is in flight
  size_t index = 0;    // the in-flight task
  Clock::time_point deadline;
  bool has_deadline = false;
  bool timed_out = false;
  std::string buf;  // the in-flight task's result bytes so far
};

namespace {

/// A request on a worker's command pipe. Parent and worker are one
/// program image, so the struct travels as raw bytes; it is far below
/// PIPE_BUF, so each write and read moves it whole.
struct WorkerCommand {
  uint64_t index;
  int32_t attempt;
};

/// The outcome a worker's result bytes `buf` hold: one ScanOutcomeToJson
/// line, ended by the only '\n' it has. A worker that died mid-write
/// leaves no '\n'; bytes after it are out of step with the protocol.
Result<ScanOutcome> ParseResultLine(std::string_view buf) {
  size_t end = buf.find('\n');
  if (end == std::string_view::npos) {
    return CorruptData("wire: no result line");
  }
  if (end + 1 != buf.size()) {
    return CorruptData("wire: bytes after the result line");
  }
  return ScanOutcomeFromJson(buf.substr(0, end));
}

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// Sends one command. A worker that died while idle makes the write
/// fail with EPIPE: SIGPIPE is blocked around the write, and the one it
/// raised is consumed, so that cannot kill the supervisor. The dead
/// worker's EOF then fails the task like any death in flight.
void SendCommand(int fd, const WorkerCommand& command) {
  sigset_t pipe_only, saved;
  sigemptyset(&pipe_only);
  sigaddset(&pipe_only, SIGPIPE);
  ::pthread_sigmask(SIG_BLOCK, &pipe_only, &saved);
  if (!WriteAll(fd, reinterpret_cast<const char*>(&command),
                sizeof(command)) &&
      errno == EPIPE) {
    struct timespec zero = {0, 0};
    ::sigtimedwait(&pipe_only, nullptr, &zero);
  }
  ::pthread_sigmask(SIG_SETMASK, &saved, nullptr);
}

/// Blocks for the next command; false on EOF (the supervisor is done
/// with this worker) or a read error.
bool ReceiveCommand(int fd, WorkerCommand* command) {
  char* out = reinterpret_cast<char*>(command);
  size_t got = 0;
  while (got < sizeof(*command)) {
    ssize_t n = ::read(fd, out + got, sizeof(*command) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

/// Moves the RLIMIT_CPU soft limit to `budget_s` seconds past the CPU
/// this process has used so far (rounded up), so each task a worker
/// runs gets the same allowance. The hard limit stays where it is: an
/// unprivileged process could never raise it again for the next task.
void ExtendCpuLimit(uint32_t budget_s) {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  uint64_t used_us =
      static_cast<uint64_t>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
          1'000'000 +
      static_cast<uint64_t>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  struct rlimit lim;
  ::getrlimit(RLIMIT_CPU, &lim);
  lim.rlim_cur = static_cast<rlim_t>((used_us + 999'999) / 1'000'000) +
                 budget_s;
  if (lim.rlim_max != RLIM_INFINITY) {
    lim.rlim_cur = std::min(lim.rlim_cur, lim.rlim_max);
  }
  ::setrlimit(RLIMIT_CPU, &lim);
}

}  // namespace

ScanSupervisor::ScanSupervisor(SupervisorConfig config)
    : config_(std::move(config)) {
  if (config_.workers < 0) config_.workers = 0;
  if (config_.max_retries < 0) config_.max_retries = 0;
}

bool ScanSupervisor::ForkWorker(const std::vector<TaskSpec>& tasks,
                                const TaskFn& fn,
                                const std::vector<Worker>& pool,
                                const std::string& label, Worker* worker) {
  int cmd[2] = {-1, -1};
  int result[2] = {-1, -1};
  auto close_all = [&] {
    for (int fd : {cmd[0], cmd[1], result[0], result[1]}) {
      if (fd >= 0) ::close(fd);
    }
  };
  if (::pipe(cmd) != 0 || ::pipe(result) != 0) {
    DTAINT_LOG(obs::LogLevel::kWarn, "supervisor",
               "pipe failed (%s); running %s in-process",
               std::strerror(errno), label.c_str());
    close_all();
    return false;
  }
  pid_t pid = -1;
  {
    // Hold every singleton lock the child might need across the fork:
    // the heartbeat thread emits events concurrently, and a child
    // forked while another thread holds one of these mutexes would
    // deadlock on its first emission (the lock owner doesn't exist in
    // the child). The locks are only ever taken one-at-a-time by their
    // owners (never nested), so acquiring all of them here cannot
    // deadlock either.
    auto stream_lock = obs::EventStream::Global().LockForFork();
    auto metrics_lock = obs::MetricsRegistry::Global().LockForFork();
    auto fault_lock = FaultPlan::Global().LockForFork();
    pid = ::fork();
    if (pid == 0) {
      // This thread did the forking, so the child's copy of each mutex
      // is owned by the (only surviving) thread — unlocking is legal.
      fault_lock.unlock();
      metrics_lock.unlock();
      stream_lock.unlock();
      ::close(cmd[1]);
      ::close(result[0]);
      // A sibling's command pipe must reach EOF when the supervisor
      // closes it, so no other worker may hold its write end.
      for (const Worker& sibling : pool) {
        ::close(sibling.cmd_fd);
        ::close(sibling.result_fd);
      }
      ServeTasks(tasks, fn, cmd[0], result[1]);
    }
  }
  if (pid < 0) {
    DTAINT_LOG(obs::LogLevel::kWarn, "supervisor",
               "fork failed (%s); running %s in-process",
               std::strerror(errno), label.c_str());
    close_all();
    return false;
  }
  ::close(cmd[0]);
  ::close(result[1]);
  int flags = ::fcntl(result[0], F_GETFL, 0);
  ::fcntl(result[0], F_SETFL, flags | O_NONBLOCK);
  worker->pid = pid;
  worker->cmd_fd = cmd[1];
  worker->result_fd = result[0];
  return true;
}

void ScanSupervisor::ServeTasks(const std::vector<TaskSpec>& tasks,
                                const TaskFn& fn, int cmd_fd, int result_fd) {
  // Resource limits first: they bound everything that follows,
  // including the fault sites and the scans themselves.
  if (config_.mem_limit_mb > 0) {
    struct rlimit lim;
    lim.rlim_cur = lim.rlim_max =
        static_cast<rlim_t>(config_.mem_limit_mb) << 20;
    ::setrlimit(RLIMIT_AS, &lim);
  }
  // Every task starts from the fault plan's occurrence counters as they
  // were at fork, as if it had a fresh copy of the parent's: a
  // worker_kill rule fires in *every* attempt regardless of its count —
  // exactly what a deterministically-crashing image does.
  FaultPlan& plan = FaultPlan::Global();
  const FaultPlan::Counters at_fork = plan.SnapshotCounters();
  WorkerCommand command{};
  while (ReceiveCommand(cmd_fd, &command)) {
    if (config_.image_timeout_ms > 0) {
      // CPU backstop behind the wall-clock watchdog: a task that pegs
      // a core past the deadline dies even if the parent is wedged.
      ExtendCpuLimit(config_.image_timeout_ms / 1000 + 2);
    }
    plan.RestoreCounters(at_fork);
    const TaskSpec& task = tasks[command.index];
    if (plan.ShouldFail(FaultSite::kWorkerKill, task.label)) {
      ::raise(SIGKILL);
    }
    if (plan.ShouldFail(FaultSite::kWorkerHang, task.label)) {
      for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    {
      // The task runs in an interner generation of its own: holding a
      // pin for it recycles the previous task's nodes first, and keeps
      // a caller that interns without a pin of its own (one driving the
      // layers itself) from making the generation permanent and
      // carrying one image's nodes into the next.
      InternPin pin = ExprInterner::Global().Pin();
      std::string line;
      try {
        // Every counter name goes along, zeros too, so the parent
        // registers the names an in-process run would.
        obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
        obs::MetricsSnapshot before = metrics.Snapshot();
        ScanOutcome outcome =
            fn(command.index, TightenBudget(config_.budget, command.attempt));
        outcome.counters =
            std::move(metrics.Snapshot().DeltaSince(before).counters);
        line = ScanOutcomeToJson(outcome);
      } catch (const std::bad_alloc&) {
        ::_exit(kWorkerExitOom);
      } catch (...) {
        ::_exit(kWorkerExitError);
      }
      line += '\n';
      if (!WriteAll(result_fd, line.data(), line.size())) {
        ::_exit(kWorkerExitError);
      }
    }
#if defined(__GLIBC__)
    // Hand the task's freed heap back to the kernel, so a worker's
    // resident set after many images stays near a one-image worker's.
    ::malloc_trim(0);
#endif
  }
  // _exit, never exit: the child shares the parent's event-stream fd
  // and singletons; running atexit handlers or destructors here would
  // close/flush state the parent still owns.
  ::_exit(0);
}

bool ScanSupervisor::RunInProcess(const TaskSpec& task, size_t index,
                                  int attempt, const TaskFn& fn,
                                  ScanOutcome* outcome, WorkerFailure* failure,
                                  std::string* detail) {
  // The worker fault sites still apply, as synthetic failures instead
  // of real deaths — so the retry/quarantine state machine is testable
  // deterministically without fork. (In-process, the plan's occurrence
  // counters are shared across attempts, so `worker_kill@img` with the
  // default count of 1 fails once and lets the retry succeed.)
  FaultPlan& plan = FaultPlan::Global();
  if (plan.ShouldFail(FaultSite::kWorkerKill, task.label)) {
    *failure = WorkerFailure::kSignal;
    *detail = "injected worker_kill";
    return false;
  }
  if (plan.ShouldFail(FaultSite::kWorkerHang, task.label)) {
    *failure = WorkerFailure::kTimeout;
    *detail = "injected worker_hang";
    return false;
  }
  try {
    *outcome = fn(index, TightenBudget(config_.budget, attempt));
    return true;
  } catch (const std::bad_alloc&) {
    *failure = WorkerFailure::kOom;
    *detail = "allocation failed";
  } catch (const std::exception& e) {
    *failure = WorkerFailure::kExit;
    *detail = e.what();
  } catch (...) {
    *failure = WorkerFailure::kExit;
    *detail = "unknown exception";
  }
  return false;
}

std::vector<TaskResult> ScanSupervisor::Run(const std::vector<TaskSpec>& tasks,
                                            const TaskFn& fn) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::EventStream& stream = obs::EventStream::Global();
  stats_ = SupervisorStats{};
  stats_.tasks = tasks.size();
  metrics.counter("supervisor.tasks").Add(tasks.size());

  std::vector<TaskResult> results(tasks.size());
  obs::Counter& images_done = metrics.counter("supervisor.images_done");

  struct TaskState {
    int attempt = 0;  // attempts used so far
    std::vector<Incident> incidents;
  };
  std::vector<TaskState> states(tasks.size());

  std::deque<size_t> pending;  // task indices, dispatched in order
  bool stopped = false;

  // Every task that reaches done or quarantined, scanned now or
  // replayed, passes here once, in this process: the image_done line
  // is what a later resume replays, and the counts and beat are the
  // heartbeat's progress. A forked worker's counter delta joins this
  // registry here, before the beat reads it; a task run in this
  // process carries none, and a replayed one ran in no process.
  auto fold = [&](size_t index) {
    const TaskResult& result = results[index];
    if (result.state == TaskResult::State::kDone && !result.resumed) {
      for (const auto& [name, value] : result.outcome.counters) {
        metrics.counter(name).Add(value);
      }
    }
    images_done.Add();
    if (!stream.enabled()) return;
    const TaskSpec& task = tasks[index];
    if (result.state == TaskResult::State::kDone) {
      obs::Event event("image_done");
      event.Str("image", task.label)
          .Str("fp", task.fingerprint)
          .Num("attempts", static_cast<uint64_t>(result.attempts))
          .Num("worker_restarts",
               static_cast<uint64_t>(result.worker_restarts))
          .Raw("incidents", IncidentsToJson(result.incidents))
          .Raw("outcome", ScanOutcomeToJson(result.outcome));
      if (FaultPlan::Global().ShouldFail(FaultSite::kStreamTorn, task.label)) {
        stream.EmitTorn(event);
      } else {
        stream.Emit(event);
      }
    }
    stream.BeatNow();
  };

  std::map<std::string, TaskResult, std::less<>> replay;
  if (!config_.resume_from.empty()) replay = ReplayStream(config_.resume_from);
  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskSpec& task = tasks[i];
    auto it = replay.find(task.fingerprint);
    if (it == replay.end()) {
      pending.push_back(i);
      continue;
    }
    TaskResult& result = results[i];
    result = it->second;
    ++stats_.resumed;
    metrics.counter("supervisor.resumed").Add();
    bool done = result.state == TaskResult::State::kDone;
    if (stream.enabled()) {
      obs::Event event("image_resumed");
      event.Str("image", task.label)
          .Str("status", done ? std::string_view(result.outcome.status)
                              : std::string_view("quarantined"))
          .Num("attempts", static_cast<uint64_t>(result.attempts));
      stream.Emit(event);
    }
    fold(i);
  }

  auto handle_success = [&](size_t index, ScanOutcome outcome) {
    TaskState& st = states[index];
    TaskResult& result = results[index];
    result.state = TaskResult::State::kDone;
    result.outcome = std::move(outcome);
    result.attempts = static_cast<uint32_t>(st.attempt);
    result.worker_restarts = static_cast<uint32_t>(st.attempt - 1);
    result.incidents = st.incidents;
    fold(index);
    if (config_.stop_on_failure && StopsFailFast(result.outcome)) {
      stopped = true;
    }
  };

  auto handle_failure = [&](size_t index, WorkerFailure failure,
                            const std::string& detail) {
    const TaskSpec& task = tasks[index];
    TaskState& st = states[index];
    ++stats_.worker_failures;
    metrics.counter("supervisor.worker_failures").Add();

    Incident incident;
    incident.binary = task.label;
    incident.phase = "supervisor";
    incident.detail = "attempt " + std::to_string(st.attempt);
    std::string message = "worker " + std::string(WorkerFailureName(failure));
    if (!detail.empty()) message += ": " + detail;
    incident.status = Internal(message);
    st.incidents.push_back(incident);
    EmitIncident(stream, incident);
    if (stream.enabled()) {
      obs::Event event("worker_exit");
      event.Str("image", task.label)
          .Num("attempt", st.attempt)
          .Str("failure", WorkerFailureName(failure))
          .Str("detail", detail);
      stream.Emit(event);
    }

    if (st.attempt <= config_.max_retries) {
      ++stats_.retries;
      metrics.counter("supervisor.retries").Add();
      if (stream.enabled()) {
        obs::Event event("image_retry");
        event.Str("image", task.label)
            .Num("next_attempt", st.attempt + 1)
            .Str("failure", WorkerFailureName(failure));
        stream.Emit(event);
      }
      pending.push_back(index);
      return;
    }

    // Quarantine: out of attempts. The terminal incident names the
    // final failure mode so the fleet report explains the hole.
    TaskResult& result = results[index];
    std::string reason = "worker " + std::string(WorkerFailureName(failure)) +
                         " after " + std::to_string(st.attempt) + " attempts";
    Incident verdict;
    verdict.binary = task.label;
    verdict.phase = "supervisor";
    verdict.detail = "quarantine";
    verdict.status = Internal(reason);
    st.incidents.push_back(verdict);
    EmitIncident(stream, verdict);

    result.state = TaskResult::State::kQuarantined;
    result.attempts = static_cast<uint32_t>(st.attempt);
    result.worker_restarts = static_cast<uint32_t>(st.attempt);
    result.incidents = st.incidents;
    result.quarantine_reason = reason;
    ++stats_.quarantined;
    metrics.counter("supervisor.quarantined").Add();
    if (stream.enabled()) {
      obs::Event event("image_quarantined");
      event.Str("image", task.label)
          .Str("fp", task.fingerprint)
          .Num("attempts", static_cast<uint64_t>(result.attempts))
          .Num("worker_restarts",
               static_cast<uint64_t>(result.worker_restarts))
          .Str("reason", reason)
          .Raw("incidents", IncidentsToJson(result.incidents));
      stream.Emit(event);
    }
    fold(index);
    if (config_.stop_on_failure) stopped = true;
  };

  // Live workers, busy or idle. Never more than config_.workers: a
  // worker is forked only when none is idle and a slot is free. However
  // Run ends, every command pipe is closed (a worker exits on its EOF;
  // one still busy, left by an exception, is killed) and every worker
  // is reaped before Run returns.
  struct Pool {
    std::vector<Worker> workers;
    Pool() = default;
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;
    ~Pool() {
      for (Worker& worker : workers) {
        if (worker.busy) ::kill(worker.pid, SIGKILL);
        ::close(worker.cmd_fd);
      }
      for (Worker& worker : workers) {
        int status = 0;
        while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
        }
        ::close(worker.result_fd);
      }
    }
  };
  Pool live;
  std::vector<Worker>& pool = live.workers;
  size_t in_flight = 0;  // busy workers

  auto dispatch = [&](size_t index) {
    const TaskSpec& task = tasks[index];
    TaskState& st = states[index];
    ++st.attempt;
    // The kill-mid-scan oracle: hard supervisor death before the
    // image's first request — resume must re-run this image. A task
    // run in this process needs no consult here: ScanImage's own,
    // right after image_begin, kills the supervisor itself.
    if (st.attempt == 1 && config_.workers > 0 &&
        FaultPlan::Global().ShouldFail(FaultSite::kCrash, task.label)) {
      std::abort();
    }
    if (config_.workers > 0) {
      auto idle = std::find_if(pool.begin(), pool.end(),
                               [](const Worker& w) { return !w.busy; });
      Worker* worker = idle != pool.end() ? &*idle : nullptr;
      if (!worker) {
        Worker fresh;
        if (ForkWorker(tasks, fn, pool, task.label, &fresh)) {
          ++stats_.workers_spawned;
          metrics.counter("supervisor.workers_spawned").Add();
          pool.push_back(std::move(fresh));
          worker = &pool.back();
        }
      }
      if (worker) {
        SendCommand(worker->cmd_fd,
                    WorkerCommand{index, static_cast<int32_t>(st.attempt)});
        worker->busy = true;
        worker->index = index;
        worker->has_deadline = config_.image_timeout_ms > 0;
        if (worker->has_deadline) {
          worker->deadline = Clock::now() +
                             std::chrono::milliseconds(config_.image_timeout_ms);
        }
        worker->timed_out = false;
        worker->buf.clear();
        ++in_flight;
        return;
      }
      ++stats_.in_process_fallbacks;
      metrics.counter("supervisor.in_process_fallbacks").Add();
    }
    ScanOutcome outcome;
    WorkerFailure failure = WorkerFailure::kExit;
    std::string detail;
    results[index].in_process = true;
    if (RunInProcess(task, index, st.attempt, fn, &outcome, &failure,
                     &detail)) {
      handle_success(index, std::move(outcome));
    } else {
      handle_failure(index, failure, detail);
    }
  };

  // Fails the in-flight task of a worker that died, by how it died.
  auto reap = [&](const Worker& worker, int status) {
    if (worker.timed_out) {
      handle_failure(worker.index, WorkerFailure::kTimeout,
                     "exceeded " + std::to_string(config_.image_timeout_ms) +
                         "ms watchdog");
      return;
    }
    if (WIFSIGNALED(status)) {
      handle_failure(worker.index, WorkerFailure::kSignal,
                     "signal " + std::to_string(WTERMSIG(status)));
      return;
    }
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code == kWorkerExitOom) {
      handle_failure(worker.index, WorkerFailure::kOom,
                     "allocation failed under mem limit");
      return;
    }
    if (code != 0) {
      handle_failure(worker.index, WorkerFailure::kExit,
                     "exit code " + std::to_string(code));
      return;
    }
    // Exited cleanly mid-task: whatever it wrote is not a whole line.
    handle_failure(worker.index, WorkerFailure::kWire,
                   ParseResultLine(worker.buf).status().message());
  };

  // Closes a worker's pipes and waits for it to exit; a task still in
  // flight on it fails. The slot is dropped from the pool afterwards.
  auto retire = [&](Worker& worker) {
    ::close(worker.cmd_fd);
    ::close(worker.result_fd);
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (worker.busy) {
      --in_flight;
      reap(worker, status);
    }
    worker.pid = -1;
  };

  while (!pending.empty() || in_flight > 0) {
    if (stopped && !pending.empty()) {
      for (size_t index : pending) {
        TaskResult& result = results[index];
        if (result.state == TaskResult::State::kSkipped) {
          result.attempts = static_cast<uint32_t>(states[index].attempt);
          result.incidents = states[index].incidents;
        }
      }
      pending.clear();
    }

    // Fill free worker slots in queue order. In process a task
    // finishes inside dispatch, so one slot runs them all.
    while (!stopped && !pending.empty() &&
           static_cast<int>(in_flight) < std::max(config_.workers, 1)) {
      size_t index = pending.front();
      pending.pop_front();
      dispatch(index);  // may push a retry onto the back of `pending`
    }
    if (in_flight == 0) continue;

    Clock::time_point now = Clock::now();

    // Idle workers are polled too: one that dies between tasks shows
    // up as EOF and is retired before it can be handed a task.
    std::vector<struct pollfd> fds;
    fds.reserve(pool.size());
    int timeout_ms = 200;
    for (const Worker& worker : pool) {
      fds.push_back({worker.result_fd, POLLIN, 0});
      if (worker.busy && worker.has_deadline && !worker.timed_out) {
        auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                             worker.deadline - now)
                             .count();
        timeout_ms = std::max(
            0, std::min<int>(timeout_ms, static_cast<int>(remaining)));
      }
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    now = Clock::now();

    for (size_t k = 0; k < pool.size(); ++k) {
      Worker& worker = pool[k];
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      bool eof = false;
      char buf[4096];
      for (;;) {
        ssize_t n = ::read(worker.result_fd, buf, sizeof(buf));
        if (n > 0) {
          worker.buf.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        // EOF (or a hard read error): the worker is gone.
        eof = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
        break;
      }
      // A timed-out task fails even if its line squeaks in: the
      // watchdog already killed the worker.
      if (worker.busy && !worker.timed_out &&
          worker.buf.find('\n') != std::string::npos) {
        auto outcome = ParseResultLine(worker.buf);
        worker.busy = false;
        --in_flight;
        worker.buf.clear();
        if (outcome.ok()) {
          handle_success(worker.index, std::move(*outcome));
        } else {
          // The pipe is out of step with the protocol: this worker's
          // next line could not be trusted either.
          handle_failure(worker.index, WorkerFailure::kWire,
                         outcome.status().message());
          ::kill(worker.pid, SIGKILL);
          eof = true;
        }
      }
      if (eof) retire(worker);
    }
    pool.erase(std::remove_if(pool.begin(), pool.end(),
                              [](const Worker& w) { return w.pid < 0; }),
               pool.end());

    for (Worker& worker : pool) {
      if (worker.busy && worker.has_deadline && !worker.timed_out &&
          now >= worker.deadline) {
        worker.timed_out = true;
        ::kill(worker.pid, SIGKILL);  // EOF + reap happen on the next poll
      }
    }
  }

  return results;
}

}  // namespace dtaint

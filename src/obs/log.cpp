#include "src/obs/log.h"

#include <pthread.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <new>
#include <string>

#include "src/obs/stopwatch.h"

namespace dtaint::obs {

namespace internal {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarn)};
}  // namespace internal

namespace {

std::atomic<LogSink> g_sink{nullptr};
std::atomic<void*> g_sink_user{nullptr};

/// Seconds since the first log statement of the process — stable within
/// a run, meaningless across runs, which is all a log timestamp needs.
double UptimeSeconds() {
  static const Stopwatch start;
  return start.Seconds();
}

constexpr uint32_t kNoThreadId = ~uint32_t{0};
constinit thread_local uint32_t t_thread_id = kNoThreadId;

/// The next unused thread ordinal. It lives in a shared mapping, so a
/// forked child draws from the same sequence as its parent and its
/// siblings: every thread of a process tree gets an ordinal of its own.
std::atomic<uint32_t>& NextThreadId() {
  static std::atomic<uint32_t>* next = [] {
    void* shared = ::mmap(nullptr, sizeof(std::atomic<uint32_t>),
                          PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                          -1, 0);
    if (shared == MAP_FAILED) return new std::atomic<uint32_t>(0);
    return new (shared) std::atomic<uint32_t>(0);
  }();
  return *next;
}

// The thread that calls fork() goes on in the child as a thread of a
// new process, so it needs a new ordinal: the parent reserves one just
// before the fork and the child installs it. Reserving also maps the
// shared counter before a child could map a private one.
constinit thread_local uint32_t t_reserved_for_child = kNoThreadId;
void ReserveChildThreadId() {
  t_reserved_for_child = NextThreadId().fetch_add(1);
}
void InstallChildThreadId() { t_thread_id = t_reserved_for_child; }
[[maybe_unused]] const int g_atfork = ::pthread_atfork(
    &ReserveChildThreadId, nullptr, &InstallChildThreadId);

/// The built-in stderr sink: `ts=… level=… tid=… component: message`.
void DefaultLogSink(LogLevel level, std::string_view component,
                    std::string_view message, void* /*user*/) {
  // One buffered line per record so concurrent threads don't interleave
  // mid-line.
  std::string line = "ts=";
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%.3f", UptimeSeconds());
  line += ts;
  line += " level=";
  line += LogLevelName(level);
  line += " tid=";
  line += std::to_string(ThreadId());
  line += ' ';
  line.append(component.data(), component.size());
  line += ": ";
  line.append(message.data(), message.size());
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "error";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kDebug:
      return "debug";
  }
  return "?";
}

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  for (LogLevel level : {LogLevel::kError, LogLevel::kWarn, LogLevel::kInfo,
                         LogLevel::kDebug}) {
    if (text == LogLevelName(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

void SetLogLevel(LogLevel level) {
  internal::g_log_level.store(static_cast<int>(level),
                              std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(
      internal::g_log_level.load(std::memory_order_relaxed));
}

uint32_t ThreadId() {
  if (t_thread_id == kNoThreadId) t_thread_id = NextThreadId().fetch_add(1);
  return t_thread_id;
}

void SetLogSink(LogSink sink, void* user) {
  // user first: a racing Log must never pair the new sink with the old
  // user pointer's lifetime assumptions. (Callers swap sinks only at
  // quiescent points; this just keeps the benign order.)
  g_sink_user.store(user, std::memory_order_relaxed);
  g_sink.store(sink, std::memory_order_relaxed);
}

void Log(LogLevel level, std::string_view component,
         std::string_view message) {
  if (!LogEnabled(level)) return;
  LogSink sink = g_sink.load(std::memory_order_relaxed);
  void* user = g_sink_user.load(std::memory_order_relaxed);
  if (!sink) {
    DefaultLogSink(level, component, message, nullptr);
  } else {
    sink(level, component, message, user);
  }
}

void Logf(LogLevel level, const char* component, const char* fmt, ...) {
  if (!LogEnabled(level)) return;
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n < 0) return;
  size_t len = std::min(static_cast<size_t>(n), sizeof(buf) - 1);
  Log(level, component, std::string_view(buf, len));
}

}  // namespace dtaint::obs

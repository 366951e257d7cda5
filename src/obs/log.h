// Structured leveled logging — the pipeline's diagnostic channel.
//
// Records carry (level, component, message) and render by default as
// one `ts=… level=… tid=… <component>: <message>` line on stderr; a
// replaceable sink lets tests capture records and embedders reroute
// them. The disabled path of a DTAINT_LOG statement is one relaxed
// atomic load and a branch — the format arguments are never evaluated —
// so debug logging can stay in analysis inner loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace dtaint::obs {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// "error", "warn", "info", "debug".
std::string_view LogLevelName(LogLevel level);

/// Parses a level name (as accepted by --log-level). Returns false and
/// leaves *out untouched on anything else.
bool ParseLogLevel(std::string_view text, LogLevel* out);

/// Global threshold: records above it are dropped. Default: kWarn.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {
extern std::atomic<int> g_log_level;
}

/// The cost of a disabled log statement.
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) <=
         internal::g_log_level.load(std::memory_order_relaxed);
}

/// Small dense ordinal for the calling thread (0 for the first thread
/// that asks, 1 for the next, …). Shared with the event stream's
/// envelope so log lines and events agree on thread identity. The
/// sequence spans forked children: a child's threads, including the
/// one that called fork(), never reuse an ordinal of the parent or of
/// another child.
uint32_t ThreadId();

/// Sink signature. Receives already-filtered records; must be
/// thread-safe (the default stderr sink writes one line atomically).
using LogSink = void (*)(LogLevel level, std::string_view component,
                         std::string_view message, void* user);

/// Replaces the sink; nullptr restores the stderr default.
void SetLogSink(LogSink sink, void* user);

/// Emits one record if `level` is enabled.
void Log(LogLevel level, std::string_view component,
         std::string_view message);

/// printf-style convenience. Formats only when the level is enabled.
[[gnu::format(printf, 3, 4)]] void Logf(LogLevel level, const char* component,
                                        const char* fmt, ...);

}  // namespace dtaint::obs

/// Statement-position logging with a no-op disabled path (arguments are
/// not evaluated when the level is off).
#define DTAINT_LOG(level, component, ...)                     \
  do {                                                        \
    if (::dtaint::obs::LogEnabled(level)) {                   \
      ::dtaint::obs::Logf((level), (component), __VA_ARGS__); \
    }                                                         \
  } while (0)

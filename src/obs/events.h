// Live scan telemetry — a versioned, crash-safe NDJSON event stream.
//
// A fleet scan that dies three hours in must not be a black box: the
// metrics dump and the JSON report only exist if the run *finishes*.
// The event stream is the always-durable record: every scan-lifecycle
// event (corpus/image/phase/function begin+end, cache traffic, budget
// exhaustion, the alias setting, incidents, per-finding evidence,
// periodic heartbeats) is serialized as one JSON line and appended to
// the `--events-out` file with a single O_APPEND write(2) — so every
// event that was emitted before a crash is on disk, each on its own
// parseable line. Consumers (tools/scan_report, the fleet triage
// pipeline) tolerate a torn final line; everything before it is valid.
// It is also the one recorder of the scan's timeline: the Chrome trace
// is derived from its begin/end pairs (`scan_report --chrome-trace`,
// src/obs/scan_report.h), so the stream's crash tolerance is the
// trace's too.
//
// Event schema v1 — every line carries the envelope
//   {"v":1,"type":"<type>","ts_ms":<ms since stream open>,"tid":N,...}
// plus type-specific fields. Types emitted by the pipeline:
//
//   stream_begin / stream_end    tool, pid, unix_ms / outcome, events
//   corpus_begin / corpus_end    fleet scan brackets (corpus_scan)
//   image_begin / image_end      per-image outcome, status, duration_ms
//   binary_begin / binary_end    one Analyze() call (duration_ms); an
//                                Analyze that fails emits no binary_end
//   phase_begin / phase_end      one obs::Phase (src/obs/phase.h): lift,
//                                filter, callgraph, summary, link,
//                                structsim, relink, pathfind_index,
//                                pathfind, sanitize, report — in that
//                                order, never nested; phase_end carries
//                                duration_ms and per-phase gauges
//                                (cache hits/misses, resolved indirect
//                                calls, paths)
//   function_begin / function_end  per-function summary production:
//                                micros, cached (cache hit/miss),
//                                degraded, forks (state forks)
//   alias_mode                   "ondemand", or "off" with alias disabled
//   incident                     mirror of a resilience Incident
//                                (budget exhaustion carries its cause)
//   finding                      per-finding evidence: class, source,
//                                sink, sink function/site, hops,
//                                constraint count
//   heartbeat                    progress gauges: images done/total,
//                                functions done + functions/sec, RSS,
//                                events emitted — a stalled worker is
//                                distinguishable from a slow one
//   log                          flight-recorder-only: a log record
//
// Event *counts* per type are deterministic for a given program and
// config (timestamps are not); the benches exact-match the totals.
//
// The flight recorder is the crash half: a fixed-size lock-protected
// ring of the most recent event lines plus log records. Incident
// emission flushes it to `<events-out>.flight.ndjson`, and a fatal-
// signal hook (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT) dumps it with
// async-signal-safe writes only — so the last moments before a crash
// are always recoverable even if the OS page cache ate the tail of the
// main stream.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "src/resilience/incident.h"

namespace dtaint::obs {

/// Bumped whenever the line envelope or a type's fields change shape;
/// consumers check the stream_begin "v".
inline constexpr int kEventSchemaVersion = 1;

/// One event under construction: type + flat field list. Field helpers
/// append pre-escaped `"key":value` fragments; the stream adds the
/// envelope (v, ts_ms, tid) at emit time.
class Event {
 public:
  explicit Event(std::string_view type) : type_(type) {}

  Event& Str(std::string_view key, std::string_view value);
  Event& Num(std::string_view key, uint64_t value);
  /// Any other integer type (size_t, int, ...); negatives clamp to 0.
  template <std::integral T>
  Event& Num(std::string_view key, T value) {
    return Num(key, static_cast<uint64_t>(std::max<T>(value, 0)));
  }
  Event& Double(std::string_view key, double value, int decimals = 3);
  Event& Bool(std::string_view key, bool value);

  const std::string& type() const { return type_; }
  const std::string& fields() const { return fields_; }

 private:
  std::string type_;
  std::string fields_;  // ",\"k\":v,\"k2\":v2" — envelope tail
};

/// Fixed-size ring of the most recent NDJSON lines. Record() is
/// mutex-guarded (cheap; emission is never the hot path — the write(2)
/// of the main stream dominates). Dump() rewrites the armed path with
/// the ring's contents oldest-first; DumpFromSignal() does the same
/// with open/write/close only and NO locking — best effort by design:
/// a line being concurrently overwritten may come out torn, which the
/// NDJSON consumers already tolerate.
class FlightRecorder {
 public:
  static constexpr size_t kSlots = 256;
  static constexpr size_t kSlotBytes = 768;

  static FlightRecorder& Global();

  /// Enables recording and sets the dump path (also what the fatal-
  /// signal hook writes). Clears previously recorded lines.
  void Arm(const std::string& path);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Appends one line (truncated to kSlotBytes-2). No-op when disarmed.
  void Record(std::string_view line);

  /// Normal-context dump (takes the lock). False on I/O failure.
  bool Dump();
  /// Async-signal-safe dump for the crash hook.
  void DumpFromSignal();

  /// Total lines recorded since Arm (tests).
  uint64_t recorded() const { return seq_.load(std::memory_order_relaxed); }

  /// Acquires the recorder's lock for the duration of a fork(2). The
  /// scan supervisor holds it (with the other singleton locks) across
  /// fork so a child never inherits a mutex mid-Record from another
  /// thread — which would deadlock the child's first event emission.
  std::unique_lock<std::mutex> LockForFork() {
    return std::unique_lock<std::mutex>(mu_);
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder() = default;
  /// Rewrites the armed path with the ring, oldest line first, using
  /// open/write/close only. False when the file cannot be opened.
  bool WriteDump() const;

  struct Slot {
    uint32_t len = 0;
    char text[kSlotBytes];
  };

  mutable std::mutex mu_;
  Slot slots_[kSlots];
  std::atomic<uint64_t> seq_{0};
  std::atomic<bool> armed_{false};
  char path_[512] = {0};
};

/// Installs the fatal-signal hook (SIGSEGV, SIGBUS, SIGILL, SIGFPE,
/// SIGABRT) that dumps the flight recorder before re-raising the
/// default action. Idempotent; EventStream::Open calls it.
void InstallCrashHandler();

class EventStream {
 public:
  EventStream() = default;
  ~EventStream();
  EventStream(const EventStream&) = delete;
  EventStream& operator=(const EventStream&) = delete;

  /// The stream the pipeline reports into (opened by --events-out).
  static EventStream& Global();

  /// Creates/truncates `path`, writes the stream_begin event, arms the
  /// global flight recorder at `path + ".flight.ndjson"`, installs the
  /// crash hook, and tees log records into the recorder. False on I/O
  /// failure (stream stays disabled).
  bool Open(const std::string& path, std::string_view tool);

  /// Writes the stream_end event and closes. Safe when never opened.
  void Close(std::string_view outcome);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Serializes and appends one event line (single write(2)); also
  /// records the line into the flight recorder and bumps the per-type
  /// count. No-op when the stream is not open.
  void Emit(const Event& event);

  /// Emits a heartbeat carrying the standard progress gauges. Callers
  /// pass totals; functions/sec and RSS are computed here.
  void EmitHeartbeat(uint64_t images_done, uint64_t images_total,
                     uint64_t functions_done, double functions_per_sec);

  /// Lifetime event count (including stream_begin).
  uint64_t EventCount() const { return count_.load(std::memory_order_relaxed); }

  /// Milliseconds since Open (what ts_ms carries).
  double NowRelMillis() const;

  /// See FlightRecorder::LockForFork.
  std::unique_lock<std::mutex> LockForFork() {
    return std::unique_lock<std::mutex>(mu_);
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  int fd_ = -1;
  std::chrono::steady_clock::time_point t0_;
  std::atomic<uint64_t> count_{0};
};

/// Emits an `incident` event mirroring `incident` (budget cause
/// included when set) and flushes the flight recorder — incident
/// handling is one of the two flush triggers, so the recorder's view
/// of "what led up to this" is on disk even if the process dies later.
void EmitIncident(EventStream& stream, const Incident& incident);

/// Resident-set size of this process in bytes (Linux /proc; 0 where
/// unavailable).
uint64_t CurrentRssBytes();

/// Background heartbeat: a thread that emits one heartbeat event every
/// `period_ms` while alive, plus a final one at destruction (so every
/// run with heartbeats enabled ends with a deterministic last gauge
/// reading). Images gauges are fed by the owner via the atomics;
/// functions_done reads the "summary.functions_done" live counter the
/// interprocedural pass increments per function. No thread is spawned
/// when the stream is disabled or period_ms is 0.
class Heartbeat {
 public:
  Heartbeat(EventStream& stream, uint32_t period_ms);
  ~Heartbeat() { Stop(); }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  std::atomic<uint64_t>& images_done() { return images_done_; }
  std::atomic<uint64_t>& images_total() { return images_total_; }

  /// Emits the final beat and joins the thread. Idempotent.
  void Stop();

 private:
  void Beat();

  EventStream& stream_;
  std::atomic<uint64_t> images_done_{0};
  std::atomic<uint64_t> images_total_{0};
  uint64_t last_functions_ = 0;
  std::chrono::steady_clock::time_point last_beat_;
  bool running_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace dtaint::obs

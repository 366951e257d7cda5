// Live scan telemetry — a versioned, crash-safe NDJSON event stream.
//
// A fleet scan that dies three hours in must not be a black box: the
// metrics dump and the JSON report only exist if the run *finishes*.
// The event stream is the always-durable record: every scan-lifecycle
// event (corpus/image/phase/function begin+end, cache traffic, budget
// exhaustion, the alias setting, incidents, per-finding evidence,
// periodic heartbeats) is serialized as one JSON line and appended to
// the `--events-out` file with a single O_APPEND write(2) — so every
// event emitted before the process dies is in the file, each on its
// own parseable line. (The stream never fsyncs: a crash of the machine
// itself can still lose its tail.) Consumers (tools/scan_report, the
// fleet triage pipeline) tolerate a torn final line; everything
// before it is valid.
// It is also the one recorder of the scan's timeline: the Chrome trace
// is derived from its begin/end pairs (`scan_report --chrome-trace`,
// src/obs/scan_report.h), so the stream's crash tolerance is the
// trace's too.
//
// A resumed run appends to the stream it resumes (Open's append mode,
// `corpus_scan --resume`), so one file can hold several streams, each
// starting at its stream_begin with ts_ms back at 0; scan_report reads
// each as a stream of its own. The stream is at-least-once: a resumed
// run re-emits what it replays, and a torn line only costs the record
// on it.
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
//                                structsim, relink, pathfind, sanitize,
//                                report — in that order, never nested;
//                                phase_end carries duration_ms and
//                                per-phase gauges (cache hits/misses,
//                                resolved indirect calls, paths)
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
//   image_resumed / image_retry / worker_exit
//                                scan supervisor lifecycle
//                                (src/resilience/supervisor.h)
//   image_done / image_quarantined
//                                the supervisor's terminal record of
//                                one image, written by its parent
//                                process only: image, fp (content
//                                fingerprint), attempts,
//                                worker_restarts, incidents, and the
//                                ScanOutcome (image_done; a forked
//                                task's carries its counter delta) or
//                                reason (image_quarantined) — what a
//                                resumed run replays
//
// Event *counts* per type are deterministic for a given program and
// config (timestamps are not); the benches exact-match the totals.
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
  /// `json` must be one whole JSON value; it is embedded unescaped.
  Event& Raw(std::string_view key, std::string_view json);

  const std::string& type() const { return type_; }
  const std::string& fields() const { return fields_; }

 private:
  std::string type_;
  std::string fields_;  // ",\"k\":v,\"k2\":v2" — envelope tail
};

class Heartbeat;

class EventStream {
 public:
  EventStream() = default;
  ~EventStream();
  EventStream(const EventStream&) = delete;
  EventStream& operator=(const EventStream&) = delete;

  /// The stream the pipeline reports into (opened by --events-out).
  static EventStream& Global();

  /// Creates/truncates `path` (with `append`, keeps what it holds and
  /// adds a newline first if its last line is torn, so the new stream
  /// starts on a line of its own) and writes the stream_begin event.
  /// False on I/O failure (stream stays disabled). The log sink is
  /// left alone: log records never enter the stream.
  bool Open(const std::string& path, std::string_view tool,
            bool append = false);

  /// Writes the stream_end event and closes. Safe when never opened.
  void Close(std::string_view outcome);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Serializes and appends one event line (single write(2)) and bumps
  /// the event count. No-op when the stream is not open.
  void Emit(const Event& event);
  /// Emit's torn twin for the `stream_torn` fault site: writes only the
  /// first half of the line and no newline, what a crash mid-write
  /// leaves; the process carries on.
  void EmitTorn(const Event& event);

  /// Emits a heartbeat carrying the standard progress gauges. Callers
  /// pass totals; functions/sec and RSS are computed here.
  void EmitHeartbeat(uint64_t images_done, uint64_t images_total,
                     uint64_t functions_done, double functions_per_sec);

  /// Emits a heartbeat now, from the calling thread, when a Heartbeat
  /// runs on this stream; a no-op otherwise. ScanSupervisor::Run calls
  /// it for each image it folds, so the beats show every images_done
  /// value however fast the images finish.
  void BeatNow();

  /// Lifetime event count (including stream_begin).
  uint64_t EventCount() const { return count_.load(std::memory_order_relaxed); }

  /// Milliseconds since Open (what ts_ms carries).
  double NowRelMillis() const;

  /// Acquires the stream's lock for the duration of a fork(2). The
  /// scan supervisor holds it (with the other singleton locks) across
  /// fork so a child never inherits the mutex mid-Emit from another
  /// thread — which would deadlock the child's first event emission.
  std::unique_lock<std::mutex> LockForFork() {
    return std::unique_lock<std::mutex>(mu_);
  }

 private:
  friend class Heartbeat;
  void Write(const Event& event, bool torn);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  int fd_ = -1;
  std::chrono::steady_clock::time_point t0_;
  std::atomic<uint64_t> count_{0};
  std::mutex beat_mu_;              // serializes beats, guards heartbeat_
  Heartbeat* heartbeat_ = nullptr;  // the running Heartbeat, if any
};

/// Emits an `incident` event mirroring `incident` (budget cause
/// included when set).
void EmitIncident(EventStream& stream, const Incident& incident);

/// Resident-set size of this process in bytes (Linux /proc; 0 where
/// unavailable).
uint64_t CurrentRssBytes();

/// Background heartbeat: a thread that emits one heartbeat event every
/// `period_ms` while alive, one more per EventStream::BeatNow, plus one
/// at construction and a final one at destruction (so every run with
/// heartbeats enabled starts and ends with a deterministic gauge
/// reading). images_total is the owner's; images_done reads the
/// "supervisor.images_done" live counter ScanSupervisor::Run bumps in
/// this process as it folds each task, and functions_done the
/// "summary.functions" counter the interprocedural pass bumps as it
/// starts each function (a forked worker's reach this process when
/// Run folds its task). No thread is spawned and no beat emitted when
/// the stream is disabled or period_ms is 0.
class Heartbeat {
 public:
  Heartbeat(EventStream& stream, uint32_t period_ms,
            uint64_t images_total = 0);
  ~Heartbeat() { Stop(); }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// Emits the final beat and joins the thread. Idempotent.
  void Stop();

 private:
  friend class EventStream;
  void Beat();  // caller holds stream_.beat_mu_

  EventStream& stream_;
  const uint64_t images_total_;
  uint64_t last_functions_ = 0;
  std::chrono::steady_clock::time_point last_beat_;
  bool running_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace dtaint::obs

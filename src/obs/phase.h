// Pipeline phase scope — the one primitive that times a DTaint phase.
//
// One obs::Phase covers one phase of one Analyze call in every
// observability channel at once, from a single clock reading:
//  * events:  phase_begin at construction, phase_end at Finish with
//             duration_ms plus the caller's end fields (stream open);
//             `scan_report --chrome-trace` turns the pair into the
//             phase's slice of the Chrome trace;
//  * metrics: one sample of the histogram `phase.<name>_micros`
//             (always), which the report's per-run metrics delta and
//             the benches' `<phase>_seconds` values are read from.
// Against a closed stream a phase costs two clock reads and one
// histogram observation; event fields are not formatted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/stopwatch.h"

namespace dtaint::obs {

class Phase {
 public:
  /// Starts the phase against the global event stream and metrics
  /// registry. `name` must outlive the scope (a literal).
  explicit Phase(std::string_view name) : name_(name) {
    if (EventStream& events = EventStream::Global(); events.enabled()) {
      events_ = &events;
      events.Emit(Event("phase_begin").Str("phase", name_));
    }
  }
  ~Phase() { Finish(); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Ends the phase in every channel and returns its seconds.
  /// `end_fields(Event&)` appends fields to the phase_end event; it is
  /// called only when the stream is open. Calls after the first record
  /// nothing and return the same seconds.
  template <typename EndFields>
  double Finish(EndFields&& end_fields) {
    if (finished_) return seconds_;
    finished_ = true;
    uint64_t nanos = watch_.Nanos();
    seconds_ = static_cast<double>(nanos) * 1e-9;
    MetricsRegistry::Global()
        .histogram("phase." + std::string(name_) + "_micros")
        .Observe(nanos / 1000);
    if (events_) {
      Event end("phase_end");
      end.Str("phase", name_).Double("duration_ms", seconds_ * 1e3);
      end_fields(end);
      events_->Emit(end);
    }
    return seconds_;
  }
  double Finish() { return Finish([](Event&) {}); }

 private:
  std::string_view name_;
  Stopwatch watch_;
  EventStream* events_ = nullptr;  // null when the stream was closed
  bool finished_ = false;
  double seconds_ = 0.0;
};

}  // namespace dtaint::obs

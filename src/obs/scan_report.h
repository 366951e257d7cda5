// Fleet aggregation over NDJSON event streams (src/obs/events.h) —
// the library behind tools/scan_report.
//
// Input is one or more event streams: live ones, finished ones, and —
// the case that motivates the whole subsystem — truncated ones left by
// killed or crashed workers. One file may hold several streams: a
// resumed corpus_scan appends its own stream_begin..stream_end to the
// file of the run it resumes, so every stream_begin after the first
// event of a file starts a new stream. Parsing is line-at-a-time and
// defensive: a torn line or garbage in the middle is counted as
// malformed and skipped, never fatal.
//
// The aggregate answers the fleet operator's triage questions:
//  * per-image status table — an image_begin with no matching
//    image_end is reported as "in_flight": that is the image the dead
//    worker was chewing on;
//  * phase time breakdown (phase_end durations summed by phase name),
//    with the summed binary_end and image_end durations and what their
//    phases leave unattributed;
//  * top-k hot functions by summary-production time;
//  * incident and degradation counts by phase;
//  * whether each stream terminated cleanly (stream_end present).
//
// The same streams also convert to a Chrome trace (EventsToChromeTrace):
// the event stream is the one recorder of the binary → phase →
// function timeline, and the trace is a view of it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/json.h"
#include "src/util/status.h"

namespace dtaint::obs {

/// Calls fold(event, type) for every parseable event line of `ndjson`
/// (a JSON object with a string "type") and returns the number of
/// lines skipped as malformed. The one line reader of every stream
/// consumer: scan_report and the supervisor's resume replay.
template <typename Fold>
size_t ForEachEvent(std::string_view ndjson, Fold&& fold) {
  size_t malformed = 0;
  size_t pos = 0;
  while (pos < ndjson.size()) {
    size_t eol = ndjson.find('\n', pos);
    // A final line without its newline is the torn-write case: try it
    // anyway — it parses iff the write completed before the kill.
    std::string_view line = ndjson.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? ndjson.size() : eol + 1;
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    const JsonValue* type =
        parsed.ok() && parsed->is_object() ? parsed->Find("type") : nullptr;
    if (!type || !type->is_string() || type->string().empty()) {
      ++malformed;
      continue;
    }
    fold(*parsed, std::string_view(type->string()));
  }
  return malformed;
}

struct ImageRollup {
  std::string image;
  std::string vendor;
  std::string product;
  std::string arch;
  std::string packing;
  /// image_end status ("ok" / "unextractable" / "failed"), or
  /// "in_flight" while only image_begin has been seen, or
  /// "quarantined" once the supervisor gave up on the image.
  std::string status = "in_flight";
  bool complete = false;
  uint64_t functions = 0;
  uint64_t findings = 0;
  double duration_ms = 0.0;
  /// Scan attempts for this image. Streams from the same image merge
  /// into this one logical row (ImageFor keys on the image name), so a
  /// crashed worker's stream plus its retry's stream still report one
  /// row with attempts=2. Counted from image_begin events and raised
  /// to any attempt count carried by supervisor lifecycle events
  /// (image_retry / image_quarantined / image_resumed), which also
  /// cover attempts killed before their first event flushed.
  uint64_t attempts = 0;
  /// image_begin events folded so far (internal feed for `attempts`;
  /// kept separate so lifecycle events that carry an absolute attempt
  /// count never double-count with the begins).
  uint64_t begin_events = 0;
  /// Replayed by a resumed run (image_resumed event) rather than
  /// rescanned in the stream(s) being aggregated.
  bool resumed = false;
};

struct PhaseRollup {
  std::string phase;
  uint64_t runs = 0;
  double total_ms = 0.0;
};

struct FunctionRollup {
  std::string function;
  double total_ms = 0.0;
  uint64_t calls = 0;
  uint64_t cached = 0;  // of those, served from the summary cache
};

struct ScanAggregate {
  size_t streams = 0;
  /// Streams with no stream_end event — killed/crashed/still running.
  size_t truncated_streams = 0;
  size_t events = 0;
  size_t malformed_lines = 0;

  std::vector<ImageRollup> images;  // first-seen order
  std::vector<PhaseRollup> phases;  // name order
  /// All functions seen, time-descending (callers truncate to top-k
  /// via ScanReportOptions before rendering).
  std::vector<FunctionRollup> functions;
  std::map<std::string, uint64_t, std::less<>> incidents_by_phase;
  std::map<std::string, uint64_t, std::less<>> events_by_type;

  uint64_t binaries = 0;        // binary_end events
  double binary_ms = 0.0;       // their summed duration_ms
  uint64_t image_ends = 0;      // image_end events
  double image_ms = 0.0;        // their summed duration_ms
  uint64_t findings = 0;        // finding events
  uint64_t incidents = 0;
  uint64_t degraded_functions = 0;  // function_end with degraded:true
  uint64_t heartbeats = 0;
  /// Supervisor lifecycle tallies (src/resilience/supervisor.h events;
  /// all zero for in-process scans, which never emit them).
  uint64_t image_retries = 0;     // image_retry events
  uint64_t quarantined_images = 0;  // image_quarantined events
  uint64_t worker_exits = 0;      // worker_exit events (failed attempts)
  uint64_t resumed_images = 0;    // image_resumed events
  /// Gauges of the most recent heartbeat across all streams.
  uint64_t last_images_done = 0;
  uint64_t last_images_total = 0;
  uint64_t last_functions_done = 0;
  double last_rss_mb = 0.0;
};

struct ScanReportOptions {
  size_t top_functions = 10;
};

/// Folds one file's text (one or more streams, possibly truncated
/// mid-line) into `agg`. Never fails: unparseable lines bump
/// malformed_lines.
void AggregateEvents(std::string_view ndjson, ScanAggregate* agg);

/// Sorts functions time-descending (name ascending on ties) and
/// truncates to options.top_functions. Call once after the last
/// AggregateEvents.
void FinalizeAggregate(ScanAggregate* agg, const ScanReportOptions& options);

/// Reads each stream file whole. Fails only on an unreadable file.
Result<std::vector<std::string>> ReadEventFiles(
    const std::vector<std::string>& paths);

/// Reads + aggregates + finalizes a list of stream files. Fails only
/// on an unreadable file, never on stream contents.
Result<ScanAggregate> AggregateEventFiles(
    const std::vector<std::string>& paths,
    const ScanReportOptions& options = {});

/// Fleet summary as markdown (the human/PR-comment form).
std::string AggregateToMarkdown(const ScanAggregate& agg);

/// Fleet summary as a JSON document (round-trips through
/// util/json.h's parser; validated in the test suite).
std::string AggregateToJson(const ScanAggregate& agg);

/// The streams' timeline as one Chrome trace-event document (JSON
/// Object Format, for chrome://tracing or Perfetto). Each binary_,
/// phase_, function_ and image_ begin event becomes a "B" record and
/// each matching end event an "E" record: `name` is the event's
/// binary/phase/function/image field, `cat` that prefix, `ts` its
/// ts_ms x 1000 (µs), `tid` the envelope's, and `pid` the stream's
/// 1-based position among all the streams `streams` hold (a file with
/// two streams takes two pids, so a killed run's open slices never
/// overlap its resumed run's). Chrome nests the slices of a thread
/// by emission order, so nothing is paired here: an end whose begin
/// was lost, or a begin a truncated stream never ended, stays
/// unmatched, and malformed lines are skipped.
std::string EventsToChromeTrace(const std::vector<std::string>& streams);

}  // namespace dtaint::obs

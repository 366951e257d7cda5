// Crash-safe scan checkpoint journal — the resume half of the scan
// supervisor (src/resilience/supervisor.h).
//
// A fleet run over thousands of firmware images must survive kill -9
// of the *supervisor* without losing the hours already spent. Every
// image outcome is appended to `<journal-dir>/journal.ndjson` as one
// O_APPEND write(2) (the same crash-safety contract as the event
// stream, src/obs/events.h): each record that was appended before the
// kill is on disk as a whole parseable line, and a torn final line is
// skipped by the replay. On `corpus_scan --resume`, the journal is
// replayed, images whose content fingerprint has an `image_done` or
// `image_quarantined` record are satisfied from the journal without
// re-analysis, and the merged fleet report is byte-identical to an
// uninterrupted run's (the resume oracle in tests/supervisor_test.cpp
// kills a scan at a fault-injected point and asserts exactly that).
//
// Record schema (NDJSON, one object per line, versioned):
//
//   {"v":1,"type":"image_begin","image":L,"fp":F}
//   {"v":1,"type":"image_done","image":L,"fp":F,"attempts":N,
//    "worker_restarts":R,"incidents":[...],"outcome":{...}}
//   {"v":1,"type":"image_quarantined","image":L,"fp":F,"attempts":N,
//    "worker_restarts":R,"reason":S,"incidents":[...]}
//
// `fp` is the content fingerprint of the packed image blob
// (Fingerprint128 hex), so a journal never resumes a *different*
// image that happens to share a label, and survives corpus reordering.
//
// The journal is at-least-once, not exactly-once: a record lost to a
// torn write (or to the kJournalTorn fault site) only costs that
// image a re-scan on resume — it can never corrupt the merged report,
// because the replay drops any line that does not parse as a whole
// versioned record.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/resilience/incident.h"
#include "src/util/status.h"

namespace dtaint {

class JsonValue;

/// Bumped whenever a record's shape changes; replay ignores records
/// from other versions (they count as garbage).
inline constexpr int kJournalSchemaVersion = 1;

/// Everything the fleet report needs from one image's scan — the unit
/// the supervisor's workers return over the wire and the journal
/// checkpoints. JSON fragments (findings, score) are carried as raw
/// pre-serialized strings so a journal replay reproduces the fleet
/// report byte-for-byte.
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

/// Parses one incident serialized by IncidentToJson (incident.h).
Result<Incident> IncidentFromJson(const JsonValue& value);

struct JournalRecord {
  /// "image_begin", "image_done", or "image_quarantined".
  std::string type;
  std::string image;        // fleet label (human)
  std::string fingerprint;  // content identity (machine)
  uint32_t attempts = 1;
  uint32_t worker_restarts = 0;
  std::string reason;  // quarantine reason; empty otherwise
  /// Supervisor-level incidents (worker deaths, quarantine) — kept
  /// separate from outcome.incidents (analysis-level) so a resumed
  /// run rebuilds the fleet incident list in the same order.
  std::vector<Incident> incidents;
  std::optional<ScanOutcome> outcome;  // image_done only
};

/// One line, no trailing newline.
std::string JournalRecordToLine(const JournalRecord& record);
/// Strict inverse: wrong version, unknown type, or missing fields is
/// an error (replay counts it as garbage).
Result<JournalRecord> JournalRecordFromLine(std::string_view line);

/// What a replay recovered. Lookup is by content fingerprint.
struct JournalReplay {
  std::map<std::string, JournalRecord, std::less<>> done;
  std::map<std::string, JournalRecord, std::less<>> quarantined;
  /// Images with an image_begin but no terminal record — what the
  /// dead scan was chewing on (they re-run on resume).
  std::vector<std::string> in_flight;
  size_t records = 0;        // well-formed records folded
  size_t garbage_lines = 0;  // torn/corrupt lines skipped
};

/// Append-only journal writer. One O_APPEND write(2) per record; no
/// buffering, so a SIGKILL after Append returns can never lose the
/// record (only a machine crash can, and replay tolerates the torn
/// line that leaves).
class ScanJournal {
 public:
  ScanJournal() = default;
  ~ScanJournal();
  ScanJournal(ScanJournal&& other) noexcept;
  ScanJournal& operator=(ScanJournal&& other) noexcept;
  ScanJournal(const ScanJournal&) = delete;
  ScanJournal& operator=(const ScanJournal&) = delete;

  /// Creates `dir` (and parents) if needed and opens the journal file
  /// for appending. The file is never truncated — interrupted runs
  /// and their resumes share one journal.
  static Result<ScanJournal> Open(const std::string& dir);

  /// Journal file path for a given directory.
  static std::string PathFor(const std::string& dir);

  /// Appends one record as a single write. Consults the kJournalTorn
  /// fault site (detail "type:image") and then deliberately writes
  /// only a prefix with no newline — the deterministic torn-write the
  /// replay tests exercise.
  Status Append(const JournalRecord& record);

  bool open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Replays `dir`'s journal. A missing directory or file is an empty
  /// replay (resume of a fresh journal is a full run), not an error;
  /// only an unreadable existing file fails.
  static Result<JournalReplay> Replay(const std::string& dir);

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace dtaint

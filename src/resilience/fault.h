// Deterministic fault injection for the pipeline's failure edges.
//
// Resilience code is only trustworthy if its failure paths run in CI.
// A FaultPlan names pipeline sites where failures can be injected
// deterministically — lift error on function N, budget exhaustion in
// the summary phase, a disk-cache I/O error, a truncated firmware
// section — so tests/resilience_test.cpp can prove that a corpus scan
// completes with correct partial results under each fault.
//
// Rules come from the DTAINT_FAULTS environment variable (read once,
// lazily) or from the Install* API (tests). Spec grammar, rules
// separated by ';' or ',':
//
//   site[@match][:count][+skip]
//
//   site   lift | summary | pathfind | cache_read | cache_write |
//          extract | load | crash | worker_kill | worker_hang |
//          stream_torn
//   match  substring the site's detail string must contain (function
//          name, binary name, file path); empty matches everything
//   count  how many matching occurrences fail (default 1, '*' = all)
//   skip   matching occurrences to let pass first (default 0)
//
// Examples:
//   DTAINT_FAULTS="lift@parse_uri"        first lift of parse_uri fails
//   DTAINT_FAULTS="cache_read:2"          first two disk reads error
//   DTAINT_FAULTS="summary@handler+1"     second summary of *handler*
//   DTAINT_FAULTS="extract:*"             every extraction fails
//
// ShouldFail is the single hot-path entry point: a relaxed atomic load
// when no plan is installed (the overwhelmingly common case), a
// mutex-guarded rule scan otherwise. Matching occurrences are counted
// per rule, so "the Nth occurrence" is deterministic even when sites
// are hit from the phase-1 worker pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace dtaint {

enum class FaultSite : uint8_t {
  kLift,        // per-function CFG recovery / lifting
  kSummary,     // per-function symbolic analysis (degrades, not fails)
  kPathfinder,  // sink-to-source search for one binary
  kCacheRead,   // disk-cache blob read (I/O error: a miss)
  kCacheWrite,  // disk-cache pack write (I/O error: stays queued)
  kExtract,     // firmware unpacking
  kLoad,        // binary image parsing
  kCrash,       // hard process death mid-scan. ScanImage consults it
                // right after image_begin; a supervisor with forked
                // workers first consults it in the parent before each
                // image's first request, so a crash@<label> spec (no
                // skip) kills the parent, not a worker. The oracles in
                // tests/events_test.cpp and tests/supervisor_test.cpp
                // prove the event stream survives, and that a resume
                // from it matches an uninterrupted run, under either
                // runner.
  kWorkerKill,  // isolated scan worker SIGKILLs itself at task start —
                // the synthetic poison image the supervisor must
                // retry and eventually quarantine
  kWorkerHang,  // isolated scan worker spins forever at task start —
                // exercises the per-image wall-clock watchdog
  kStreamTorn,  // the supervisor writes an image's image_done event as
                // a prefix with no newline — the torn write the resume
                // replay must skip (that record, and the next line it
                // glues onto, is lost; the stream is at-least-once and
                // the image is simply re-scanned)
};

/// "lift", "summary", "pathfind", "cache_read", ...
std::string_view FaultSiteName(FaultSite site);
/// Inverse of FaultSiteName; false on unknown names.
bool ParseFaultSite(std::string_view name, FaultSite* out);

struct FaultRule {
  FaultSite site = FaultSite::kLift;
  std::string match;  // substring of the detail; empty matches all
  int skip = 0;       // matching occurrences to let pass first
  int count = 1;      // occurrences that fail after the skip; -1 = all
};

class FaultPlan {
 public:
  /// The process-wide plan every instrumented site consults. First
  /// access installs rules from DTAINT_FAULTS, if set.
  static FaultPlan& Global();

  /// Parses and installs a spec (see grammar above), replacing any
  /// existing rules. Empty spec just clears.
  Status InstallSpec(std::string_view spec);
  /// Installs rules directly (test API), replacing existing ones.
  void Install(std::vector<FaultRule> rules);
  /// Removes all rules (tests call this in TearDown).
  void Clear();

  /// True when the site should fail this occurrence. `detail` is the
  /// site-specific context string rules match against.
  bool ShouldFail(FaultSite site, std::string_view detail = {});

  /// Total faults fired since process start (monotonic).
  uint64_t injected() const { return injected_.load(std::memory_order_relaxed); }

  /// Each installed rule's occurrence counters (seen, fired), in rule
  /// order.
  using Counters = std::vector<std::pair<int, int>>;
  /// Copies the rules' occurrence counters. A forked scan worker takes
  /// one at fork and restores it before each task it runs.
  Counters SnapshotCounters();
  /// Puts back counters taken by SnapshotCounters, so later occurrences
  /// are counted as if nothing had happened in between. Ignored when
  /// the rules were replaced since (the rule count differs).
  void RestoreCounters(const Counters& counters);

  /// Acquires the rule lock for the duration of a fork(2), so a forked
  /// scan worker never inherits it mid-ShouldFail from another thread.
  std::unique_lock<std::mutex> LockForFork() {
    return std::unique_lock<std::mutex>(mu_);
  }

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

 private:
  FaultPlan() = default;

  struct ActiveRule {
    FaultRule rule;
    int seen = 0;   // matching occurrences observed
    int fired = 0;  // of those, how many were failed
  };

  std::mutex mu_;
  std::vector<ActiveRule> rules_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> injected_{0};
};

}  // namespace dtaint

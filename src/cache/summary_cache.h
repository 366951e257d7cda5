// Content-addressed persistent cache of function summaries.
//
// DTaint's structural win is that every function is symbolically
// analyzed exactly once per run (Algorithm 2); this cache extends
// "once" across runs. The key is a 128-bit fingerprint of the
// function's CFG skeleton and code digest plus an engine-configuration
// fingerprint, so a re-scan of a firmware corpus re-analyzes only
// functions whose code or analysis configuration actually changed —
// everything else (shared libc/busybox code between firmware revisions,
// unchanged binaries) is a lookup. The key needs no lifted IR, so a hit
// never lifts the function.
//
// Two tiers:
//  * an in-memory LRU of *encoded* blobs (bounded by entries and
//    bytes) — every hit round-trips through the codec, so a cached
//    result is by construction identical to what a cold process would
//    read back from disk;
//  * an optional on-disk store (one `<key>.dtsc` file per entry,
//    written atomically via rename).
//
// Corruption tolerance is a hard requirement: a damaged entry —
// truncated file, flipped bit, stale codec version — must behave
// exactly like a miss (recompute, overwrite), never crash, and never
// alter analysis results. The differential-oracle test suite holds the
// cache to "cold == warm == corrupted-then-recovered" on every corpus
// it can synthesize.
//
// All methods are thread-safe: the interprocedural phase looks up and
// stores from its worker pool when InterprocConfig::num_threads > 1.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/cfg/function.h"
#include "src/obs/metrics.h"
#include "src/resilience/retry.h"
#include "src/symexec/defpairs.h"
#include "src/symexec/engine.h"
#include "src/util/hash.h"

namespace dtaint {

struct CacheConfig {
  /// Directory for the on-disk tier; empty = in-memory only. Created
  /// on first store if missing.
  std::string disk_dir;
  /// In-memory LRU bounds (whichever trips first evicts).
  size_t max_memory_entries = 4096;
  size_t max_memory_bytes = 64u << 20;
  /// Bounded retry-with-backoff for disk-tier reads and writes. After
  /// the final attempt fails the cache falls back to cache-off for
  /// that entry (miss on read, memory-only on write).
  RetryPolicy retry;
};

/// Counters: monotonic over the cache's lifetime. `hits` counts every
/// successful lookup (memory or disk); `disk_hits` the subset served
/// by promoting a disk entry into memory. A corrupt entry counts as
/// both `corrupt_entries` and `misses`.
struct CacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t stores = 0;
  size_t disk_hits = 0;
  size_t corrupt_entries = 0;
  size_t memory_entries = 0;
  size_t memory_bytes = 0;
  size_t io_retries = 0;   // disk operations that needed a re-try
  size_t io_failures = 0;  // disk operations abandoned after all tries
};

class SummaryCache {
 public:
  explicit SummaryCache(CacheConfig config = {});

  /// Returns the cached summary for `key`, or nullopt. Decode failures
  /// (corruption, version skew) discard the entry and report a miss.
  std::optional<FunctionSummary> Lookup(const Hash128& key);

  /// Encodes and inserts `summary` under `key` (memory tier + disk
  /// tier when configured). Disk write failures are swallowed: the
  /// cache is an accelerator, never a correctness dependency.
  void Store(const Hash128& key, const FunctionSummary& summary);

  CacheStats stats() const;

  const CacheConfig& config() const { return config_; }

 private:
  void InsertMemoryLocked(const Hash128& key, std::vector<uint8_t> blob);
  void EvictLocked();
  std::string PathFor(const Hash128& key) const;

  CacheConfig config_;

  mutable std::mutex mu_;
  struct Entry {
    Hash128 key;
    std::vector<uint8_t> blob;
  };
  std::list<Entry> lru_;  // front = most recently used
  std::map<Hash128, std::list<Entry>::iterator> index_;
  CacheStats stats_;

  // Registry mirrors of stats_ ("cache.*" in the global metrics
  // registry): every increment above lands in both, so InterprocStats
  // can be populated from the registry without asking the cache.
  // Handles resolved once here; stable for the registry's lifetime.
  obs::Counter& m_hits_;
  obs::Counter& m_misses_;
  obs::Counter& m_evictions_;
  obs::Counter& m_stores_;
  obs::Counter& m_disk_hits_;
  obs::Counter& m_corrupt_;
  obs::Counter& m_io_retries_;
  obs::Counter& m_io_failures_;
  obs::Gauge& m_memory_bytes_;
};

/// Fingerprint of everything outside the function body that can change
/// what SymEngine::Analyze produces: codec version, target arch,
/// engine budgets/toggles, and the binary's readable data bytes (the
/// engine concretizes loads from .rodata/.data, so those bytes are part
/// of the analysis input). The alias setting is not in it: alias
/// queries run on demand after linking, so summaries are the same with
/// alias on or off.
Hash128 EngineFingerprint(const Binary& binary, const EngineConfig& config);

/// Version of the FunctionKey layout. Bumped whenever what the key
/// hashes changes, so entries written under an older layout miss
/// instead of aliasing. 2: skeleton + code digest (1 hashed the IR).
inline constexpr uint64_t kFunctionKeySchema = 2;

/// Cache key for one function: the engine fingerprint extended with the
/// function's CFG skeleton — block bounds and jump kinds, CFG edges,
/// callsites — and its code digest. Any single-instruction change
/// reaches the key through the digest. Deliberately EXCLUDES
/// CallSite::resolved_targets: structure-similarity resolution only
/// affects the later linking phase, never the intraprocedural summary
/// being cached, so resolving indirect calls must not invalidate
/// entries (a later scan that resolves more targets still hits).
Hash128 FunctionKey(const Function& fn, const Hash128& engine_fingerprint);

}  // namespace dtaint

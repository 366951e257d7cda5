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
// Every entry is held once, as an *encoded* blob, in one of two places,
// and every hit decodes it — so a served summary is by construction
// identical to what a cold process would read back from disk:
//  * the pending queue: Store() encodes each new summary into it, and a
//    lookup serves it from there until its pack is written;
//  * an optional on-disk store of immutable *pack files*, one per
//    Summarize pass (that is, per binary). Flush() writes the queue as
//    one `<hex32>.dtsp` file, named by the fingerprint of its bytes and
//    written atomically via rename:
//
//      u32 magic "DTSP" | u32 version | u32 count
//      count x (u64 key.hi | u64 key.lo | u32 length)   sorted by key
//      u64 FNV-1a checksum over everything above
//      the blobs (EncodeSummary bytes), in index order
//
//    Entries are sorted by key, so a binary's pack is byte-identical at
//    every thread count. One file per binary, not per function: an
//    inode per summary costs more CPU than encoding it. Flush() drops
//    an entry from the queue only once its pack is renamed in and
//    indexed, so no key is ever in neither place; a failed write leaves
//    the entries queued for the next Flush().
//
// A cache without a disk directory never flushes: its queue is its
// whole store. Only tests use one (the golden, differential, obs and
// alias suites), to share summaries between scans in one process.
//
// Reading: the constructor reads every pack's index into an in-memory
// map (key -> pack, offset, length), so supervisor workers forked after
// it inherit the index. A key the map lacks re-lists the directory, but
// only when its mtime has moved since the last listing, and reads only
// packs it has not seen. The cache's own Flush() is not such a move: it
// indexes its pack itself. A hit preads just that blob.
//
// Corruption tolerance is a hard requirement: a damaged entry —
// truncated file, flipped bit, stale codec version — must behave
// exactly like a miss (recompute, store again), never crash, and never
// alter analysis results. A key held by several packs keeps every
// copy, newest first; a copy that fails to decode is counted and
// dropped and the next one tried, so a recomputed entry in a newer
// pack serves even a fresh process. A pack whose index fails its
// checksum is ignored and counted once. The differential-oracle test
// suite holds the cache to "cold == warm == corrupted-then-recovered"
// on every corpus it can synthesize.
//
// An I/O error is not corruption, and nothing retries it in place: a
// failed blob read is a miss that leaves the copy indexed, so the next
// lookup of the key reads it again, and a failed pack write leaves its
// entries queued for the next Flush().
//
// All methods are thread-safe: the interprocedural phase looks up and
// stores from its worker pool when InterprocConfig::num_threads > 1.
// A lookup holds the lock only to consult the queue and the index: it
// copies the blob or its location out, then reads and decodes it
// unlocked, so the pool's threads decode in parallel.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cfg/function.h"
#include "src/obs/metrics.h"
#include "src/symexec/defpairs.h"
#include "src/symexec/engine.h"
#include "src/util/hash.h"

namespace dtaint {

struct CacheConfig {
  /// Directory for the on-disk tier; empty = in-memory only. Created
  /// on the first Flush() with entries if missing.
  std::string disk_dir;
};

/// Counters: monotonic over the cache's lifetime. `hits` counts every
/// successful lookup (pending queue or disk); `disk_hits` the subset
/// read from a pack. A corrupt entry counts as both `corrupt_entries`
/// and `misses`. `io_failures` counts failed disk reads (each also a
/// miss) and failed pack writes.
struct CacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t stores = 0;
  size_t disk_hits = 0;
  size_t corrupt_entries = 0;
  size_t io_failures = 0;
};

class SummaryCache {
 public:
  /// Reads the index of every pack already in `config.disk_dir`.
  explicit SummaryCache(CacheConfig config = {});
  /// Flushes whatever is still queued.
  ~SummaryCache();

  SummaryCache(const SummaryCache&) = delete;
  SummaryCache& operator=(const SummaryCache&) = delete;

  /// Returns the cached summary for `key`, or nullopt. A copy that
  /// fails to decode (corruption, version skew) is discarded and the
  /// next older disk copy tried; when none decodes, the lookup misses.
  std::optional<FunctionSummary> Lookup(const Hash128& key);

  /// Encodes `summary` and queues it under `key` for the next Flush();
  /// it serves lookups from the queue until then.
  void Store(const Hash128& key, const FunctionSummary& summary);

  /// Writes every queued entry as one pack file, then drops them from
  /// the queue; a no-op without a disk tier. Summarize calls it once
  /// per pass, after its pool joins. A write failure is swallowed
  /// (counted in io_failures; the entries stay queued): the cache is an
  /// accelerator, never a correctness dependency.
  void Flush();

  CacheStats stats() const;

 private:
  /// Where one copy of a blob sits on disk.
  struct DiskLocation {
    uint32_t pack = 0;  // index into pack_paths_
    uint32_t length = 0;
    uint64_t offset = 0;
  };
  // Keys are fingerprints, so either word is already well mixed.
  struct KeyHash {
    size_t operator()(const Hash128& key) const { return key.lo; }
  };

  /// Serves `key` from its newest readable, decodable disk copy. Takes
  /// mu_ around each index access, never across a read or a decode.
  std::optional<FunctionSummary> LookupDisk(const Hash128& key);
  /// Re-lists the disk directory if its mtime moved since the last
  /// listing and indexes the packs not seen before. Returns whether
  /// any pack was added.
  bool RefreshDiskIndexLocked();
  /// Adds a pack's index records — (key, blob length) in file order —
  /// to the disk index as the newest copies.
  void AddPackLocked(const std::string& name,
                     std::span<const std::pair<Hash128, uint32_t>> index);

  CacheConfig config_;

  // One Flush() at a time, so no entry is written into two packs.
  // Taken before mu_.
  std::mutex flush_mu_;
  mutable std::mutex mu_;
  CacheStats stats_;

  // The blobs stored and not yet in an indexed pack, by key (so a
  // pack's entries come out sorted); the path of each indexed pack;
  // every pack seen so far by file name, with its id or none when its
  // index is damaged (so it is read and counted once); every indexed
  // copy of each key, oldest first; the directory's mtime at the last
  // listing, or after the last flush that was the only change since.
  std::map<Hash128, std::vector<uint8_t>> pending_;
  std::vector<std::string> pack_paths_;
  std::unordered_map<std::string, std::optional<uint32_t>> pack_ids_;
  std::unordered_map<Hash128, std::vector<DiskLocation>, KeyHash>
      disk_index_;
  std::optional<std::filesystem::file_time_type> dir_mtime_;

  // Registry mirrors of stats_ ("cache.*" in the global metrics
  // registry): every increment above lands in both, so InterprocStats
  // can be populated from the registry without asking the cache.
  // Handles resolved once here; stable for the registry's lifetime.
  obs::Counter& m_hits_;
  obs::Counter& m_misses_;
  obs::Counter& m_stores_;
  obs::Counter& m_disk_hits_;
  obs::Counter& m_corrupt_;
  obs::Counter& m_io_failures_;
};

/// Fingerprint of everything outside the function body that can change
/// what SymEngine::Analyze produces: codec version, engine revision
/// (kEngineRevision), target arch, engine budgets, the library models
/// (LibFunctionsDigest), and the binary's readable data bytes (the
/// engine concretizes loads from .rodata/.data, so those bytes are
/// part of the analysis input). The
/// alias setting is not in it: alias queries run on demand after
/// linking, so summaries are the same with alias on or off.
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

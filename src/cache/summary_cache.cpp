#include "src/cache/summary_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/cache/summary_codec.h"
#include "src/resilience/fault.h"

namespace dtaint {

namespace {

/// The whole file, in one read sized by the file's length.
std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(path, ec);
  std::vector<uint8_t> bytes(ec ? 0 : static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<size_t>(in.gcount()));
  // The path may name a different file by now (an atomic rename after
  // the open): whatever the open file holds beyond the size read.
  if (in) {
    bytes.insert(bytes.end(), std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  return bytes;
}

bool WriteFileAtomic(const std::string& path,
                     std::span<const uint8_t> bytes) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
  return !ec;
}

}  // namespace

Hash128 EngineFingerprint(const Binary& binary, const EngineConfig& config) {
  Fingerprint128 fp;
  fp.Mix(kSummaryCodecVersion);
  fp.Mix(static_cast<uint64_t>(binary.arch));
  fp.Mix(static_cast<uint64_t>(config.max_paths));
  fp.Mix(static_cast<uint64_t>(config.max_block_visits));
  fp.Mix(static_cast<uint64_t>(config.max_expr_depth));
  fp.Mix(config.record_types ? 1 : 0);
  // The engine concretizes constant-address loads out of mapped data
  // sections (string literals, dispatch tables), so those bytes are
  // analysis input. Text bytes are covered per-function by the lifted
  // IR instead, which is what lets identical functions share entries.
  for (const Section& section : binary.sections) {
    if (section.kind == SectionKind::kText) continue;
    fp.Mix(section.name);
    fp.Mix(section.addr);
    fp.Mix(section.size);
    fp.Mix(std::span<const uint8_t>(section.bytes));
  }
  // Import stub addresses decide which calls get library models.
  for (const Import& import : binary.imports) {
    fp.Mix(import.name);
    fp.Mix(import.stub_addr);
  }
  return fp.Digest();
}

Hash128 FunctionKey(const Function& fn, const Hash128& engine_fingerprint) {
  Fingerprint128 fp;
  fp.Mix(kFunctionKeySchema);
  fp.Mix(engine_fingerprint.hi);
  fp.Mix(engine_fingerprint.lo);
  fp.Mix(fn.name);
  fp.Mix(fn.addr);
  fp.Mix(fn.size);
  // The code digest plus the block bounds determine the lifted IR, so
  // the key needs no lifting.
  fp.Mix(fn.code_digest.hi);
  fp.Mix(fn.code_digest.lo);

  fp.Mix(fn.blocks.size());
  for (const auto& [addr, block] : fn.blocks) {
    fp.Mix(addr);
    fp.Mix(block.size);
    fp.Mix(static_cast<uint64_t>(block.jumpkind));
    fp.Mix(block.return_addr);
  }

  fp.Mix(fn.succs.size());
  for (const auto& [from, tos] : fn.succs) {
    fp.Mix(from);
    fp.Mix(tos.size());
    for (uint32_t to : tos) fp.Mix(to);
  }

  fp.Mix(fn.callsites.size());
  for (const CallSite& cs : fn.callsites) {
    fp.Mix(cs.block_addr);
    fp.Mix(cs.call_addr);
    fp.Mix(cs.return_addr);
    fp.Mix(cs.is_indirect ? 1 : 0);
    fp.Mix(cs.target_addr);
    fp.Mix(cs.target_name);
    fp.Mix(cs.target_is_import ? 1 : 0);
    // resolved_targets intentionally not mixed — see header.
  }
  return fp.Digest();
}

SummaryCache::SummaryCache(CacheConfig config)
    : config_(std::move(config)),
      m_hits_(obs::MetricsRegistry::Global().counter("cache.hits")),
      m_misses_(obs::MetricsRegistry::Global().counter("cache.misses")),
      m_evictions_(obs::MetricsRegistry::Global().counter("cache.evictions")),
      m_stores_(obs::MetricsRegistry::Global().counter("cache.stores")),
      m_disk_hits_(obs::MetricsRegistry::Global().counter("cache.disk_hits")),
      m_corrupt_(
          obs::MetricsRegistry::Global().counter("cache.corrupt_entries")),
      m_io_retries_(obs::MetricsRegistry::Global().counter("cache.io_retries")),
      m_io_failures_(
          obs::MetricsRegistry::Global().counter("cache.io_failures")),
      m_memory_bytes_(
          obs::MetricsRegistry::Global().gauge("cache.memory_bytes")) {}

std::string SummaryCache::PathFor(const Hash128& key) const {
  return config_.disk_dir + "/" + key.ToHex() + ".dtsc";
}

std::optional<FunctionSummary> SummaryCache::Lookup(const Hash128& key) {
  std::lock_guard<std::mutex> lock(mu_);

  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    auto decoded = DecodeSummary(it->second->blob);
    if (decoded.ok()) {
      ++stats_.hits;
      m_hits_.Add();
      return std::move(*decoded);
    }
    // Poisoned in-memory entry (should be impossible, but never trust
    // a cache): drop it and fall through to disk/miss.
    ++stats_.corrupt_entries;
    m_corrupt_.Add();
    stats_.memory_bytes -= it->second->blob.size();
    lru_.erase(it->second);
    index_.erase(it);
    m_memory_bytes_.Set(static_cast<double>(stats_.memory_bytes));
  }

  if (!config_.disk_dir.empty()) {
    // Transient read errors (NFS hiccup, throttled disk — modeled by
    // the cache_read fault site) are retried with backoff; if the read
    // never succeeds this entry is simply a miss.
    const std::string path = PathFor(key);
    std::vector<uint8_t> blob;
    int retries = 0;
    bool read_ok = RetryIo(
        config_.retry,
        [&] {
          if (FaultPlan::Global().ShouldFail(FaultSite::kCacheRead, path)) {
            return false;
          }
          blob = ReadFileBytes(path);
          return true;
        },
        &retries);
    if (retries > 0) {
      stats_.io_retries += static_cast<size_t>(retries);
      m_io_retries_.Add(static_cast<uint64_t>(retries));
    }
    if (!read_ok) {
      ++stats_.io_failures;
      m_io_failures_.Add();
      blob.clear();
    }
    if (!blob.empty()) {
      auto decoded = DecodeSummary(blob);
      if (decoded.ok()) {
        InsertMemoryLocked(key, std::move(blob));
        ++stats_.hits;
        m_hits_.Add();
        ++stats_.disk_hits;
        m_disk_hits_.Add();
        return std::move(*decoded);
      }
      // Bad entry on disk: count it, treat as miss; the recompute's
      // Store will overwrite the damaged file.
      ++stats_.corrupt_entries;
      m_corrupt_.Add();
    }
  }

  ++stats_.misses;
  m_misses_.Add();
  return std::nullopt;
}

void SummaryCache::Store(const Hash128& key, const FunctionSummary& summary) {
  std::vector<uint8_t> blob = EncodeSummary(summary);

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
  m_stores_.Add();
  if (!config_.disk_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.disk_dir, ec);
    if (!ec) {
      // Same transient-error policy as reads: retry with backoff, then
      // give up on the disk tier for this entry (the memory insert
      // below still happens — the cache never blocks a store).
      const std::string path = PathFor(key);
      int retries = 0;
      bool wrote = RetryIo(
          config_.retry,
          [&] {
            if (FaultPlan::Global().ShouldFail(FaultSite::kCacheWrite,
                                               path)) {
              return false;
            }
            return WriteFileAtomic(path, blob);
          },
          &retries);
      if (retries > 0) {
        stats_.io_retries += static_cast<size_t>(retries);
        m_io_retries_.Add(static_cast<uint64_t>(retries));
      }
      if (!wrote) {
        ++stats_.io_failures;
        m_io_failures_.Add();
      }
    }
  }
  InsertMemoryLocked(key, std::move(blob));
}

void SummaryCache::InsertMemoryLocked(const Hash128& key,
                                      std::vector<uint8_t> blob) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.memory_bytes -= it->second->blob.size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  stats_.memory_bytes += blob.size();
  lru_.push_front(Entry{key, std::move(blob)});
  index_[key] = lru_.begin();
  EvictLocked();
  stats_.memory_entries = index_.size();
  m_memory_bytes_.Set(static_cast<double>(stats_.memory_bytes));
}

void SummaryCache::EvictLocked() {
  while (!lru_.empty() && (index_.size() > config_.max_memory_entries ||
                           stats_.memory_bytes > config_.max_memory_bytes)) {
    if (index_.size() == 1) break;  // always keep the newest entry
    stats_.memory_bytes -= lru_.back().blob.size();
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    m_evictions_.Add();
  }
}

CacheStats SummaryCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dtaint

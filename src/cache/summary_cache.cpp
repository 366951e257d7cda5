#include "src/cache/summary_cache.h"

#include <fcntl.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <fstream>

#include "src/cache/summary_codec.h"
#include "src/resilience/fault.h"
#include "src/symexec/libmodels.h"

namespace dtaint {

namespace {

namespace fs = std::filesystem;

// Pack file layout (see the header); all integers little-endian.
constexpr uint32_t kPackMagic = 0x44545350;  // "DTSP"
constexpr uint32_t kPackVersion = 1;
constexpr size_t kPackHeaderBytes = 12;   // magic, version, count
constexpr size_t kPackRecordBytes = 20;   // key.hi, key.lo, length
constexpr size_t kPackChecksumBytes = 8;  // FNV-1a of header + index
constexpr std::string_view kPackExtension = ".dtsp";

/// (key, blob length) per entry, in file order.
using PackIndex = std::vector<std::pair<Hash128, uint32_t>>;

void PutLe(std::vector<uint8_t>& out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

uint64_t GetLe(const uint8_t* in, int bytes) {
  uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) {
    value |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

/// Offset of the first blob in a pack of `count` entries.
uint64_t PackDataStart(uint64_t count) {
  return kPackHeaderBytes + count * kPackRecordBytes + kPackChecksumBytes;
}

/// The pack file holding `blobs`, and its index records.
std::vector<uint8_t> BuildPack(
    const std::map<Hash128, std::vector<uint8_t>>& blobs, PackIndex& index) {
  uint64_t total = PackDataStart(blobs.size());
  for (const auto& [key, blob] : blobs) total += blob.size();
  std::vector<uint8_t> bytes;
  bytes.reserve(total);
  PutLe(bytes, kPackMagic, 4);
  PutLe(bytes, kPackVersion, 4);
  PutLe(bytes, blobs.size(), 4);
  index.reserve(blobs.size());
  for (const auto& [key, blob] : blobs) {
    PutLe(bytes, key.hi, 8);
    PutLe(bytes, key.lo, 8);
    PutLe(bytes, blob.size(), 4);
    index.emplace_back(key, static_cast<uint32_t>(blob.size()));
  }
  PutLe(bytes, Fnv1a(bytes), 8);
  for (const auto& [key, blob] : blobs) {
    bytes.insert(bytes.end(), blob.begin(), blob.end());
  }
  return bytes;
}

/// Reads `length` bytes at `offset` of `path` into `out`. False only on
/// an I/O error; a missing or short file leaves `out` empty, which no
/// decoder accepts.
bool ReadAt(const std::string& path, uint64_t offset, size_t length,
            std::vector<uint8_t>& out) {
  out.clear();
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT;
  std::vector<uint8_t> bytes(length);
  size_t done = 0;
  bool ok = true;
  while (done < length) {
    ssize_t n = ::pread(fd, bytes.data() + done, length - done,
                        static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) ok = false;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (ok && done == length) out = std::move(bytes);
  return ok;
}

/// The index of the pack at `path`, or nullopt when the pack is
/// damaged: bad magic or version, an index that fails its checksum, or
/// a file length other than the index implies.
std::optional<PackIndex> ReadPackIndex(const std::string& path) {
  std::error_code ec;
  const uint64_t file_size = fs::file_size(path, ec);
  std::vector<uint8_t> header;
  if (ec || !ReadAt(path, 0, kPackHeaderBytes, header) || header.empty()) {
    return std::nullopt;
  }
  const uint64_t count = GetLe(&header[8], 4);
  if (GetLe(&header[0], 4) != kPackMagic ||
      GetLe(&header[4], 4) != kPackVersion ||
      PackDataStart(count) > file_size) {
    return std::nullopt;
  }
  std::vector<uint8_t> head;
  if (!ReadAt(path, 0, PackDataStart(count), head) || head.empty()) {
    return std::nullopt;
  }
  const size_t checked = head.size() - kPackChecksumBytes;
  if (Fnv1a(std::span<const uint8_t>(head).first(checked)) !=
      GetLe(&head[checked], 8)) {
    return std::nullopt;
  }
  PackIndex index;
  index.reserve(count);
  uint64_t end = head.size();
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t* record = &head[kPackHeaderBytes + i * kPackRecordBytes];
    uint32_t length = static_cast<uint32_t>(GetLe(record + 16, 4));
    index.emplace_back(Hash128{GetLe(record, 8), GetLe(record + 8, 8)},
                       length);
    end += length;
  }
  if (end != file_size) return std::nullopt;
  return index;
}

bool WriteFileAtomic(const std::string& path,
                     std::span<const uint8_t> bytes) {
  // A temp name of its own per write: two processes (or threads)
  // flushing the same pack must not interleave in one temp file.
  static std::atomic<uint64_t> serial{0};
  std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                    std::to_string(serial.fetch_add(1)) + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  // close() flushes the buffer: a full disk or a file-size limit shows
  // up only here.
  out.close();
  std::error_code ec;
  if (out.good()) {
    fs::rename(tmp, path, ec);
    if (!ec) return true;
  }
  fs::remove(tmp, ec);
  return false;
}

/// The mtime of directory `dir`, or nullopt when it cannot be read.
std::optional<fs::file_time_type> DirMtime(const std::string& dir) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(dir, ec);
  if (ec) return std::nullopt;
  return mtime;
}

}  // namespace

Hash128 EngineFingerprint(const Binary& binary, const EngineConfig& config) {
  Fingerprint128 fp;
  fp.Mix(kSummaryCodecVersion);
  fp.Mix(kEngineRevision);
  fp.Mix(static_cast<uint64_t>(binary.arch));
  fp.Mix(static_cast<uint64_t>(config.max_paths));
  fp.Mix(static_cast<uint64_t>(config.max_block_visits));
  fp.Mix(static_cast<uint64_t>(config.max_expr_depth));
  // The library models decide what every import call does, so editing
  // a row must not serve summaries computed under the old one.
  fp.Mix(LibFunctionsDigest());
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
      m_stores_(obs::MetricsRegistry::Global().counter("cache.stores")),
      m_disk_hits_(obs::MetricsRegistry::Global().counter("cache.disk_hits")),
      m_corrupt_(
          obs::MetricsRegistry::Global().counter("cache.corrupt_entries")),
      m_io_failures_(
          obs::MetricsRegistry::Global().counter("cache.io_failures")) {
  if (config_.disk_dir.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  RefreshDiskIndexLocked();
}

SummaryCache::~SummaryCache() { Flush(); }

std::optional<FunctionSummary> SummaryCache::Lookup(const Hash128& key) {
  // The lock guards the tables only: blobs are copied out, then read
  // and decoded without it, so summary threads decode in parallel.
  std::optional<std::vector<uint8_t>> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(key);
    if (it != pending_.end()) queued = it->second;
  }
  if (queued) {
    auto decoded = DecodeSummary(*queued);
    std::lock_guard<std::mutex> lock(mu_);
    if (decoded.ok()) {
      ++stats_.hits;
      m_hits_.Add();
      return std::move(*decoded);
    }
    // Poisoned queued entry (should be impossible, but never trust a
    // cache): drop it, unless a Store replaced it meanwhile, and fall
    // through to disk/miss.
    ++stats_.corrupt_entries;
    m_corrupt_.Add();
    auto it = pending_.find(key);
    if (it != pending_.end() && it->second == *queued) pending_.erase(it);
  }

  if (!config_.disk_dir.empty()) {
    if (auto summary = LookupDisk(key)) return summary;
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  m_misses_.Add();
  return std::nullopt;
}

std::optional<FunctionSummary> SummaryCache::LookupDisk(const Hash128& key) {
  for (;;) {
    DiskLocation at;
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = disk_index_.find(key);
      if (it == disk_index_.end() && RefreshDiskIndexLocked()) {
        it = disk_index_.find(key);
      }
      if (it == disk_index_.end()) return std::nullopt;
      at = it->second.back();
      path = pack_paths_[at.pack];
    }
    // A read error (modeled by the cache_read fault site) makes this
    // lookup a miss; the copy stays indexed for the next one.
    std::vector<uint8_t> blob;
    if (FaultPlan::Global().ShouldFail(FaultSite::kCacheRead, path) ||
        !ReadAt(path, at.offset, at.length, blob)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.io_failures;
      m_io_failures_.Add();
      return std::nullopt;
    }
    auto decoded = DecodeSummary(blob);
    std::lock_guard<std::mutex> lock(mu_);
    if (decoded.ok()) {
      ++stats_.hits;
      m_hits_.Add();
      ++stats_.disk_hits;
      m_disk_hits_.Add();
      return std::move(*decoded);
    }
    // A bad copy: count it, forget it and try the next older one. The
    // recompute's Store lands in a newer pack.
    ++stats_.corrupt_entries;
    m_corrupt_.Add();
    auto it = disk_index_.find(key);
    if (it == disk_index_.end()) return std::nullopt;
    std::erase_if(it->second, [&](const DiskLocation& copy) {
      return copy.pack == at.pack && copy.offset == at.offset;
    });
    if (it->second.empty()) {
      disk_index_.erase(it);
      return std::nullopt;
    }
  }
}

bool SummaryCache::RefreshDiskIndexLocked() {
  // One stat per call; the listing and the index reads happen only
  // when another writer added, renamed or removed a pack since the
  // last listing.
  const std::optional<fs::file_time_type> mtime = DirMtime(config_.disk_dir);
  if (!mtime || mtime == dir_mtime_) return false;
  dir_mtime_ = mtime;
  // Oldest first, so the newest copy of a key ends up last in its list.
  std::vector<std::pair<fs::file_time_type, std::string>> fresh;
  std::error_code ec;
  for (fs::directory_iterator entry(config_.disk_dir, ec), end;
       !ec && entry != end; entry.increment(ec)) {
    if (!entry->path().native().ends_with(kPackExtension)) continue;
    std::string name = entry->path().filename().string();
    if (pack_ids_.contains(name)) continue;
    std::error_code time_ec;
    fresh.emplace_back(entry->last_write_time(time_ec), std::move(name));
  }
  std::sort(fresh.begin(), fresh.end());
  for (const auto& [written, name] : fresh) {
    if (auto index = ReadPackIndex(config_.disk_dir + "/" + name)) {
      AddPackLocked(name, *index);
      continue;
    }
    pack_ids_.emplace(name, std::nullopt);
    ++stats_.corrupt_entries;
    m_corrupt_.Add();
  }
  return !fresh.empty();
}

void SummaryCache::AddPackLocked(
    const std::string& name,
    std::span<const std::pair<Hash128, uint32_t>> index) {
  std::optional<uint32_t>& id = pack_ids_[name];
  if (!id) {
    id = static_cast<uint32_t>(pack_paths_.size());
    pack_paths_.push_back(config_.disk_dir + "/" + name);
  }
  uint64_t offset = PackDataStart(index.size());
  for (const auto& [key, length] : index) {
    std::vector<DiskLocation>& copies = disk_index_[key];
    // A pack flushed again under a known name (its entries recomputed
    // after corruption, so the same bytes) may still be listed here.
    if (std::none_of(copies.begin(), copies.end(),
                     [&](const DiskLocation& c) { return c.pack == *id; })) {
      copies.push_back(DiskLocation{*id, length, offset});
    }
    offset += length;
  }
}

void SummaryCache::Store(const Hash128& key, const FunctionSummary& summary) {
  std::vector<uint8_t> blob = EncodeSummary(summary);

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
  m_stores_.Add();
  pending_.insert_or_assign(key, std::move(blob));
}

void SummaryCache::Flush() {
  if (config_.disk_dir.empty()) return;
  std::lock_guard<std::mutex> flushing(flush_mu_);
  PackIndex index;
  std::vector<uint8_t> bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return;
    bytes = BuildPack(pending_, index);
  }
  // Written outside the lock; the queue serves these entries meanwhile.
  const std::string name =
      Fingerprint128().Mix(std::span<const uint8_t>(bytes)).Digest().ToHex() +
      std::string(kPackExtension);
  const std::string path = config_.disk_dir + "/" + name;
  // A failed write (modeled by the cache_write fault site) leaves the
  // entries queued for the next Flush().
  std::error_code ec;
  fs::create_directories(config_.disk_dir, ec);
  const auto before = DirMtime(config_.disk_dir);
  const bool wrote =
      !ec && !FaultPlan::Global().ShouldFail(FaultSite::kCacheWrite, path) &&
      WriteFileAtomic(path, bytes);
  const auto after = DirMtime(config_.disk_dir);
  std::lock_guard<std::mutex> lock(mu_);
  // Our write moved the directory's mtime. If nothing else had since
  // the last listing, that is no news: the pack is indexed right here.
  if (before && before == dir_mtime_) dir_mtime_ = after;
  if (!wrote) {
    ++stats_.io_failures;
    m_io_failures_.Add();
    return;
  }
  AddPackLocked(name, index);
  // A key names its content, so a Store of a written key meanwhile
  // queued the bytes the pack holds.
  for (const auto& [key, length] : index) pending_.erase(key);
}

CacheStats SummaryCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dtaint

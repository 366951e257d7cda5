// Metrics registry — named counters, gauges, and log-scale histograms
// that every pipeline phase reports into (naming scheme:
// `phase.metric`, e.g. "cache.hits", "pathfind.paths_explored").
//
// Design constraints, in order:
//  * thread-safe: phase 1 of the interprocedural pass updates from a
//    worker pool; instruments are single relaxed atomics;
//  * cheap when disabled: every mutation starts with one relaxed load
//    of the registry's enabled flag and allocates nothing;
//  * stable handles: counter()/gauge()/histogram() return references
//    that live as long as the registry, so hot paths look a name up
//    once and keep the handle.
//
// The process-global registry (MetricsRegistry::Global()) is what the
// pipeline uses; tests construct private registries.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dtaint::obs {

class MetricsRegistry;

/// Monotonic counter.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<uint64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// Last-writer-wins instantaneous value (e.g. cache memory footprint).
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Quantile summary of a histogram at one point in time.
struct HistogramStats {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;

  /// Raw power-of-two bucket counts (Histogram::kBuckets entries when
  /// captured from a registry, empty when hand-built). Not serialized;
  /// carried so MetricsSnapshot::DeltaSince can subtract histograms
  /// bucket-wise instead of leaking cumulative quantiles across runs.
  std::vector<uint64_t> buckets;

  bool operator==(const HistogramStats&) const = default;
};

/// Recomputes count + quantiles from raw bucket counts. Quantiles are
/// bucket upper bounds clamped to `max_clamp` (the exact observed max
/// for a live histogram; for a delta, where the true per-interval max
/// is unknowable, the smaller of the cumulative max and the top of the
/// delta's highest non-empty bucket — still a sound upper bound).
HistogramStats HistogramStatsFromBuckets(std::vector<uint64_t> buckets,
                                         uint64_t sum, uint64_t max_clamp);

/// Log-scale (power-of-two bucket) histogram of non-negative integer
/// samples: bucket i holds values with bit_width == i, i.e. bucket 0 is
/// {0}, bucket i>=1 covers [2^(i-1), 2^i). Quantiles report the upper
/// bound of the bucket containing the rank, clamped to the exact
/// observed maximum — deterministic for a given multiset of samples.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width of a uint64 is 0..64

  void Observe(uint64_t v);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  /// q in [0, 1]; returns 0 when empty.
  uint64_t ValueAtQuantile(double q) const;

  HistogramStats Stats() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  const std::atomic<bool>* enabled_;
};

/// Point-in-time copy of every instrument, name-sorted (so any
/// serialization of it is deterministic given deterministic values).
struct MetricsSnapshot {
  std::map<std::string, uint64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, HistogramStats, std::less<>> histograms;

  /// Counter value by name; 0 when absent.
  uint64_t CounterValue(std::string_view name) const;

  /// Per-run view: counters become deltas against `before`; histograms
  /// are subtracted bucket-wise (count/sum/quantiles recomputed over
  /// the interval's samples only; max as HistogramStatsFromBuckets
  /// describes, 0 without samples) when both snapshots carry raw
  /// buckets, so successive runs against one registry don't
  /// contaminate each other's quantiles; gauges keep this snapshot's
  /// (current) values.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& before) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Serializes a snapshot as
/// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,max,
/// p50,p90,p95,p99}}} — the payload of --metrics-out, of the report's
/// "metrics" object, and of each bench run's "metrics" block. Raw
/// buckets are intentionally not serialized.
std::string MetricsSnapshotToJson(const MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The registry the pipeline reports into.
  static MetricsRegistry& Global();

  /// Collection on/off (default on). Disabling makes every instrument
  /// mutation a no-op branch; existing values stay readable.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Get-or-create. References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return MetricsSnapshotToJson(Snapshot()); }

  /// Acquires the registry's map lock for the duration of a fork(2),
  /// so a forked scan worker never inherits it mid-counter-creation
  /// from another thread (instrument *mutation* is lock-free and safe
  /// regardless). See EventStream::LockForFork.
  std::unique_lock<std::mutex> LockForFork() {
    return std::unique_lock<std::mutex>(mu_);
  }

  /// Zeroes every registered instrument (handles stay valid). The
  /// scoped-reset alternative to snapshot/delta isolation: bench reps
  /// that want pristine counters call this between reps instead of
  /// carrying `before` snapshots around. Not safe while workers are
  /// concurrently mutating instruments — call between runs, not during.
  void Reset();

 private:
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace dtaint::obs

#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>

#include "src/util/strings.h"

namespace dtaint::obs {

void Histogram::Observe(uint64_t v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

namespace {

/// Largest value bucket `i` holds (bucket 0 is {0}, bucket i>=1 is
/// [2^(i-1), 2^i)).
uint64_t BucketUpperBound(size_t i) {
  return i == 0 ? 0 : (i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1);
}

/// Upper bound of the bucket holding the q-quantile sample (1-based
/// rank, at least 1), clamped to `max_clamp`; 0 when empty.
template <typename Buckets>
uint64_t QuantileOf(const Buckets& buckets, uint64_t count, double q,
                    uint64_t max_clamp) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(count)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < std::size(buckets); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return std::min(BucketUpperBound(i), max_clamp);
  }
  return max_clamp;
}

/// Get-or-create in one instrument map; `make` builds a new instrument
/// (the registry's lambdas may call the private constructors).
template <typename Map, typename Make>
auto& FindOrCreate(Map& map, std::string_view name, Make make) {
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), make()).first;
  return *it->second;
}

}  // namespace

uint64_t Histogram::ValueAtQuantile(double q) const {
  return QuantileOf(buckets_, Count(), q, Max());
}

HistogramStats Histogram::Stats() const {
  std::vector<uint64_t> buckets(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return HistogramStatsFromBuckets(std::move(buckets), Sum(), Max());
}

HistogramStats HistogramStatsFromBuckets(std::vector<uint64_t> buckets,
                                         uint64_t sum, uint64_t max_clamp) {
  HistogramStats stats;
  stats.sum = sum;
  stats.max = max_clamp;
  for (uint64_t b : buckets) stats.count += b;
  stats.p50 = QuantileOf(buckets, stats.count, 0.5, max_clamp);
  stats.p90 = QuantileOf(buckets, stats.count, 0.9, max_clamp);
  stats.p95 = QuantileOf(buckets, stats.count, 0.95, max_clamp);
  stats.p99 = QuantileOf(buckets, stats.count, 0.99, max_clamp);
  stats.buckets = std::move(buckets);
  return stats;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& before) const {
  MetricsSnapshot delta = *this;
  for (auto& [name, value] : delta.counters) {
    uint64_t prior = before.CounterValue(name);
    value = value >= prior ? value - prior : 0;
  }
  for (auto& [name, stats] : delta.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    const HistogramStats& prior = it->second;
    // Bucket-wise subtraction needs raw buckets on both sides;
    // hand-built snapshots without them keep cumulative values.
    if (stats.buckets.empty() || prior.buckets.empty() ||
        stats.buckets.size() != prior.buckets.size()) {
      continue;
    }
    std::vector<uint64_t> diff = stats.buckets;
    // The interval's own max is unknown; the smaller of the cumulative
    // max and the top of its highest non-empty bucket still bounds it.
    // An interval without samples has max 0.
    uint64_t max = 0;
    for (size_t i = 0; i < diff.size(); ++i) {
      uint64_t b = prior.buckets[i];
      diff[i] = diff[i] >= b ? diff[i] - b : 0;
      if (diff[i] > 0) max = std::min(stats.max, BucketUpperBound(i));
    }
    uint64_t sum = stats.sum >= prior.sum ? stats.sum - prior.sum : 0;
    stats = HistogramStatsFromBuckets(std::move(diff), sum, max);
  }
  return delta;
}

std::string MetricsSnapshotToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + FmtDouble(value, 6);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"max\":" + std::to_string(h.max) +
           ",\"p50\":" + std::to_string(h.p50) +
           ",\"p90\":" + std::to_string(h.p90) +
           ",\"p95\":" + std::to_string(h.p95) +
           ",\"p99\":" + std::to_string(h.p99) + '}';
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(counters_, name, [this] {
    return std::unique_ptr<Counter>(new Counter(&enabled_));
  });
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(gauges_, name, [this] {
    return std::unique_ptr<Gauge>(new Gauge(&enabled_));
  });
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(histograms_, name, [this] {
    return std::unique_ptr<Histogram>(new Histogram(&enabled_));
  });
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, c] : counters_) snapshot.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snapshot.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    snapshot.histograms[name] = h->Stats();
  }
  return snapshot;
}

}  // namespace dtaint::obs

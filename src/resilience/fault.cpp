#include "src/resilience/fault.h"

#include <cstdlib>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace dtaint {

namespace {

bool ParseNonNegativeInt(std::string_view text, int* out) {
  if (text.empty() || text.size() > 9) return false;
  int value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

struct SiteName {
  FaultSite site;
  std::string_view name;
};

constexpr SiteName kSiteNames[] = {
    {FaultSite::kLift, "lift"},
    {FaultSite::kSummary, "summary"},
    {FaultSite::kPathfinder, "pathfind"},
    {FaultSite::kCacheRead, "cache_read"},
    {FaultSite::kCacheWrite, "cache_write"},
    {FaultSite::kExtract, "extract"},
    {FaultSite::kLoad, "load"},
    {FaultSite::kCrash, "crash"},
    {FaultSite::kWorkerKill, "worker_kill"},
    {FaultSite::kWorkerHang, "worker_hang"},
    {FaultSite::kStreamTorn, "stream_torn"},
};

}  // namespace

std::string_view FaultSiteName(FaultSite site) {
  for (const SiteName& entry : kSiteNames) {
    if (entry.site == site) return entry.name;
  }
  return "unknown";
}

bool ParseFaultSite(std::string_view name, FaultSite* out) {
  for (const SiteName& entry : kSiteNames) {
    if (entry.name == name) {
      *out = entry.site;
      return true;
    }
  }
  return false;
}

FaultPlan& FaultPlan::Global() {
  static FaultPlan* plan = [] {
    auto* p = new FaultPlan();
    if (const char* spec = std::getenv("DTAINT_FAULTS")) {
      Status status = p->InstallSpec(spec);
      if (!status.ok()) {
        DTAINT_LOG(obs::LogLevel::kError, "fault",
                   "ignoring bad DTAINT_FAULTS: %s",
                   status.ToString().c_str());
      }
    }
    return p;
  }();
  return *plan;
}

Status FaultPlan::InstallSpec(std::string_view spec) {
  std::vector<FaultRule> rules;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find_first_of(";,", start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) {
      if (end == spec.size()) break;
      continue;
    }

    FaultRule rule;
    // Peel "+skip" then ":count" then "@match" off the right. A '+'
    // inside the match text is left alone (only one past the '@'
    // separator can be the skip suffix... which must follow the match).
    size_t at_pos = item.find('@');
    if (size_t plus = item.rfind('+');
        plus != std::string_view::npos &&
        (at_pos == std::string_view::npos || plus > at_pos)) {
      std::string_view skip = item.substr(plus + 1);
      int value = 0;
      if (!ParseNonNegativeInt(skip, &value)) {
        return InvalidArgument("bad fault skip: " + std::string(item));
      }
      rule.skip = value;
      item = item.substr(0, plus);
    }
    if (size_t colon = item.rfind(':'); colon != std::string_view::npos) {
      std::string_view count = item.substr(colon + 1);
      if (count == "*") {
        rule.count = -1;
      } else {
        int value = 0;
        if (!ParseNonNegativeInt(count, &value) || value <= 0) {
          return InvalidArgument("bad fault count: " + std::string(item));
        }
        rule.count = value;
      }
      item = item.substr(0, colon);
    }
    if (size_t at = item.find('@'); at != std::string_view::npos) {
      rule.match = std::string(item.substr(at + 1));
      item = item.substr(0, at);
    }
    if (!ParseFaultSite(item, &rule.site)) {
      return InvalidArgument("unknown fault site: " + std::string(item));
    }
    rules.push_back(std::move(rule));
    if (end == spec.size()) break;
  }
  Install(std::move(rules));
  return Status::Ok();
}

void FaultPlan::Install(std::vector<FaultRule> rules) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  rules_.reserve(rules.size());
  for (FaultRule& rule : rules) rules_.push_back({std::move(rule), 0, 0});
  enabled_.store(!rules_.empty(), std::memory_order_release);
}

void FaultPlan::Clear() { Install({}); }

FaultPlan::Counters FaultPlan::SnapshotCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  Counters counters;
  counters.reserve(rules_.size());
  for (const ActiveRule& active : rules_) {
    counters.emplace_back(active.seen, active.fired);
  }
  return counters;
}

void FaultPlan::RestoreCounters(const Counters& counters) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters.size() != rules_.size()) return;
  for (size_t i = 0; i < rules_.size(); ++i) {
    rules_[i].seen = counters[i].first;
    rules_[i].fired = counters[i].second;
  }
}

bool FaultPlan::ShouldFail(FaultSite site, std::string_view detail) {
  if (!enabled_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (ActiveRule& active : rules_) {
    const FaultRule& rule = active.rule;
    if (rule.site != site) continue;
    if (!rule.match.empty() &&
        detail.find(rule.match) == std::string_view::npos) {
      continue;
    }
    int occurrence = active.seen++;
    if (occurrence < rule.skip) continue;
    if (rule.count >= 0 && active.fired >= rule.count) continue;
    ++active.fired;
    injected_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Global().counter("resilience.faults_injected").Add();
    DTAINT_LOG(obs::LogLevel::kWarn, "fault",
               "injected fault at %.*s (%.*s), occurrence %d",
               static_cast<int>(FaultSiteName(site).size()),
               FaultSiteName(site).data(), static_cast<int>(detail.size()),
               detail.data(), occurrence + 1);
    return true;
  }
  return false;
}

}  // namespace dtaint

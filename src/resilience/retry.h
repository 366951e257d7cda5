// Bounded retry-with-backoff for transient I/O.
//
// The disk tier of the summary cache lives on whatever storage a
// firmware fleet scanner gets — NFS, overlay filesystems, throttled
// cloud disks — where reads and writes fail transiently. Each cache
// I/O is retried a few times with doubling backoff; if the operation
// still fails the caller falls back to cache-off for that entry (the
// cache is an accelerator, never a correctness dependency).
//
// The schedule is fixed (fault-injection tests replay it exactly) and
// capped: backoff doubles, so a long retry budget against a dead disk
// can sleep for seconds per operation; max_total_backoff_us bounds the
// *sum* of sleeps so a fleet run degrades to cache-off quickly instead
// of crawling.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace dtaint {

struct RetryPolicy {
  int attempts = 3;              // total tries, including the first
  int initial_backoff_us = 200;  // sleep before try 2; doubles
  /// Cap on the *sum* of all sleeps for one operation; once spent,
  /// remaining attempts run back-to-back. 0 = uncapped.
  int max_total_backoff_us = 1'000'000;
};

/// The full planned sleep schedule (attempts-1 entries): retry r (1
/// before the second attempt) sleeps initial_backoff_us << (r-1), each
/// clamped to whatever total-wall-clock cap budget is left. Pure —
/// tests assert on it without sleeping, and RetryIo executes exactly
/// this plan.
inline std::vector<int> RetryScheduleUs(const RetryPolicy& policy) {
  std::vector<int> plan;
  if (policy.attempts <= 1) return plan;
  plan.reserve(static_cast<size_t>(policy.attempts - 1));
  const int64_t initial = std::max(policy.initial_backoff_us, 0);
  int64_t spent = 0;
  for (int retry = 1; retry < policy.attempts; ++retry) {
    // Clamp the shift so a large attempts count can't overflow.
    int64_t sleep_us =
        std::min<int64_t>(initial << std::min(retry - 1, 20), 1 << 30);
    if (policy.max_total_backoff_us > 0) {
      int64_t remaining = policy.max_total_backoff_us - spent;
      if (remaining < 0) remaining = 0;
      sleep_us = std::min(sleep_us, remaining);
    }
    spent += sleep_us;
    plan.push_back(static_cast<int>(sleep_us));
  }
  return plan;
}

/// Runs `op` (a callable returning bool, true = success) up to
/// `policy.attempts` times, sleeping per RetryScheduleUs between
/// tries. Returns whether it eventually succeeded; `*retries`, when
/// non-null, receives the number of re-tries taken (0 = first try
/// succeeded or never succeeded... see return value for which).
template <typename Op>
bool RetryIo(const RetryPolicy& policy, Op&& op, int* retries = nullptr) {
  std::vector<int> plan = RetryScheduleUs(policy);
  for (int attempt = 0; attempt < policy.attempts; ++attempt) {
    if (attempt > 0) {
      int sleep_us = plan[static_cast<size_t>(attempt - 1)];
      if (sleep_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      }
      if (retries) ++*retries;
    }
    if (op()) return true;
  }
  return false;
}

}  // namespace dtaint

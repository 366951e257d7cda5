#include "src/obs/events.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace dtaint::obs {

// ---- Event ----------------------------------------------------------------

Event& Event::Str(std::string_view key, std::string_view value) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":\"";
  fields_ += JsonEscape(value);
  fields_ += '"';
  return *this;
}

Event& Event::Num(std::string_view key, uint64_t value) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":";
  fields_ += std::to_string(value);
  return *this;
}

Event& Event::Double(std::string_view key, double value, int decimals) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":";
  fields_ += FmtDouble(value, decimals);
  return *this;
}

Event& Event::Bool(std::string_view key, bool value) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += value ? "\":true" : "\":false";
  return *this;
}

Event& Event::Raw(std::string_view key, std::string_view json) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":";
  fields_ += json;
  return *this;
}

// ---- EventStream ----------------------------------------------------------

EventStream& EventStream::Global() {
  static EventStream* stream = new EventStream();
  return *stream;
}

EventStream::~EventStream() {
  if (fd_ >= 0) ::close(fd_);
}

bool EventStream::Open(const std::string& path, std::string_view tool,
                       bool append) {
  std::unique_lock<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // O_APPEND: each write(2) lands atomically at the end of the file,
  // so concurrent emitters never interleave mid-line and every
  // completed emit survives a crash as a whole line.
  fd_ = ::open(path.c_str(),
               O_RDWR | O_CREAT | O_APPEND | (append ? 0 : O_TRUNC), 0644);
  if (fd_ < 0) return false;
  // A killed run can leave a torn last line; without a newline after
  // it, this stream's stream_begin would glue onto it and both lines
  // would be lost.
  char last = '\n';
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size > 0 && ::pread(fd_, &last, 1, size - 1) == 1 && last != '\n') {
    ssize_t ignored = ::write(fd_, "\n", 1);
    (void)ignored;
  }
  t0_ = std::chrono::steady_clock::now();
  count_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
  lock.unlock();

  Event begin("stream_begin");
  begin.Str("tool", tool)
      .Num("pid", static_cast<uint64_t>(::getpid()))
      .Num("unix_ms",
           static_cast<uint64_t>(std::time(nullptr)) * uint64_t{1000});
  Emit(begin);
  return true;
}

void EventStream::Close(std::string_view outcome) {
  if (!enabled()) return;
  Event end("stream_end");
  end.Str("outcome", outcome)
      .Num("events", EventCount() + 1);  // count includes this line
  Emit(end);
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(false, std::memory_order_release);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

double EventStream::NowRelMillis() const {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

void EventStream::Emit(const Event& event) { Write(event, /*torn=*/false); }

void EventStream::EmitTorn(const Event& event) { Write(event, /*torn=*/true); }

void EventStream::Write(const Event& event, bool torn) {
  if (!enabled()) return;
  std::string line = "{\"v\":" + std::to_string(kEventSchemaVersion) +
                     ",\"type\":\"" + JsonEscape(event.type()) +
                     "\",\"ts_ms\":" + FmtDouble(NowRelMillis(), 3) +
                     ",\"tid\":" + std::to_string(ThreadId());
  line += event.fields();
  line += "}\n";
  if (torn) line.resize(line.size() / 2);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0) return;
    // Single write(2) per line: atomic append, no userspace buffering
    // to lose in a crash.
    ssize_t ignored = ::write(fd_, line.data(), line.size());
    (void)ignored;
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global().counter("events.emitted").Add();
}

void EventStream::EmitHeartbeat(uint64_t images_done, uint64_t images_total,
                                uint64_t functions_done,
                                double functions_per_sec) {
  if (!enabled()) return;
  Event beat("heartbeat");
  beat.Num("images_done", images_done)
      .Num("images_total", images_total)
      .Num("functions_done", functions_done)
      .Double("functions_per_sec", functions_per_sec, 1)
      .Double("rss_mb", static_cast<double>(CurrentRssBytes()) / (1 << 20), 1)
      .Num("events", EventCount());
  Emit(beat);
}

void EventStream::BeatNow() {
  std::lock_guard<std::mutex> lock(beat_mu_);
  if (heartbeat_) heartbeat_->Beat();
}

// ---- helpers --------------------------------------------------------------

void EmitIncident(EventStream& stream, const Incident& incident) {
  if (!stream.enabled()) return;
  Event event("incident");
  event.Str("binary", incident.binary)
      .Str("phase", incident.phase)
      .Str("detail", incident.detail)
      .Str("code", StatusCodeName(incident.status.code()))
      .Str("message", incident.status.message());
  if (incident.budget.exhausted_by != BudgetExhaustion::kNone) {
    event.Str("cause", BudgetExhaustionName(incident.budget.exhausted_by))
        .Num("steps", incident.budget.steps)
        .Num("states", incident.budget.states)
        .Double("elapsed_ms", incident.budget.elapsed_ms, 3);
  }
  stream.Emit(event);
}

uint64_t CurrentRssBytes() {
#ifdef __linux__
  // statm field 2 is resident pages.
  FILE* statm = std::fopen("/proc/self/statm", "r");
  if (!statm) return 0;
  unsigned long size = 0, resident = 0;
  int matched = std::fscanf(statm, "%lu %lu", &size, &resident);
  std::fclose(statm);
  if (matched != 2) return 0;
  long page = ::sysconf(_SC_PAGESIZE);
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

// ---- Heartbeat ------------------------------------------------------------

Heartbeat::Heartbeat(EventStream& stream, uint32_t period_ms,
                     uint64_t images_total)
    : stream_(stream), images_total_(images_total) {
  if (!stream.enabled() || period_ms == 0) return;
  last_beat_ = std::chrono::steady_clock::now();
  last_functions_ =
      MetricsRegistry::Global().counter("summary.functions").Value();
  running_ = true;
  {
    // First deterministic beat: the gauges before any progress.
    std::lock_guard<std::mutex> beat_lock(stream_.beat_mu_);
    Beat();
    stream_.heartbeat_ = this;
  }
  thread_ = std::thread([this, period_ms] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                       [this] { return stop_; })) {
        return;
      }
      lock.unlock();
      stream_.BeatNow();
      lock.lock();
    }
  });
}

void Heartbeat::Beat() {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  uint64_t images = metrics.counter("supervisor.images_done").Value();
  uint64_t functions = metrics.counter("summary.functions").Value();
  auto now = std::chrono::steady_clock::now();
  double dt =
      std::chrono::duration_cast<std::chrono::duration<double>>(now -
                                                                last_beat_)
          .count();
  double rate =
      dt > 0 ? static_cast<double>(functions - last_functions_) / dt : 0.0;
  stream_.EmitHeartbeat(images, images_total_, functions, rate);
  last_functions_ = functions;
  last_beat_ = now;
}

void Heartbeat::Stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_ = false;
  // Final deterministic beat: every heartbeat-enabled run ends with at
  // least one gauge reading, even if it finished inside one period.
  std::lock_guard<std::mutex> beat_lock(stream_.beat_mu_);
  Beat();
  stream_.heartbeat_ = nullptr;
}

}  // namespace dtaint::obs

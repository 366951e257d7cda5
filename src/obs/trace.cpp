#include "src/obs/trace.h"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>

#include "src/obs/log.h"
#include "src/util/strings.h"

namespace dtaint::obs {

namespace {

/// One Chrome complete-event record, no separators: the two output
/// modes share this so buffered and streamed traces are byte-identical
/// per record.
void AppendEventJson(std::string& out, std::string_view category,
                     std::string_view name, uint64_t start_ns,
                     uint64_t dur_ns, uint32_t tid) {
  out += "{\"name\":\"" + JsonEscape(name) + "\",\"cat\":\"" +
         JsonEscape(category) + "\",\"ph\":\"X\",\"ts\":" +
         FmtDouble(static_cast<double>(start_ns) / 1000.0, 3) + ",\"dur\":" +
         FmtDouble(static_cast<double>(dur_ns) / 1000.0, 3) +
         ",\"pid\":1,\"tid\":" + std::to_string(tid) + '}';
}

bool WriteAll(int fd, std::string_view text) {
  size_t off = 0;
  while (off < text.size()) {
    ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  t0_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_relaxed); }

bool Tracer::StreamTo(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_fd_ >= 0) {
    ::close(stream_fd_);
    stream_fd_ = -1;
  }
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) return false;
  // The opener goes out immediately so even a zero-event crash leaves
  // a file that `]` completes to the empty array.
  if (!WriteAll(fd, "[\n")) {
    ::close(fd);
    return false;
  }
  stream_fd_ = fd;
  stream_first_ = true;
  stream_count_ = 0;
  events_.clear();
  t0_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
  return true;
}

bool Tracer::FinishStream() {
  enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_fd_ < 0) return false;
  bool ok = WriteAll(stream_fd_, "]\n");
  ok = (::close(stream_fd_) == 0) && ok;
  stream_fd_ = -1;
  return ok;
}

uint64_t Tracer::NowRelNanos() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
}

void Tracer::RecordComplete(std::string_view category, std::string_view name,
                            uint64_t rel_start_ns, uint64_t dur_ns) {
  if (!enabled()) return;
  uint32_t tid = ThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_fd_ >= 0) {
    // Comma PREFIXED, whole record in one write(2): the file never
    // holds a dangling separator, so `]` always completes it.
    std::string line = stream_first_ ? "" : ",";
    stream_first_ = false;
    AppendEventJson(line, category, name, rel_start_ns, dur_ns, tid);
    line += '\n';
    if (WriteAll(stream_fd_, line)) ++stream_count_;
    return;
  }
  events_.push_back(Event{std::string(category), std::string(name),
                          rel_start_ns, dur_ns, tid});
}

size_t Tracer::EventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stream_fd_ >= 0 || stream_count_ ? stream_count_ : events_.size();
}

std::string Tracer::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i) out += ',';
    AppendEventJson(out, e.category, e.name, e.start_ns, e.dur_ns, e.tid);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::string json = ToChromeJson();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  return out.good();
}

}  // namespace dtaint::obs

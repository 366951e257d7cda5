#include "src/obs/scan_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/obs/events.h"
#include "src/util/json.h"
#include "src/util/json_writer.h"

namespace dtaint::obs {

namespace {

/// The rollup keyed `name` in `rows` (by its `key` member), appended on
/// first sight so rows keep first-seen order.
template <typename Rollup>
Rollup& RowFor(std::vector<Rollup>& rows, std::string Rollup::*key,
               std::string_view name) {
  for (Rollup& row : rows) {
    if (row.*key == name) return row;
  }
  rows.emplace_back().*key = std::string(name);
  return rows.back();
}

ImageRollup& ImageFor(ScanAggregate* agg, std::string_view name) {
  return RowFor(agg->images, &ImageRollup::image, name);
}

void FoldEvent(const JsonValue& event, std::string_view type,
               ScanAggregate* agg) {
  if (type == "image_begin") {
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.vendor = FieldStr(event, "vendor");
    im.product = FieldStr(event, "product");
    im.arch = FieldStr(event, "arch");
    im.packing = FieldStr(event, "packing");
    ++im.begin_events;
    im.attempts = std::max(im.attempts, im.begin_events);
  } else if (type == "image_retry") {
    // Supervisor re-dispatch: raise the attempt count to next_attempt
    // (covers attempts whose worker died before image_begin flushed).
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.attempts = std::max(im.attempts, FieldCount(event, "next_attempt"));
    ++agg->image_retries;
  } else if (type == "worker_exit") {
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.attempts = std::max(im.attempts, FieldCount(event, "attempt"));
    ++agg->worker_exits;
  } else if (type == "image_quarantined") {
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.status = "quarantined";
    im.attempts = std::max(im.attempts, FieldCount(event, "attempts"));
    ++agg->quarantined_images;
  } else if (type == "image_resumed") {
    // A resumed run replayed this image: no scan events will follow
    // in this stream, so the lifecycle event *is* the row.
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    std::string_view status = FieldStr(event, "status");
    if (!status.empty()) im.status = std::string(status);
    im.attempts = std::max(im.attempts, FieldCount(event, "attempts"));
    im.resumed = true;
    ++agg->resumed_images;
  } else if (type == "image_end") {
    ImageRollup& im = ImageFor(agg, FieldStr(event, "image"));
    im.status = FieldStr(event, "status");
    im.complete = FieldBool(event, "complete");
    im.functions = FieldCount(event, "functions");
    im.findings = FieldCount(event, "findings");
    im.duration_ms = FieldNum(event, "duration_ms");
    ++agg->image_ends;
    agg->image_ms += im.duration_ms;
  } else if (type == "phase_end") {
    PhaseRollup& ph =
        RowFor(agg->phases, &PhaseRollup::phase, FieldStr(event, "phase"));
    ++ph.runs;
    ph.total_ms += FieldNum(event, "duration_ms");
  } else if (type == "function_end") {
    FunctionRollup& fn = RowFor(agg->functions, &FunctionRollup::function,
                                 FieldStr(event, "function"));
    ++fn.calls;
    fn.total_ms += FieldNum(event, "micros") / 1000.0;
    if (FieldBool(event, "cached")) ++fn.cached;
    if (FieldBool(event, "degraded")) ++agg->degraded_functions;
  } else if (type == "incident") {
    ++agg->incidents;
    std::string_view phase = FieldStr(event, "phase");
    ++agg->incidents_by_phase[phase.empty() ? std::string("?")
                                            : std::string(phase)];
  } else if (type == "finding") {
    ++agg->findings;
  } else if (type == "binary_end") {
    ++agg->binaries;
    agg->binary_ms += FieldNum(event, "duration_ms");
  } else if (type == "heartbeat") {
    ++agg->heartbeats;
    agg->last_images_done = FieldCount(event, "images_done");
    agg->last_images_total = FieldCount(event, "images_total");
    agg->last_functions_done = FieldCount(event, "functions_done");
    agg->last_rss_mb = FieldNum(event, "rss_mb");
  }
}

/// Summed phase time of the image around its binary (ScanImage's
/// `extract` and `load`), or with `image` false of the binary itself.
double PhaseMs(const ScanAggregate& agg, bool image) {
  double ms = 0.0;
  for (const PhaseRollup& ph : agg.phases) {
    if ((ph.phase == "extract" || ph.phase == "load") == image) {
      ms += ph.total_ms;
    }
  }
  return ms;
}

/// Binary time no phase covers: the binary's phases tile each binary
/// span, so this is what the phase instrumentation misses.
double UnattributedMs(const ScanAggregate& agg) {
  return agg.binary_ms - PhaseMs(agg, /*image=*/false);
}

/// Splits a file into its streams: true when `type` starts a stream
/// after the file's first event.
class StreamSplitter {
 public:
  bool NewStream(std::string_view type) {
    bool fresh = seen_ && type == "stream_begin";
    seen_ = true;
    return fresh;
  }

 private:
  bool seen_ = false;
};

}  // namespace

void AggregateEvents(std::string_view ndjson, ScanAggregate* agg) {
  StreamSplitter splitter;
  bool terminated = false;
  auto end_stream = [&] {
    ++agg->streams;
    if (!terminated) ++agg->truncated_streams;
    terminated = false;
  };
  agg->malformed_lines +=
      ForEachEvent(ndjson, [&](const JsonValue& event, std::string_view type) {
        if (splitter.NewStream(type)) end_stream();
        ++agg->events;
        ++agg->events_by_type[std::string(type)];
        if (type == "stream_end") terminated = true;
        FoldEvent(event, type, agg);
      });
  end_stream();
}

void FinalizeAggregate(ScanAggregate* agg, const ScanReportOptions& options) {
  std::sort(agg->phases.begin(), agg->phases.end(),
            [](const PhaseRollup& a, const PhaseRollup& b) {
              return a.phase < b.phase;
            });
  std::sort(agg->functions.begin(), agg->functions.end(),
            [](const FunctionRollup& a, const FunctionRollup& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.function < b.function;
            });
  if (agg->functions.size() > options.top_functions) {
    agg->functions.resize(options.top_functions);
  }
}

Result<std::vector<std::string>> ReadEventFiles(
    const std::vector<std::string>& paths) {
  std::vector<std::string> streams;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return NotFound("cannot read event stream: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    streams.push_back(std::move(buf).str());
  }
  return streams;
}

Result<ScanAggregate> AggregateEventFiles(
    const std::vector<std::string>& paths,
    const ScanReportOptions& options) {
  auto streams = ReadEventFiles(paths);
  if (!streams.ok()) return streams.status();
  ScanAggregate agg;
  for (const std::string& text : *streams) AggregateEvents(text, &agg);
  FinalizeAggregate(&agg, options);
  return agg;
}

std::string AggregateToMarkdown(const ScanAggregate& agg) {
  std::string out = "# Fleet scan report\n\n";
  char buf[160];
  size_t complete = 0, in_flight = 0;
  for (const ImageRollup& im : agg.images) {
    if (im.complete) ++complete;
    if (im.status == "in_flight") ++in_flight;
  }
  std::snprintf(buf, sizeof(buf),
                "- streams: %zu (%zu truncated)\n"
                "- events: %zu (%zu malformed line(s) skipped)\n",
                agg.streams, agg.truncated_streams, agg.events,
                agg.malformed_lines);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "- images: %zu (%zu complete, %zu in flight)\n",
                agg.images.size(), complete, in_flight);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "- binaries: %llu, findings: %llu, incidents: %llu, degraded "
      "functions: %llu\n",
      static_cast<unsigned long long>(agg.binaries),
      static_cast<unsigned long long>(agg.findings),
      static_cast<unsigned long long>(agg.incidents),
      static_cast<unsigned long long>(agg.degraded_functions));
  out += buf;
  if (agg.image_retries || agg.quarantined_images || agg.worker_exits ||
      agg.resumed_images) {
    std::snprintf(
        buf, sizeof(buf),
        "- supervisor: %llu retried, %llu quarantined, %llu worker "
        "exit(s), %llu resumed\n",
        static_cast<unsigned long long>(agg.image_retries),
        static_cast<unsigned long long>(agg.quarantined_images),
        static_cast<unsigned long long>(agg.worker_exits),
        static_cast<unsigned long long>(agg.resumed_images));
    out += buf;
  }
  if (agg.heartbeats) {
    std::snprintf(
        buf, sizeof(buf),
        "- last heartbeat: images %llu/%llu, functions %llu, rss %.1f MB "
        "(%llu beat(s))\n",
        static_cast<unsigned long long>(agg.last_images_done),
        static_cast<unsigned long long>(agg.last_images_total),
        static_cast<unsigned long long>(agg.last_functions_done),
        agg.last_rss_mb, static_cast<unsigned long long>(agg.heartbeats));
    out += buf;
  }

  if (!agg.images.empty()) {
    out += "\n## Images\n\n"
           "| Image | Arch | Packing | Status | Complete | Fns | Findings "
           "| Attempts | ms |\n"
           "|---|---|---|---|---|---:|---:|---:|---:|\n";
    for (const ImageRollup& im : agg.images) {
      std::snprintf(buf, sizeof(buf),
                    "| %s | %s | %s | %s%s | %s | %llu | %llu | %llu | %.1f "
                    "|\n",
                    im.image.c_str(), im.arch.c_str(), im.packing.c_str(),
                    im.status.c_str(), im.resumed ? " (resumed)" : "",
                    im.complete ? "yes" : "no",
                    static_cast<unsigned long long>(im.functions),
                    static_cast<unsigned long long>(im.findings),
                    static_cast<unsigned long long>(
                        im.attempts ? im.attempts : 1),
                    im.duration_ms);
      out += buf;
    }
  }

  if (!agg.phases.empty()) {
    out += "\n## Phase time\n\n| Phase | Runs | Total ms |\n|---|---:|---:|\n";
    for (const PhaseRollup& ph : agg.phases) {
      std::snprintf(buf, sizeof(buf), "| %s | %llu | %.1f |\n",
                    ph.phase.c_str(),
                    static_cast<unsigned long long>(ph.runs), ph.total_ms);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "| binary | %llu | %.1f |\n| unattributed | | %.1f |\n"
                  "| image | %llu | %.1f |\n",
                  static_cast<unsigned long long>(agg.binaries),
                  agg.binary_ms, UnattributedMs(agg),
                  static_cast<unsigned long long>(agg.image_ends),
                  agg.image_ms);
    out += buf;
  }

  if (!agg.functions.empty()) {
    out += "\n## Hot functions\n\n"
           "| Function | Calls | Cached | Total ms |\n"
           "|---|---:|---:|---:|\n";
    for (const FunctionRollup& fn : agg.functions) {
      std::snprintf(buf, sizeof(buf), "| %s | %llu | %llu | %.2f |\n",
                    fn.function.c_str(),
                    static_cast<unsigned long long>(fn.calls),
                    static_cast<unsigned long long>(fn.cached), fn.total_ms);
      out += buf;
    }
  }

  if (!agg.incidents_by_phase.empty()) {
    out += "\n## Incidents by phase\n\n| Phase | Count |\n|---|---:|\n";
    for (const auto& [phase, count] : agg.incidents_by_phase) {
      std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", phase.c_str(),
                    static_cast<unsigned long long>(count));
      out += buf;
    }
  }

  if (!agg.events_by_type.empty()) {
    out += "\n## Events by type\n\n| Type | Count |\n|---|---:|\n";
    for (const auto& [type, count] : agg.events_by_type) {
      std::snprintf(buf, sizeof(buf), "| %s | %llu |\n", type.c_str(),
                    static_cast<unsigned long long>(count));
      out += buf;
    }
  }
  return out;
}

std::string AggregateToJson(const ScanAggregate& agg) {
  JsonBuilder b;
  b.BeginObject();
  b.Key("schema_version");
  b.Number(static_cast<uint64_t>(kEventSchemaVersion));
  b.Key("streams");
  b.Number(static_cast<uint64_t>(agg.streams));
  b.Key("truncated_streams");
  b.Number(static_cast<uint64_t>(agg.truncated_streams));
  b.Key("events");
  b.Number(static_cast<uint64_t>(agg.events));
  b.Key("malformed_lines");
  b.Number(static_cast<uint64_t>(agg.malformed_lines));
  b.Key("binaries");
  b.Number(agg.binaries);
  b.Key("binary_ms");
  b.Number(agg.binary_ms);
  b.Key("unattributed_ms");
  b.Number(UnattributedMs(agg));
  b.Key("image_ms");
  b.Number(agg.image_ms);
  b.Key("image_unattributed_ms");  // image time extract+load+binary miss
  b.Number(agg.image_ms - PhaseMs(agg, /*image=*/true) - agg.binary_ms);
  b.Key("findings");
  b.Number(agg.findings);
  b.Key("incidents");
  b.Number(agg.incidents);
  b.Key("degraded_functions");
  b.Number(agg.degraded_functions);
  b.Key("image_retries");
  b.Number(agg.image_retries);
  b.Key("quarantined_images");
  b.Number(agg.quarantined_images);
  b.Key("worker_exits");
  b.Number(agg.worker_exits);
  b.Key("resumed_images");
  b.Number(agg.resumed_images);
  b.Key("heartbeats");
  b.Number(agg.heartbeats);
  if (agg.heartbeats) {
    b.Key("last_heartbeat");
    b.BeginObject();
    b.Key("images_done");
    b.Number(agg.last_images_done);
    b.Key("images_total");
    b.Number(agg.last_images_total);
    b.Key("functions_done");
    b.Number(agg.last_functions_done);
    b.Key("rss_mb");
    b.Number(agg.last_rss_mb);
    b.EndObject();
  }

  b.Key("images");
  b.BeginArray();
  for (const ImageRollup& im : agg.images) {
    b.BeginObject();
    b.Key("image");
    b.String(im.image);
    b.Key("vendor");
    b.String(im.vendor);
    b.Key("product");
    b.String(im.product);
    b.Key("arch");
    b.String(im.arch);
    b.Key("packing");
    b.String(im.packing);
    b.Key("status");
    b.String(im.status);
    b.Key("complete");
    b.Bool(im.complete);
    b.Key("functions");
    b.Number(im.functions);
    b.Key("findings");
    b.Number(im.findings);
    b.Key("attempts");
    b.Number(im.attempts ? im.attempts : 1);
    b.Key("resumed");
    b.Bool(im.resumed);
    b.Key("duration_ms");
    b.Number(im.duration_ms);
    b.EndObject();
  }
  b.EndArray();

  b.Key("phases");
  b.BeginArray();
  for (const PhaseRollup& ph : agg.phases) {
    b.BeginObject();
    b.Key("phase");
    b.String(ph.phase);
    b.Key("runs");
    b.Number(ph.runs);
    b.Key("total_ms");
    b.Number(ph.total_ms);
    b.EndObject();
  }
  b.EndArray();

  b.Key("hot_functions");
  b.BeginArray();
  for (const FunctionRollup& fn : agg.functions) {
    b.BeginObject();
    b.Key("function");
    b.String(fn.function);
    b.Key("calls");
    b.Number(fn.calls);
    b.Key("cached");
    b.Number(fn.cached);
    b.Key("total_ms");
    b.Number(fn.total_ms);
    b.EndObject();
  }
  b.EndArray();

  b.Key("incidents_by_phase");
  b.BeginObject();
  for (const auto& [phase, count] : agg.incidents_by_phase) {
    b.Key(phase);
    b.Number(count);
  }
  b.EndObject();

  b.Key("events_by_type");
  b.BeginObject();
  for (const auto& [type, count] : agg.events_by_type) {
    b.Key(type);
    b.Number(count);
  }
  b.EndObject();

  b.EndObject();
  return std::move(b).Take();
}

std::string EventsToChromeTrace(const std::vector<std::string>& streams) {
  // The begin/end pairs that become slices; each names its slice by
  // the field named after its prefix.
  static constexpr std::string_view kSliceKinds[] = {"binary", "phase",
                                                     "function", "image"};
  JsonBuilder b;
  b.BeginObject();
  b.Key("traceEvents");
  b.BeginArray();
  uint64_t pid = 0;
  for (const std::string& text : streams) {
    StreamSplitter splitter;
    ++pid;
    ForEachEvent(text, [&](const JsonValue& event, std::string_view type) {
      if (splitter.NewStream(type)) ++pid;
      size_t sep = type.rfind('_');
      if (sep == std::string_view::npos) return;
      std::string_view kind = type.substr(0, sep);
      std::string_view edge = type.substr(sep + 1);
      if ((edge != "begin" && edge != "end") ||
          std::ranges::find(kSliceKinds, kind) == std::end(kSliceKinds)) {
        return;
      }
      b.BeginObject();
      b.Key("name");
      b.String(FieldStr(event, kind));
      b.Key("cat");
      b.String(kind);
      b.Key("ph");
      b.String(edge == "begin" ? "B" : "E");
      b.Key("ts");
      b.Number(static_cast<uint64_t>(
          std::llround(FieldNum(event, "ts_ms") * 1000.0)));
      b.Key("pid");
      b.Number(pid);
      b.Key("tid");
      b.Number(FieldCount(event, "tid"));
      b.EndObject();
    });
  }
  b.EndArray();
  b.Key("displayTimeUnit");
  b.String("ms");
  b.EndObject();
  return std::move(b).Take();
}

}  // namespace dtaint::obs

// Event stream and scan_report tests.
//
// Covers the crash-safety contract end to end: every emitted line is
// parseable NDJSON (validated against the repo's own JSON parser),
// concurrent emitters never tear or lose a line, per-type event counts
// are deterministic across identical runs, the pipeline's phases tile
// the binary in the event stream, in the Chrome trace converted from
// it and in the metrics alike, the converter emits golden begin/end
// records and survives torn streams, the stream leaves the log sink
// alone, and scan_report produces a correct partial fleet summary from
// the truncated stream a killed corpus_scan worker leaves behind —
// checked against the ground truth of a clean run of the same corpus.
//
// All file outputs land under obs_artifacts/ in the working directory
// so CI can upload them from failing jobs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dtaint.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/scan_report.h"
#include "src/synth/firmware_synth.h"
#include "src/util/json.h"

namespace dtaint {
namespace {

namespace fs = std::filesystem;

fs::path ArtifactDir() {
  fs::path dir = "obs_artifacts";
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

/// Parses every line of a stream file and tallies per-type counts;
/// fails the test on any unparseable line.
std::map<std::string, uint64_t> CountsFromFile(const fs::path& path) {
  std::map<std::string, uint64_t> counts;
  for (const std::string& line : Lines(ReadAll(path))) {
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << "unparseable line: " << line;
    if (!parsed.ok() || !parsed->is_object()) {
      ADD_FAILURE() << "not an object: " << line;
      continue;
    }
    const JsonValue* v = parsed->Find("v");
    const JsonValue* type = parsed->Find("type");
    if (!v || !type) {
      ADD_FAILURE() << "missing envelope: " << line;
      continue;
    }
    EXPECT_EQ(static_cast<int>(v->number()), obs::kEventSchemaVersion);
    ++counts[type->string()];
  }
  return counts;
}

SynthOutput SmallProgram(uint64_t seed = 41) {
  ProgramSpec spec;
  spec.name = "events";
  spec.arch = Arch::kDtArm;
  spec.seed = seed;
  spec.filler_functions = 20;
  PlantSpec p;
  p.id = "e1";
  p.pattern = VulnPattern::kDirect;
  p.source = "getenv";
  p.sink = "system";
  spec.plants.push_back(p);
  PlantSpec q = p;
  q.id = "e2";
  q.pattern = VulnPattern::kWrapper;
  q.source = "recv";
  q.sink = "strcpy";
  spec.plants.push_back(q);
  return std::move(*SynthesizeBinary(spec));
}

/// Runs a full analysis with the global stream open; returns per-type
/// counts parsed back from the file.
std::map<std::string, uint64_t> AnalyzeWithEvents(const fs::path& path,
                                                  size_t* findings) {
  obs::EventStream& events = obs::EventStream::Global();
  EXPECT_TRUE(events.Open(path.string(), "events_test"));
  SynthOutput synth = SmallProgram();
  DTaint detector{DTaintConfig{}};
  auto report = detector.Analyze(synth.binary);
  EXPECT_TRUE(report.ok());
  if (findings && report.ok()) *findings = report->findings.size();
  events.Close("ok");
  return CountsFromFile(path);
}

// ------------------------------------------------------------ event stream

TEST(EventStream, LinesParseAndEnvelopeIsComplete) {
  fs::path path = ArtifactDir() / "stream_basic.ndjson";
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  events.Emit(obs::Event("image_begin")
                  .Str("image", "Acme RT-1")
                  .Str("vendor", "Acme \"quoted\"")
                  .Str("arch", "arm"));
  events.Emit(obs::Event("image_end")
                  .Str("image", "Acme RT-1")
                  .Str("status", "ok")
                  .Bool("complete", true)
                  .Num("functions", 12)
                  .Num("findings", 2)
                  .Double("duration_ms", 1.25));
  events.EmitHeartbeat(1, 8, 12, 3.5);
  events.Close("ok");
  EXPECT_FALSE(events.enabled());

  std::vector<std::string> lines = Lines(ReadAll(path));
  ASSERT_EQ(lines.size(), 5u);  // begin, 2 events, heartbeat, end
  auto first = ParseJson(lines.front());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Find("type")->string(), "stream_begin");
  EXPECT_EQ(first->Find("tool")->string(), "events_test");
  EXPECT_NE(first->Find("pid"), nullptr);
  auto last = ParseJson(lines.back());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->Find("type")->string(), "stream_end");
  EXPECT_EQ(last->Find("outcome")->string(), "ok");
  EXPECT_EQ(static_cast<uint64_t>(last->Find("events")->number()), 5u);
  for (const std::string& line : lines) {
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(static_cast<int>(parsed->Find("v")->number()),
              obs::kEventSchemaVersion);
    EXPECT_NE(parsed->Find("ts_ms"), nullptr);
    EXPECT_NE(parsed->Find("tid"), nullptr);
  }
  auto heartbeat = ParseJson(lines[3]);
  ASSERT_TRUE(heartbeat.ok());
  EXPECT_EQ(heartbeat->Find("type")->string(), "heartbeat");
  EXPECT_EQ(static_cast<int>(heartbeat->Find("images_done")->number()), 1);
  EXPECT_EQ(static_cast<int>(heartbeat->Find("images_total")->number()), 8);
}

TEST(EventStream, PipelineEmitsDeterministicCountsAcrossRuns) {
  size_t findings1 = 0, findings2 = 0;
  auto counts1 =
      AnalyzeWithEvents(ArtifactDir() / "pipeline_run1.ndjson", &findings1);
  auto counts2 =
      AnalyzeWithEvents(ArtifactDir() / "pipeline_run2.ndjson", &findings2);
  EXPECT_EQ(counts1, counts2);
  EXPECT_EQ(findings1, findings2);

  // The pipeline's full vocabulary shows up.
  EXPECT_EQ(counts1["stream_begin"], 1u);
  EXPECT_EQ(counts1["stream_end"], 1u);
  EXPECT_EQ(counts1["binary_begin"], 1u);
  EXPECT_EQ(counts1["binary_end"], 1u);
  EXPECT_EQ(counts1["alias_mode"], 1u);
  EXPECT_GE(counts1["phase_begin"], 4u);
  EXPECT_EQ(counts1["phase_begin"], counts1["phase_end"]);
  EXPECT_GT(counts1["function_begin"], 0u);
  EXPECT_EQ(counts1["function_begin"], counts1["function_end"]);
  EXPECT_EQ(counts1["finding"], findings1);
  EXPECT_GT(findings1, 0u);
}

/// A function-pointer dispatch plant among fillers, so structure
/// similarity resolves an indirect call and the relink phase runs.
SynthOutput DispatchProgram() {
  ProgramSpec spec;
  spec.name = "phases";
  spec.arch = Arch::kDtArm;
  spec.seed = 43;
  spec.filler_functions = 20;
  PlantSpec p;
  p.id = "d1";
  p.pattern = VulnPattern::kDispatch;
  p.source = "recv";
  p.sink = "memcpy";
  spec.plants.push_back(p);
  return std::move(*SynthesizeBinary(spec));
}

/// One slice of a converted Chrome trace: a "B" record and its "E".
struct Slice {
  std::string cat;
  std::string name;
  double start = 0.0;  // µs
  double end = 0.0;
  std::string parent;  // cat of the enclosing slice on the thread
};

/// Pairs the B/E records of a Chrome trace per (pid, tid) by nesting
/// order, as Chrome does; slices come back in end order.
std::vector<Slice> SlicesOf(const JsonValue& trace) {
  std::map<std::pair<double, double>, std::vector<Slice>> open;
  std::vector<Slice> closed;
  for (const JsonValue& e : trace.Find("traceEvents")->array()) {
    std::vector<Slice>& stack =
        open[{e.Find("pid")->number(), e.Find("tid")->number()}];
    if (e.Find("ph")->string() == "B") {
      Slice slice{e.Find("cat")->string(), e.Find("name")->string(),
                  e.Find("ts")->number(), 0.0,
                  stack.empty() ? "" : stack.back().cat};
      stack.push_back(std::move(slice));
      continue;
    }
    EXPECT_FALSE(stack.empty()) << "unmatched end of "
                                << e.Find("name")->string();
    if (stack.empty()) continue;
    Slice slice = std::move(stack.back());
    stack.pop_back();
    EXPECT_EQ(e.Find("name")->string(), slice.name);
    slice.end = e.Find("ts")->number();
    closed.push_back(std::move(slice));
  }
  return closed;
}

TEST(EventStream, PhasesTileTheBinaryInEveryChannel) {
  fs::path path = ArtifactDir() / "phase_tiling.ndjson";
  obs::EventStream& events = obs::EventStream::Global();
  SynthOutput synth = DispatchProgram();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  auto report = DTaint{DTaintConfig{}}.Analyze(synth.binary);
  events.Close("ok");
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->indirect_calls_resolved, 0u);

  // Trace converted from the stream: flat phase slices, in order, none
  // overlapping, all inside the one binary slice.
  auto trace = ParseJson(obs::EventsToChromeTrace({ReadAll(path)}));
  ASSERT_TRUE(trace.ok());
  std::vector<std::pair<double, double>> phases;  // [start, end] in µs
  std::vector<std::string> phase_names;
  double bin_start = 0.0, bin_end = 0.0;
  int binaries = 0;
  for (const Slice& slice : SlicesOf(*trace)) {
    if (slice.cat == "binary") {
      ++binaries;
      bin_start = slice.start;
      bin_end = slice.end;
    } else if (slice.cat == "phase") {
      EXPECT_EQ(slice.parent, "binary") << slice.name;
      phases.emplace_back(slice.start, slice.end);
      phase_names.push_back(slice.name);
    }
  }
  ASSERT_EQ(binaries, 1);
  const std::vector<std::string> expected = {
      "lift",     "filter",    "callgraph", "summary",
      "link",     "structsim", "relink",    "pathfind_index",
      "pathfind", "sanitize",  "report"};
  EXPECT_EQ(phase_names, expected);
  for (size_t i = 0; i < phases.size(); ++i) {
    EXPECT_GE(phases[i].first, bin_start) << phase_names[i];
    EXPECT_LE(phases[i].second, bin_end) << phase_names[i];
    if (i > 0) {
      EXPECT_LE(phases[i - 1].second, phases[i].first)
          << phase_names[i - 1] << " overlaps " << phase_names[i];
    }
  }

  // Events: phase_end names in the same order; their durations sum to
  // at most the binary's (each duration_ms is rounded to 1 µs).
  std::vector<std::string> end_names;
  double phase_ms = 0.0, binary_ms = 0.0;
  for (const std::string& line : Lines(ReadAll(path))) {
    auto event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    std::string type = event->Find("type")->string();
    if (type == "phase_end") {
      end_names.push_back(event->Find("phase")->string());
      phase_ms += event->Find("duration_ms")->number();
    } else if (type == "binary_end") {
      binary_ms = event->Find("duration_ms")->number();
    }
  }
  EXPECT_EQ(end_names, phase_names);
  EXPECT_GT(binary_ms, 0.0);
  EXPECT_LE(phase_ms,
            binary_ms + 0.0005 * static_cast<double>(end_names.size()));

  // Metrics: one histogram sample per phase_end.
  std::map<std::string, uint64_t> ends_by_phase;
  for (const std::string& name : end_names) ++ends_by_phase[name];
  for (const auto& [name, ends] : ends_by_phase) {
    auto it = report->metrics.histograms.find("phase." + name + "_micros");
    ASSERT_NE(it, report->metrics.histograms.end()) << name;
    EXPECT_EQ(it->second.count, ends) << name;
  }
}

TEST(EventStream, DisabledStreamEmitsNothingAndCountsZero) {
  obs::EventStream stream;
  EXPECT_FALSE(stream.enabled());
  stream.Emit(obs::Event("finding").Str("sink", "system"));
  stream.EmitHeartbeat(0, 0, 0, 0.0);
  EXPECT_EQ(stream.EventCount(), 0u);
  stream.Close("ok");  // safe when never opened
}

TEST(EventStream, IncidentLandsInTheStreamAndNowhereElse) {
  fs::path dir = ArtifactDir() / "incident_stream";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::path path = dir / "incident.ndjson";
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  Incident incident;
  incident.binary = "acme.bin";
  incident.phase = "summary";
  incident.detail = "parse_uri";
  incident.status = OutOfRange("budget exhausted");
  incident.budget.exhausted_by = BudgetExhaustion::kSteps;
  incident.budget.steps = 1000;
  obs::EmitIncident(events, incident);
  events.Close("ok");

  std::string main_stream = ReadAll(path);
  EXPECT_NE(main_stream.find("\"type\":\"incident\""), std::string::npos);
  EXPECT_NE(main_stream.find("\"cause\":"), std::string::npos);
  // The stream is the one record: no side file appears beside it.
  size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path(), path);
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

/// Log sink that keeps every message it receives.
void CaptureLogSink(obs::LogLevel, std::string_view, std::string_view message,
                    void* user) {
  static_cast<std::vector<std::string>*>(user)->emplace_back(message);
}

TEST(EventStream, OpenAndCloseLeaveTheLogSinkAlone) {
  fs::path path = ArtifactDir() / "log_sink.ndjson";
  std::vector<std::string> captured;
  obs::SetLogSink(&CaptureLogSink, &captured);
  obs::LogLevel saved = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kWarn);
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  DTAINT_LOG(obs::LogLevel::kWarn, "sink_test", "during %d", 1);
  events.Close("ok");
  DTAINT_LOG(obs::LogLevel::kWarn, "sink_test", "after %d", 2);
  obs::SetLogLevel(saved);
  obs::SetLogSink(nullptr, nullptr);

  EXPECT_EQ(captured, (std::vector<std::string>{"during 1", "after 2"}));
  // Log records are diagnostics, not scan events.
  std::string stream = ReadAll(path);
  EXPECT_EQ(stream.find("sink_test"), std::string::npos);
  EXPECT_EQ(stream.find("during 1"), std::string::npos);
}

TEST(EventStream, ConcurrentEmittersWriteWholeLines) {
  fs::path path = ArtifactDir() / "concurrent.ndjson";
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 500;
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  {
    // The heartbeat thread emits alongside the emitters, as it does
    // beside the summary threads of every corpus_scan run.
    obs::Heartbeat heartbeat(events, 1);
    std::vector<std::thread> emitters;
    for (int t = 0; t < kThreads; ++t) {
      emitters.emplace_back([&events, t] {
        for (int i = 0; i < kEventsPerThread; ++i) {
          events.Emit(obs::Event("probe").Num("emitter", t).Num("seq", i));
        }
      });
    }
    for (std::thread& emitter : emitters) emitter.join();
  }
  events.Close("ok");

  std::vector<std::string> lines = Lines(ReadAll(path));
  std::vector<int> per_emitter(kThreads, 0);
  uint64_t stream_end_events = 0;
  for (const std::string& line : lines) {
    auto event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    std::string type = event->Find("type")->string();
    if (type == "probe") {
      ++per_emitter[static_cast<size_t>(event->Find("emitter")->number())];
    } else if (type == "stream_end") {
      stream_end_events =
          static_cast<uint64_t>(event->Find("events")->number());
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_emitter[static_cast<size_t>(t)], kEventsPerThread) << t;
  }
  EXPECT_EQ(stream_end_events, lines.size());
}

TEST(EventStream, AppendStartsOnALineOfItsOwn) {
  fs::path path = ArtifactDir() / "append.ndjson";
  const std::string whole =
      R"({"v":1,"type":"stream_begin","ts_ms":0,"tid":0,"tool":"t"})";
  const std::string torn = R"({"v":1,"type":"image_done","ts_ms":1,"ti)";
  {
    // What a killed run leaves: whole lines, then a torn one.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << whole << '\n' << torn;
  }
  obs::EventStream& events = obs::EventStream::Global();
  ASSERT_TRUE(events.Open(path.string(), "events_test", /*append=*/true));
  events.Emit(obs::Event("probe"));
  events.Close("ok");
  // Appending again after a clean end adds no blank line.
  ASSERT_TRUE(events.Open(path.string(), "events_test", /*append=*/true));
  events.Close("ok");

  std::vector<std::string> lines = Lines(ReadAll(path));
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], whole);
  EXPECT_EQ(lines[1], torn);  // still torn, but glued to nothing
  std::vector<std::string> types;
  size_t malformed = obs::ForEachEvent(
      ReadAll(path), [&](const JsonValue&, std::string_view type) {
        types.emplace_back(type);
      });
  EXPECT_EQ(malformed, 1u);
  EXPECT_EQ(types, (std::vector<std::string>{"stream_begin", "stream_begin",
                                             "probe", "stream_end",
                                             "stream_begin", "stream_end"}));

  // Without append, Open starts the file over.
  ASSERT_TRUE(events.Open(path.string(), "events_test"));
  events.Close("ok");
  EXPECT_EQ(Lines(ReadAll(path)).size(), 2u);
}

// -------------------------------------------------------------- aggregation

constexpr const char* kCompleteStream =
    R"({"v":1,"type":"stream_begin","ts_ms":0,"tid":0,"tool":"corpus_scan","pid":7,"unix_ms":5}
{"v":1,"type":"corpus_begin","ts_ms":0.1,"tid":0,"images":2}
{"v":1,"type":"image_begin","ts_ms":1,"tid":0,"image":"A 1","vendor":"A","product":"1","arch":"arm","packing":"plain"}
{"v":1,"type":"phase_end","ts_ms":2,"tid":0,"phase":"lift","duration_ms":1.5}
{"v":1,"type":"binary_end","ts_ms":2.5,"tid":0,"binary":"A 1","functions":12,"findings":1,"complete":true,"duration_ms":2.0}
{"v":1,"type":"function_end","ts_ms":3,"tid":1,"function":"main","micros":1500,"cached":false,"degraded":false}
{"v":1,"type":"function_end","ts_ms":4,"tid":1,"function":"helper","micros":500,"cached":true,"degraded":true}
{"v":1,"type":"finding","ts_ms":5,"tid":0,"class":"command_injection","source":"getenv","sink":"system"}
{"v":1,"type":"image_end","ts_ms":6,"tid":0,"image":"A 1","status":"ok","complete":true,"functions":12,"findings":1,"duration_ms":5.0}
{"v":1,"type":"image_begin","ts_ms":7,"tid":0,"image":"B 2","vendor":"B","product":"2","arch":"mips","packing":"encrypted"}
{"v":1,"type":"image_end","ts_ms":8,"tid":0,"image":"B 2","status":"unextractable","complete":false,"functions":0,"findings":0,"duration_ms":0.5}
{"v":1,"type":"heartbeat","ts_ms":9,"tid":2,"images_done":2,"images_total":2,"functions_done":12,"functions_per_sec":4.0,"rss_mb":31.5}
{"v":1,"type":"corpus_end","ts_ms":10,"tid":0,"images":2,"complete":1}
{"v":1,"type":"stream_end","ts_ms":11,"tid":0,"outcome":"ok","events":13}
)";

// Killed worker: no stream_end, an incident, and a torn final line.
constexpr const char* kTruncatedStream =
    R"({"v":1,"type":"stream_begin","ts_ms":0,"tid":0,"tool":"corpus_scan","pid":9,"unix_ms":6}
{"v":1,"type":"image_begin","ts_ms":1,"tid":0,"image":"C 3","vendor":"C","product":"3","arch":"arm","packing":"xor"}
{"v":1,"type":"incident","ts_ms":2,"tid":0,"binary":"C 3","phase":"extract","detail":"C 3","status":"CORRUPT_DATA"}
not json at all
{"v":1,"type":"image_begin","ts_ms":3,"tid":0,"image":"D 4","ven)";

TEST(ScanReport, AggregatesCompleteAndTruncatedStreams) {
  obs::ScanAggregate agg;
  obs::AggregateEvents(kCompleteStream, &agg);
  obs::AggregateEvents(kTruncatedStream, &agg);
  obs::FinalizeAggregate(&agg, obs::ScanReportOptions{});

  EXPECT_EQ(agg.streams, 2u);
  EXPECT_EQ(agg.truncated_streams, 1u);
  // "not json" + the torn final line.
  EXPECT_EQ(agg.malformed_lines, 2u);
  EXPECT_EQ(agg.events, 17u);

  ASSERT_EQ(agg.images.size(), 3u);
  EXPECT_EQ(agg.images[0].image, "A 1");
  EXPECT_EQ(agg.images[0].status, "ok");
  EXPECT_TRUE(agg.images[0].complete);
  EXPECT_EQ(agg.images[0].functions, 12u);
  EXPECT_EQ(agg.images[1].status, "unextractable");
  // The killed worker's in-progress image: begin without end.
  EXPECT_EQ(agg.images[2].image, "C 3");
  EXPECT_EQ(agg.images[2].status, "in_flight");

  EXPECT_EQ(agg.findings, 1u);
  EXPECT_EQ(agg.incidents, 1u);
  EXPECT_EQ(agg.incidents_by_phase.at("extract"), 1u);
  EXPECT_EQ(agg.degraded_functions, 1u);
  EXPECT_EQ(agg.heartbeats, 1u);
  EXPECT_EQ(agg.last_images_done, 2u);

  ASSERT_EQ(agg.functions.size(), 2u);
  EXPECT_EQ(agg.functions[0].function, "main");  // 1.5ms > 0.5ms
  EXPECT_EQ(agg.functions[1].cached, 1u);

  ASSERT_EQ(agg.phases.size(), 1u);
  EXPECT_EQ(agg.phases[0].phase, "lift");
  EXPECT_DOUBLE_EQ(agg.phases[0].total_ms, 1.5);
  EXPECT_EQ(agg.binaries, 1u);
  EXPECT_DOUBLE_EQ(agg.binary_ms, 2.0);
}

TEST(ScanReport, OneFileWithSeveralStreamsReadsAsSeveralStreams) {
  // A resumed run appends its stream to the file of the run it
  // resumes; each stream_begin after a file's first event starts a
  // stream of its own, with its own truncation state and trace pid.
  const std::string appended =
      R"({"v":1,"type":"stream_begin","ts_ms":0,"tid":0,"tool":"corpus_scan"}
{"v":1,"type":"image_begin","ts_ms":0.5,"tid":0,"image":"C 3"}
{"v":1,"type":"image_end","ts_ms":1,"tid":0,"image":"C 3","status":"ok","duration_ms":0.5}
{"v":1,"type":"stream_end","ts_ms":2,"tid":0,"outcome":"ok","events":4}
)";
  for (const std::string& first : {std::string(kCompleteStream),
                                   std::string(kTruncatedStream) + "\n"}) {
    obs::ScanAggregate two_files, one_file;
    obs::AggregateEvents(first, &two_files);
    obs::AggregateEvents(appended, &two_files);
    obs::FinalizeAggregate(&two_files, obs::ScanReportOptions{});
    obs::AggregateEvents(first + appended, &one_file);
    obs::FinalizeAggregate(&one_file, obs::ScanReportOptions{});
    EXPECT_EQ(one_file.streams, 2u);
    EXPECT_EQ(obs::AggregateToJson(one_file), obs::AggregateToJson(two_files));
    EXPECT_EQ(obs::EventsToChromeTrace({first + appended}),
              obs::EventsToChromeTrace({first, appended}));
  }
  obs::ScanAggregate killed;
  obs::AggregateEvents(std::string(kTruncatedStream) + "\n" + appended,
                       &killed);
  EXPECT_EQ(killed.streams, 2u);
  EXPECT_EQ(killed.truncated_streams, 1u);
  // A file with no stream_begin at all is still one stream.
  obs::ScanAggregate bare;
  obs::AggregateEvents("", &bare);
  EXPECT_EQ(bare.streams, 1u);
}

TEST(ScanReport, HostileCountsReadAsZeroOrSaturate) {
  // A count in a file another process wrote: negative and non-finite
  // read as 0, past the range of uint64_t as its maximum, never as a
  // wrapped or undefined conversion.
  auto last_functions_done = [](std::string_view value) {
    obs::ScanAggregate agg;
    obs::AggregateEvents(
        R"({"v":1,"type":"heartbeat","ts_ms":1,"tid":0,"functions_done":)" +
            std::string(value) + "}\n",
        &agg);
    return agg.last_functions_done;
  };
  EXPECT_EQ(last_functions_done("-3"), 0u);
  EXPECT_EQ(last_functions_done("1e30"), UINT64_MAX);
  EXPECT_EQ(last_functions_done("1e999"), 0u);  // parses as inf
  EXPECT_EQ(last_functions_done("12"), 12u);
}

TEST(ScanReport, MarkdownAndJsonRender) {
  obs::ScanAggregate agg;
  obs::AggregateEvents(kCompleteStream, &agg);
  obs::AggregateEvents(kTruncatedStream, &agg);
  obs::FinalizeAggregate(&agg, obs::ScanReportOptions{});

  std::string md = obs::AggregateToMarkdown(agg);
  EXPECT_NE(md.find("# Fleet scan report"), std::string::npos);
  EXPECT_NE(md.find("| A 1 |"), std::string::npos);
  EXPECT_NE(md.find("in_flight"), std::string::npos);
  EXPECT_NE(md.find("## Phase time"), std::string::npos);
  // The phase table sums to the binary total: 1.5 ms of phases, 2.0 ms
  // of binary, 0.5 ms unattributed.
  EXPECT_NE(md.find("| binary | 1 | 2.0 |"), std::string::npos);
  EXPECT_NE(md.find("| unattributed | | 0.5 |"), std::string::npos);

  std::string json = obs::AggregateToJson(agg);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(static_cast<int>(parsed->Find("truncated_streams")->number()), 1);
  EXPECT_EQ(parsed->Find("images")->array().size(), 3u);
  EXPECT_EQ(parsed->Find("images")->array()[2].Find("status")->string(),
            "in_flight");
  EXPECT_EQ(static_cast<int>(parsed->Find("malformed_lines")->number()), 2);
  EXPECT_DOUBLE_EQ(parsed->Find("binary_ms")->number(), 2.0);
  EXPECT_DOUBLE_EQ(parsed->Find("unattributed_ms")->number(), 0.5);
}

TEST(ScanReport, ImageTimeCountsExtractLoadAndBinary) {
  // One image: extract and load tile it around the binary, and stay out
  // of the binary's own unattributed time.
  constexpr const char* kStream =
      R"({"v":1,"type":"image_begin","ts_ms":0,"tid":0,"image":"E 5"}
{"v":1,"type":"phase_end","ts_ms":1,"tid":0,"phase":"extract","duration_ms":0.5}
{"v":1,"type":"phase_end","ts_ms":2,"tid":0,"phase":"load","duration_ms":0.25}
{"v":1,"type":"phase_end","ts_ms":3,"tid":0,"phase":"lift","duration_ms":1.5}
{"v":1,"type":"binary_end","ts_ms":4,"tid":0,"binary":"e","duration_ms":2.0}
{"v":1,"type":"image_end","ts_ms":5,"tid":0,"image":"E 5","status":"ok","duration_ms":3.0}
)";
  obs::ScanAggregate agg;
  obs::AggregateEvents(kStream, &agg);
  obs::FinalizeAggregate(&agg, obs::ScanReportOptions{});
  EXPECT_EQ(agg.image_ends, 1u);
  EXPECT_DOUBLE_EQ(agg.image_ms, 3.0);

  std::string md = obs::AggregateToMarkdown(agg);
  EXPECT_NE(md.find("| extract | 1 | 0.5 |"), std::string::npos) << md;
  EXPECT_NE(md.find("| load | 1 | 0.2 |"), std::string::npos) << md;
  EXPECT_NE(md.find("| binary | 1 | 2.0 |"), std::string::npos) << md;
  EXPECT_NE(md.find("| unattributed | | 0.5 |"), std::string::npos) << md;
  EXPECT_NE(md.find("| image | 1 | 3.0 |"), std::string::npos) << md;

  auto parsed = ParseJson(obs::AggregateToJson(agg));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->Find("unattributed_ms")->number(), 0.5);
  EXPECT_DOUBLE_EQ(parsed->Find("image_ms")->number(), 3.0);
  EXPECT_DOUBLE_EQ(parsed->Find("image_unattributed_ms")->number(), 0.25);
}

TEST(ScanReport, TopFunctionsTruncationIsDeterministic) {
  obs::ScanAggregate agg;
  std::string stream =
      "{\"v\":1,\"type\":\"stream_begin\",\"ts_ms\":0,\"tid\":0}\n";
  for (int i = 0; i < 20; ++i) {
    stream += "{\"v\":1,\"type\":\"function_end\",\"ts_ms\":1,\"tid\":0,"
              "\"function\":\"fn" +
              std::to_string(i) + "\",\"micros\":" +
              std::to_string(1000 * (i + 1)) + ",\"cached\":false}\n";
  }
  stream += "{\"v\":1,\"type\":\"stream_end\",\"ts_ms\":2,\"tid\":0}\n";
  obs::AggregateEvents(stream, &agg);
  obs::ScanReportOptions options;
  options.top_functions = 5;
  obs::FinalizeAggregate(&agg, options);
  ASSERT_EQ(agg.functions.size(), 5u);
  EXPECT_EQ(agg.functions[0].function, "fn19");  // most expensive first
  EXPECT_EQ(agg.functions[4].function, "fn15");
}

// ------------------------------------------------------- kill-mid-scan oracle

/// Path of the corpus_scan binary, provided by CTest via the
/// DTAINT_CORPUS_SCAN_BIN environment property.
const char* CorpusScanBin() { return std::getenv("DTAINT_CORPUS_SCAN_BIN"); }

TEST(KillMidScan, TruncatedStreamYieldsCorrectPartialFleetSummary) {
  const char* bin = CorpusScanBin();
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  fs::path dir = ArtifactDir();
  fs::path clean = dir / "kill_clean.ndjson";
  fs::path crashed = dir / "kill_crashed.ndjson";

  // Ground truth: the same corpus scanned to completion. Heartbeats
  // off so both event streams are fully deterministic.
  std::string base = std::string("\"") + bin +
                     "\" --heartbeat-ms 0 --events-out ";
  int rc_clean =
      std::system((base + "\"" + clean.string() + "\" > /dev/null").c_str());
  ASSERT_NE(rc_clean, -1);

  // Crash the worker on the third image (the first two D-Link images
  // complete first; the corpus order is deterministic).
  ::setenv("DTAINT_FAULTS", "crash@Netgear R7000", 1);
  int rc_crash = std::system(
      (base + "\"" + crashed.string() + "\" > /dev/null 2>&1").c_str());
  ::unsetenv("DTAINT_FAULTS");
  EXPECT_NE(rc_crash, 0) << "crash fault should have killed the worker";

  // The clean stream terminates, the crashed one does not.
  auto clean_agg = obs::AggregateEventFiles({clean.string()});
  ASSERT_TRUE(clean_agg.ok());
  EXPECT_EQ(clean_agg->truncated_streams, 0u);
  EXPECT_EQ(clean_agg->malformed_lines, 0u);

  auto crash_agg = obs::AggregateEventFiles({crashed.string()});
  ASSERT_TRUE(crash_agg.ok());
  EXPECT_EQ(crash_agg->streams, 1u);
  EXPECT_EQ(crash_agg->truncated_streams, 1u);

  // Every image that finished before the crash reports exactly the
  // clean run's outcome; the in-progress one is flagged in_flight.
  ASSERT_EQ(crash_agg->images.size(), 3u);
  ASSERT_GE(clean_agg->images.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(crash_agg->images[i].image, clean_agg->images[i].image);
    EXPECT_EQ(crash_agg->images[i].status, clean_agg->images[i].status);
    EXPECT_EQ(crash_agg->images[i].complete, clean_agg->images[i].complete);
    EXPECT_EQ(crash_agg->images[i].functions,
              clean_agg->images[i].functions);
    EXPECT_EQ(crash_agg->images[i].findings, clean_agg->images[i].findings);
  }
  EXPECT_EQ(crash_agg->images[2].image, "Netgear R7000");
  EXPECT_EQ(crash_agg->images[2].status, "in_flight");

  // A fleet report over both workers' streams still renders. The same
  // image completed in the clean worker, so its rollup is no longer
  // in_flight — the truncation shows up as stream health instead.
  auto fleet =
      obs::AggregateEventFiles({clean.string(), crashed.string()});
  ASSERT_TRUE(fleet.ok());
  EXPECT_EQ(fleet->streams, 2u);
  EXPECT_EQ(fleet->truncated_streams, 1u);
  std::string md = obs::AggregateToMarkdown(*fleet);
  EXPECT_NE(md.find("(1 truncated)"), std::string::npos);
  // The crashed worker's own stream does report the in-flight image.
  std::string solo = obs::AggregateToMarkdown(*crash_agg);
  EXPECT_NE(solo.find("in_flight"), std::string::npos);
}

// ----------------------------------------------------------- chrome trace

TEST(ChromeTrace, BeginEndRecordsAreGolden) {
  // Two streams: a scan whose summary phase runs a function on its own
  // thread and one on a worker, and a fleet stream with one image.
  // Events other than the four begin/end kinds are not slices.
  const std::string scan =
      R"({"v":1,"type":"stream_begin","ts_ms":0,"tid":0,"tool":"t","pid":9,"unix_ms":6}
{"v":1,"type":"binary_begin","ts_ms":0.5,"tid":0,"binary":"httpd","arch":"dtarm"}
{"v":1,"type":"alias_mode","ts_ms":0.6,"tid":0,"mode":"ondemand"}
{"v":1,"type":"phase_begin","ts_ms":1,"tid":0,"phase":"summary"}
{"v":1,"type":"function_begin","ts_ms":1.25,"tid":0,"function":"parse_uri"}
{"v":1,"type":"function_begin","ts_ms":1.5,"tid":2,"function":"main"}
{"v":1,"type":"function_end","ts_ms":1.75,"tid":0,"function":"parse_uri","micros":500,"cached":false,"degraded":false}
{"v":1,"type":"function_end","ts_ms":2.001,"tid":2,"function":"main","micros":501,"cached":true,"degraded":false}
{"v":1,"type":"phase_end","ts_ms":3,"tid":0,"phase":"summary","duration_ms":2.0}
{"v":1,"type":"finding","ts_ms":4,"tid":0,"class":"overflow","sink":"strcpy"}
{"v":1,"type":"binary_end","ts_ms":5,"tid":0,"binary":"httpd","duration_ms":4.5}
{"v":1,"type":"stream_end","ts_ms":6,"tid":0,"outcome":"ok","events":11}
)";
  const std::string fleet =
      R"({"v":1,"type":"image_begin","ts_ms":2,"tid":1,"image":"Netgear \"R7000\""}
{"v":1,"type":"image_end","ts_ms":3,"tid":1,"image":"Netgear \"R7000\"","status":"ok"}
)";
  std::string json = obs::EventsToChromeTrace({scan, fleet});
  auto record = [](const char* name, const char* cat, const char* ph,
                   int ts, int pid, int tid) {
    return std::string("{\"name\":\"") + name + "\",\"cat\":\"" + cat +
           "\",\"ph\":\"" + ph + "\",\"ts\":" + std::to_string(ts) +
           ",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(tid) + "}";
  };
  std::string golden =
      "{\"traceEvents\":[" + record("httpd", "binary", "B", 500, 1, 0) + "," +
      record("summary", "phase", "B", 1000, 1, 0) + "," +
      record("parse_uri", "function", "B", 1250, 1, 0) + "," +
      record("main", "function", "B", 1500, 1, 2) + "," +
      record("parse_uri", "function", "E", 1750, 1, 0) + "," +
      record("main", "function", "E", 2001, 1, 2) + "," +
      record("summary", "phase", "E", 3000, 1, 0) + "," +
      record("httpd", "binary", "E", 5000, 1, 0) + "," +
      record("Netgear \\\"R7000\\\"", "image", "B", 2000, 2, 1) + "," +
      record("Netgear \\\"R7000\\\"", "image", "E", 3000, 2, 1) +
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(json, golden);

  // The repo's own parser accepts it, and the slices nest three deep
  // on the scan's thread 0.
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("displayTimeUnit")->string(), "ms");
  std::vector<Slice> slices = SlicesOf(*parsed);
  ASSERT_EQ(slices.size(), 5u);
  EXPECT_EQ(slices[0].name, "parse_uri");
  EXPECT_EQ(slices[0].parent, "phase");
  EXPECT_EQ(slices[1].name, "main");
  EXPECT_EQ(slices[1].parent, "");  // a worker thread's own track
  EXPECT_EQ(slices[2].parent, "binary");
  EXPECT_EQ(slices[4].name, "Netgear \"R7000\"");
  EXPECT_DOUBLE_EQ(slices[4].end - slices[4].start, 1000.0);
}

TEST(ChromeTrace, TornAndUnmatchedStreamsConvert) {
  // A killed worker's stream (image C 3 never ends, garbage mid-stream,
  // a torn final line) and a stream whose begins were lost (it starts
  // at an end): both convert, open slices stay open.
  const std::string lost_begins =
      R"({"v":1,"type":"phase_end","ts_ms":1,"tid":0,"phase":"lift","duration_ms":1}
{"v":1,"type":"binary_end","ts_ms":2,"tid":0,"binary":"b","duration_ms":2}
)";
  std::string json =
      obs::EventsToChromeTrace({kTruncatedStream, lost_begins});
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& records = parsed->Find("traceEvents")->array();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].Find("name")->string(), "C 3");
  EXPECT_EQ(records[0].Find("ph")->string(), "B");
  EXPECT_EQ(records[1].Find("name")->string(), "lift");
  EXPECT_EQ(records[1].Find("ph")->string(), "E");
  EXPECT_EQ(records[1].Find("pid")->number(), 2);
  EXPECT_EQ(records[2].Find("cat")->string(), "binary");

  // No streams at all: an empty, still valid, document.
  auto empty = ParseJson(obs::EventsToChromeTrace({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->Find("traceEvents")->array().empty());
}

}  // namespace
}  // namespace dtaint

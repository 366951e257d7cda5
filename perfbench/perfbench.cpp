// perfbench — the driver binary of the repo benchmark (perfbench/run.py
// builds it and runs every subcommand in a process of its own).
//
//   perfbench synth --corpus paper_six|fleet --seed S --images N --out DIR
//       Synthesizes the seeded corpus into DIR: one blob
//       per image (a DTBIN binary for paper_six, a packed firmware image
//       for the fleet workloads) plus manifest.json with each image's
//       label, expected extraction outcome, focus list and planted ground
//       truth. Prints {"seconds":..,"fingerprint":..,"images":..}; the
//       seconds are the CPU time of synthesis, packing and writing.
//
//   perfbench scan --dir DIR --mode facade|staged --out FILE
//                  [--threads T] [--cache-dir C] [--workers W]
//       Scans every image of DIR exactly once, in a closed loop (the next
//       image starts when the previous one finishes). `facade` runs the
//       library's own DTaint::Analyze / AnalyzeFunctions (the untraced
//       run). `staged` calls each layer's public entry point in the same
//       order as DTaint::AnalyzeFunctions and times a span around every
//       call (the traced run); no tracing inside the library is used.
//       --workers W > 0 scans through ScanSupervisor with W forked
//       workers, each image in its own worker process. Writes one JSON
//       object with the pass times and per-image records to FILE.
//
// Times are CPU time of the analysing process (all its threads), read
// with CLOCK_PROCESS_CPUTIME_ID. On a shared virtual machine the host
// steals vCPU time in bursts that swing wall-clock figures by tens of
// percent between runs; CPU time excludes the stolen time. Wall times
// are recorded beside them.
#include <sys/resource.h>
#include <time.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/binary/loader.h"
#include "src/cache/summary_cache.h"
#include "src/core/dtaint.h"
#include "src/firmware/extractor.h"
#include "src/firmware/packer.h"
#include "src/obs/metrics.h"
#include "src/report/json.h"
#include "src/report/scoring.h"
#include "src/resilience/supervisor.h"
#include "src/symexec/intern.h"
#include "src/synth/firmware_synth.h"
#include "src/synth/paper_images.h"
#include "src/util/hash.h"
#include "src/util/json.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

using namespace dtaint;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of this process (all threads, exited ones included), in ms.
double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CPU time of the reaped child processes (user + system), in ms.
double ChildrenCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

long MaxRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---------------------------------------------------------------------
// Command line: `--key value` pairs after the subcommand.

using Args = std::map<std::string, std::string>;

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) break;
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string Need(const Args& args, const std::string& key) {
  auto it = args.find(key);
  if (it == args.end()) {
    std::fprintf(stderr, "perfbench: missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

long Opt(const Args& args, const std::string& key, long fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback : std::atol(it->second.c_str());
}

// ---------------------------------------------------------------------
// Corpus: images on disk plus their manifest entries.

struct ImageEntry {
  std::string label;
  std::string file;         // blob file name inside the corpus dir
  bool packed = false;      // fleet images go through the extractor
  bool unextractable = false;  // built with encrypted/unknown packing
  std::string binary_path;  // member to load after extraction
  std::vector<std::string> focus;
  std::vector<PlantedVuln> truth;
};

void AppendEntry(JsonBuilder& json, const ImageEntry& e) {
  json.BeginObject();
  json.Key("label");
  json.String(e.label);
  json.Key("file");
  json.String(e.file);
  json.Key("packed");
  json.Bool(e.packed);
  json.Key("unextractable");
  json.Bool(e.unextractable);
  json.Key("binary_path");
  json.String(e.binary_path);
  json.Key("focus");
  json.BeginArray();
  for (const std::string& f : e.focus) json.String(f);
  json.EndArray();
  json.Key("truth");
  json.BeginArray();
  for (const PlantedVuln& v : e.truth) {
    json.BeginObject();
    json.Key("id");
    json.String(v.id);
    json.Key("function");
    json.String(v.sink_function);
    json.Key("sink");
    json.String(v.sink);
    json.Key("source");
    json.String(v.source);
    json.Key("class");
    json.Number(static_cast<uint64_t>(v.vuln_class));
    json.Key("sanitized");
    json.Bool(v.sanitized);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

const std::string& Str(const JsonValue& obj, std::string_view key) {
  static const std::string kEmpty;
  const JsonValue* v = obj.Find(key);
  return v && v->is_string() ? v->string() : kEmpty;
}

bool Flag(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.Find(key);
  return v && v->is_bool() && v->boolean();
}

double Num(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.Find(key);
  return v && v->is_number() ? v->number() : 0.0;
}

ImageEntry EntryFromJson(const JsonValue& obj) {
  ImageEntry e;
  e.label = Str(obj, "label");
  e.file = Str(obj, "file");
  e.packed = Flag(obj, "packed");
  e.unextractable = Flag(obj, "unextractable");
  e.binary_path = Str(obj, "binary_path");
  if (const JsonValue* focus = obj.Find("focus")) {
    for (const JsonValue& f : focus->array()) e.focus.push_back(f.string());
  }
  if (const JsonValue* truth = obj.Find("truth")) {
    for (const JsonValue& t : truth->array()) {
      PlantedVuln v;
      v.id = Str(t, "id");
      v.sink_function = Str(t, "function");
      v.sink = Str(t, "sink");
      v.source = Str(t, "source");
      v.vuln_class = static_cast<VulnClass>(Num(t, "class"));
      v.sanitized = Flag(t, "sanitized");
      e.truth.push_back(std::move(v));
    }
  }
  return e;
}

struct Corpus {
  std::vector<ImageEntry> entries;
  std::vector<std::vector<uint8_t>> blobs;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool WriteFile(const fs::path& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return out.good();
}

Result<Corpus> LoadCorpus(const fs::path& dir) {
  auto manifest = ParseJson(ReadFile(dir / "manifest.json"));
  if (!manifest.ok()) return manifest.status();
  const JsonValue* images = manifest->Find("images");
  if (!images || !images->is_array()) {
    return InvalidArgument("manifest has no images array");
  }
  Corpus corpus;
  for (const JsonValue& obj : images->array()) {
    corpus.entries.push_back(EntryFromJson(obj));
    std::string blob = ReadFile(dir / corpus.entries.back().file);
    corpus.blobs.emplace_back(blob.begin(), blob.end());
  }
  return corpus;
}

// ---------------------------------------------------------------------
// Corpus generators. The seed changes every image's code (program seeds,
// source/sink choices, labels, plain vs xor packing); the mix of image
// sizes, plant patterns and unextractable images follows a fixed
// schedule so runs with different seeds do the same kind and amount of
// work.

uint64_t SeedFor(uint64_t seed, uint64_t label) {
  return Rng(seed).Fork(label).Next();
}

/// paper_six: the six paper images, cycled `images` times; each replica
/// keeps plants, shape and focus list, and only the program seed changes.
std::vector<std::pair<ImageEntry, std::vector<uint8_t>>> PaperSix(
    uint64_t seed, int images) {
  std::vector<std::pair<ImageEntry, std::vector<uint8_t>>> out;
  std::vector<PaperImageSpec> specs = PaperImageSpecs();
  for (int i = 0; i < images; ++i) {
    PaperImageSpec spec = specs[static_cast<size_t>(i) % specs.size()];
    int replica = i / static_cast<int>(specs.size());
    spec.firmware.program.seed = SeedFor(seed, static_cast<uint64_t>(i));
    auto fw = BuildPaperImage(spec);
    if (!fw.ok()) {
      std::fprintf(stderr, "synth failed: %s\n",
                   fw.status().ToString().c_str());
      std::exit(1);
    }
    const FirmwareFile* file = fw->image.FindFile(spec.firmware.binary_path);
    ImageEntry e;
    e.label = spec.firmware.vendor + " " + spec.firmware.product + " #" +
              std::to_string(replica);
    e.binary_path = spec.firmware.binary_path;
    e.focus = spec.focus;
    e.truth = std::move(fw->ground_truth);
    out.emplace_back(std::move(e), file->bytes);
  }
  return out;
}

/// The fleet shared by fleet_cold and fleet_warm: packed firmware, both
/// arches, one image in ten built with encrypted/unknown packing (it
/// must fail to unpack), compute-dense fillers, and 0-3 plants of the
/// five patterns the default eager mode detects, half with a sanitized
/// twin.
std::vector<std::pair<ImageEntry, std::vector<uint8_t>>> Fleet(uint64_t seed,
                                                               int images) {
  static const VulnPattern kPatterns[] = {
      VulnPattern::kDirect, VulnPattern::kWrapper, VulnPattern::kAliasChain,
      VulnPattern::kDispatch, VulnPattern::kLoopCopy};
  static const std::pair<const char*, const char*> kFlows[] = {
      {"getenv", "system"}, {"recv", "strcpy"}, {"read", "memcpy"},
      {"websGetVar", "system"}};
  static const char* kVendors[] = {"D-Link", "Netgear", "TP-Link",
                                   "Tenda",  "Zyxel",   "Linksys"};
  Rng rng(seed);
  size_t pattern_cursor = rng.Below(std::size(kPatterns));
  std::vector<std::pair<ImageEntry, std::vector<uint8_t>>> out;
  for (int i = 0; i < images; ++i) {
    FirmwareSpec spec;
    spec.vendor = kVendors[rng.Below(std::size(kVendors))];
    spec.product = "FW-" + std::to_string(1000 + rng.Below(9000));
    spec.version = "1." + std::to_string(rng.Below(20));
    spec.binary_path = "/usr/sbin/httpd";
    bool unextractable = i % 10 == 9;
    if (unextractable) {
      spec.packing = (i / 10) % 2 ? Packing::kUnknown : Packing::kEncrypted;
    } else {
      spec.packing = rng.Chance(0.5) ? Packing::kXor : Packing::kPlain;
    }
    ProgramSpec& prog = spec.program;
    prog.name = "httpd";
    prog.arch = i % 2 ? Arch::kDtMips : Arch::kDtArm;
    prog.seed = rng.Next();
    prog.filler_functions = 8 + 4 * (i % 4);
    prog.filler_min_blocks = 18;
    prog.filler_max_blocks = 44;
    prog.filler_alu_burst = 192;
    int plants = (i / 2) % 4;
    for (int p = 0; p < plants; ++p) {
      PlantSpec plant;
      plant.id = "p" + std::to_string(p);
      plant.pattern = kPatterns[pattern_cursor++ % std::size(kPatterns)];
      if (plant.pattern == VulnPattern::kLoopCopy) {
        plant.source = rng.Chance(0.5) ? "recv" : "read";
        plant.sink = "loop";
      } else if (plant.pattern == VulnPattern::kDispatch) {
        plant.source = "recv";
        plant.sink = "memcpy";
      } else if (plant.pattern == VulnPattern::kAliasChain) {
        // The alias shape parks a received buffer in a struct field, so
        // it needs a buffer-filling source (as in the paper images).
        static const char* kAliasSinks[] = {"system", "strcpy", "memcpy"};
        plant.source = "recv";
        plant.sink = kAliasSinks[rng.Below(std::size(kAliasSinks))];
      } else {
        const auto& flow = kFlows[rng.Below(std::size(kFlows))];
        plant.source = flow.first;
        plant.sink = flow.second;
      }
      prog.plants.push_back(plant);
      if ((i + p) % 2 == 0) {
        plant.id += "_safe";
        plant.sanitized = true;
        prog.plants.push_back(std::move(plant));
      }
    }
    auto fw = SynthesizeFirmware(spec);
    if (!fw.ok()) {
      std::fprintf(stderr, "synth failed: %s\n",
                   fw.status().ToString().c_str());
      std::exit(1);
    }
    ImageEntry e;
    e.label = spec.vendor + " " + spec.product + " #" + std::to_string(i);
    e.packed = true;
    e.unextractable = unextractable;
    e.binary_path = spec.binary_path;
    e.truth = std::move(fw->ground_truth);
    out.emplace_back(std::move(e), FirmwarePacker::Pack(fw->image));
  }
  return out;
}

int CmdSynth(const Args& args) {
  std::string kind = Need(args, "corpus");
  uint64_t seed = std::strtoull(Need(args, "seed").c_str(), nullptr, 10);
  int images = static_cast<int>(Opt(args, "images", 0));
  fs::path dir = Need(args, "out");
  if (images <= 0) {
    std::fprintf(stderr, "perfbench: --images must be positive\n");
    return 2;
  }
  double cpu0 = CpuMs();
  std::vector<std::pair<ImageEntry, std::vector<uint8_t>>> corpus;
  if (kind == "paper_six") {
    corpus = PaperSix(seed, images);
  } else if (kind == "fleet") {
    corpus = Fleet(seed, images);
  } else {
    std::fprintf(stderr, "perfbench: unknown corpus %s\n", kind.c_str());
    return 2;
  }
  fs::create_directories(dir);
  Fingerprint128 fp;
  JsonBuilder json;
  json.BeginObject();
  json.Key("images");
  json.BeginArray();
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto& [entry, blob] = corpus[i];
    char name[32];
    std::snprintf(name, sizeof(name), "img_%04zu.bin", i);
    entry.file = name;
    AppendEntry(json, entry);
    fp.Mix(std::span<const uint8_t>(blob));
    std::string_view bytes(reinterpret_cast<const char*>(blob.data()),
                           blob.size());
    if (!WriteFile(dir / name, bytes)) return 1;
  }
  json.EndArray();
  json.EndObject();
  std::string manifest = std::move(json).Take();
  fp.Mix(manifest);
  if (!WriteFile(dir / "manifest.json", manifest)) return 1;
  double seconds = (CpuMs() - cpu0) / 1e3;
  std::printf("{\"seconds\": %.6f, \"fingerprint\": \"%s\", \"images\": %zu}\n",
              seconds, fp.Digest().ToHex().c_str(), corpus.size());
  return 0;
}

// ---------------------------------------------------------------------
// Scanning.

/// Layers timed by the staged (traced) run, in call order.
enum Layer : size_t {
  kExtract,
  kLoad,
  kLift,
  kFilter,
  kCallgraph,
  kPass1,
  kPass2,
  kStructsim,
  kSinkCount,
  kPathfind,
  kSanitize,
  kLayerCount
};
constexpr const char* kLayerNames[kLayerCount] = {
    "extract.ms",        "load.ms",           "lift.ms",
    "filter.ms",         "callgraph.ms",      "bottomup.pass1_ms",
    "bottomup.pass2_ms", "structsim.ms",      "pathfind.sinkcount_ms",
    "pathfind.ms",       "sanitize.ms"};

/// Registry counters the staged run reads as per-image deltas.
constexpr const char* kRegistryCounters[] = {
    "engine.state_forks", "engine.block_memo_hits",
    "engine.block_memo_lookups", "intern.nodes",
    "cache.hits",         "cache.misses",
    "cache.stores"};

using LayerMs = std::array<double, kLayerCount>;

/// Runs `f` and adds its CPU time to `slot` (the span of one layer
/// call). Works for void and value-returning calls alike.
template <typename F>
auto Timed(double& slot, F&& f) {
  struct AddOnExit {
    double& slot;
    double cpu0;
    ~AddOnExit() { slot += CpuMs() - cpu0; }
  } add{slot, CpuMs()};
  return f();
}

struct ImageRecord {
  std::string status = "failed";  // ok | unextractable | failed
  std::string error;
  double ms = 0.0;       // CPU ms, first layer call to findings
  double wall_ms = 0.0;  // the same interval in wall-clock ms
  double task_ms = 0.0;  // wall ms of the whole worker task body
  uint64_t functions = 0;
  std::string digest;
  uint64_t tp = 0, fp = 0, fn = 0;
  std::string missed;  // ids of vulnerable plants not found
  uint64_t cache_hits = 0, cache_misses = 0;
  long rss_kb = 0;
  LayerMs layers{};
  std::map<std::string, double> counts;  // staged run only
};

std::string RecordToJson(const ImageRecord& r) {
  JsonBuilder json;
  json.BeginObject();
  json.Key("status");
  json.String(r.status);
  json.Key("error");
  json.String(r.error);
  json.Key("ms");
  json.Number(r.ms);
  json.Key("wall_ms");
  json.Number(r.wall_ms);
  json.Key("task_ms");
  json.Number(r.task_ms);
  json.Key("functions");
  json.Number(r.functions);
  json.Key("digest");
  json.String(r.digest);
  json.Key("tp");
  json.Number(r.tp);
  json.Key("fp");
  json.Number(r.fp);
  json.Key("fn");
  json.Number(r.fn);
  json.Key("missed");
  json.String(r.missed);
  json.Key("cache_hits");
  json.Number(r.cache_hits);
  json.Key("cache_misses");
  json.Number(r.cache_misses);
  json.Key("rss_kb");
  json.Number(static_cast<uint64_t>(r.rss_kb));
  json.Key("layers");
  json.BeginObject();
  for (size_t l = 0; l < kLayerCount; ++l) {
    json.Key(kLayerNames[l]);
    json.Number(r.layers[l]);
  }
  json.EndObject();
  json.Key("counts");
  json.BeginObject();
  for (const auto& [name, value] : r.counts) {
    json.Key(name);
    json.Number(value);
  }
  json.EndObject();
  json.EndObject();
  return std::move(json).Take();
}

ImageRecord RecordFromJson(const JsonValue& obj) {
  ImageRecord r;
  r.status = Str(obj, "status");
  r.error = Str(obj, "error");
  r.ms = Num(obj, "ms");
  r.wall_ms = Num(obj, "wall_ms");
  r.task_ms = Num(obj, "task_ms");
  r.functions = static_cast<uint64_t>(Num(obj, "functions"));
  r.digest = Str(obj, "digest");
  r.tp = static_cast<uint64_t>(Num(obj, "tp"));
  r.fp = static_cast<uint64_t>(Num(obj, "fp"));
  r.fn = static_cast<uint64_t>(Num(obj, "fn"));
  r.missed = Str(obj, "missed");
  r.cache_hits = static_cast<uint64_t>(Num(obj, "cache_hits"));
  r.cache_misses = static_cast<uint64_t>(Num(obj, "cache_misses"));
  r.rss_kb = static_cast<long>(Num(obj, "rss_kb"));
  if (const JsonValue* layers = obj.Find("layers")) {
    for (size_t l = 0; l < kLayerCount; ++l) {
      r.layers[l] = Num(*layers, kLayerNames[l]);
    }
  }
  if (const JsonValue* counts = obj.Find("counts")) {
    for (const auto& [name, value] : counts->object()) {
      r.counts[name] = value.number();
    }
  }
  return r;
}

/// Findings digest + detection score, filled in after the timed window.
void Finish(ImageRecord& r, const ImageEntry& e,
            const std::vector<Finding>& findings) {
  r.digest = Fingerprint128().Mix(FindingsToJson(findings)).Digest().ToHex();
  DetectionScore score = ScoreFindings(findings, e.truth);
  r.tp = score.true_positives;
  r.fp = score.false_positives + score.safe_twin_hits;
  r.fn = score.false_negatives;
  r.missed = Join(score.missed_ids, ",");
}

/// Extraction step shared by both modes. Returns the bytes to load, or
/// nullopt after filling `r` (unextractable as built, or failed).
std::optional<std::span<const uint8_t>> Unpack(
    const ImageEntry& e, const Result<ExtractionResult>& extracted,
    ImageRecord& r) {
  if (!extracted.ok()) {
    bool expected = e.unextractable &&
                    extracted.status().code() == StatusCode::kUnsupported;
    r.status = expected ? "unextractable" : "failed";
    if (!expected) r.error = "extract: " + extracted.status().ToString();
    return std::nullopt;
  }
  if (e.unextractable) {
    r.error = "extract: image built to be unextractable was unpacked";
    return std::nullopt;
  }
  const FirmwareFile* file = extracted->image.FindFile(e.binary_path);
  if (!file) {
    r.error = "extract: no " + e.binary_path + " in image";
    return std::nullopt;
  }
  return std::span<const uint8_t>(file->bytes);
}

/// Untraced run: the library's facade, as a user calls it.
ImageRecord ScanFacade(const ImageEntry& e, std::span<const uint8_t> blob,
                       const DTaintConfig& config) {
  ImageRecord r;
  double cpu0 = CpuMs();
  Clock::time_point t0 = Clock::now();
  std::optional<Result<ExtractionResult>> extracted;
  std::span<const uint8_t> bytes = blob;
  if (e.packed) {
    extracted.emplace(FirmwareExtractor::Extract(blob, e.label));
    auto unpacked = Unpack(e, *extracted, r);
    if (!unpacked) return r;
    bytes = *unpacked;
  }
  auto binary = BinaryLoader::Load(bytes, e.label);
  if (!binary.ok()) {
    r.error = "load: " + binary.status().ToString();
    return r;
  }
  DTaint detector(config);
  auto report = e.focus.empty() ? detector.Analyze(*binary)
                                : detector.AnalyzeFunctions(*binary, e.focus);
  r.ms = CpuMs() - cpu0;
  r.wall_ms = MsSince(t0);
  if (!report.ok()) {
    r.error = "analyze: " + report.status().ToString();
    return r;
  }
  r.functions = report->analyzed_functions;
  r.cache_hits = report->interproc_stats.cache_hits;
  r.cache_misses = report->interproc_stats.cache_misses;
  Finish(r, e, report->findings);
  if (!report->complete) {
    r.error = "analyze: incomplete report";
    return r;
  }
  r.status = "ok";
  return r;
}

/// DTaint::AnalyzeFunctions' focus filter: keep the named functions,
/// their direct-call closure, and (with structsim) every address-taken
/// function.
void ApplyFocus(Program& program, const std::vector<std::string>& only,
                bool keep_address_taken) {
  if (only.empty()) return;
  std::set<std::string> keep;
  std::vector<std::string> work(only.begin(), only.end());
  if (keep_address_taken) {
    for (const std::string& name : AddressTakenFunctions(program)) {
      work.push_back(name);
    }
  }
  while (!work.empty()) {
    std::string name = std::move(work.back());
    work.pop_back();
    if (!program.functions.count(name)) continue;
    if (!keep.insert(name).second) continue;
    for (const CallSite& cs : program.functions.at(name).callsites) {
      if (!cs.is_indirect && !cs.target_is_import && !cs.target_name.empty()) {
        work.push_back(cs.target_name);
      }
    }
  }
  for (auto it = program.functions.begin(); it != program.functions.end();) {
    if (!keep.count(it->first)) {
      program.fn_by_addr.erase(it->second.addr);
      it = program.functions.erase(it);
    } else {
      ++it;
    }
  }
}

/// Traced run: each layer's public entry point, called in the order of
/// DTaint::AnalyzeFunctions, with a span around every call. The findings
/// digest must equal the facade's (checked by run.py).
ImageRecord ScanStaged(const ImageEntry& e, std::span<const uint8_t> blob,
                       const DTaintConfig& config) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::MetricsSnapshot before = registry.Snapshot();
  ImageRecord r;
  LayerMs& ms = r.layers;
  auto& counts = r.counts;
  std::vector<Finding> findings;
  bool complete = true;

  double cpu0 = CpuMs();
  Clock::time_point t0 = Clock::now();
  std::optional<Result<ExtractionResult>> extracted;
  std::span<const uint8_t> bytes = blob;
  if (e.packed) {
    extracted.emplace(Timed(ms[kExtract], [&] {
      return FirmwareExtractor::Extract(blob, e.label);
    }));
    auto unpacked = Unpack(e, *extracted, r);
    if (!unpacked) {
      if (r.status == "unextractable") counts["extract.unextractable"] = 1;
      return r;
    }
    bytes = *unpacked;
  }
  auto binary =
      Timed(ms[kLoad], [&] { return BinaryLoader::Load(bytes, e.label); });
  if (!binary.ok()) {
    r.error = "load: " + binary.status().ToString();
    return r;
  }
  CfgBuilder builder(*binary);
  auto program_or = Timed(ms[kLift], [&] { return builder.BuildProgram(); });
  if (!program_or.ok()) {
    r.error = "lift: " + program_or.status().ToString();
    return r;
  }
  Program program = std::move(*program_or);
  complete = complete && program.lift_failures.empty();
  size_t lifted = program.functions.size();
  counts["lift.functions"] = static_cast<double>(lifted);
  counts["lift.blocks"] = static_cast<double>(program.TotalBlocks());
  Timed(ms[kFilter],
        [&] { ApplyFocus(program, e.focus, config.enable_structsim); });
  r.functions = program.functions.size();
  counts["filter.functions_dropped"] =
      static_cast<double>(lifted - program.functions.size());

  SymEngine engine(*binary, config.engine);
  InterprocConfig interproc = config.interproc;
  interproc.apply_alias = config.enable_alias;
  auto bottom_up = [&](Layer pass) {
    CallGraph graph =
        Timed(ms[kCallgraph], [&] { return CallGraph::Build(program); });
    ProgramAnalysis analysis = Timed(
        ms[pass], [&] { return RunBottomUp(program, graph, engine, interproc); });
    counts["bottomup.passes"] += 1;
    counts["summary.functions"] +=
        static_cast<double>(analysis.stats.functions_processed);
    counts["link.defs_propagated"] +=
        static_cast<double>(analysis.stats.defs_propagated);
    return analysis;
  };
  ProgramAnalysis analysis = bottom_up(kPass1);
  if (config.enable_structsim) {
    auto resolutions = Timed(ms[kStructsim], [&] {
      return ResolveIndirectCalls(program, analysis.summaries,
                                  analysis.alias_oracle.get());
    });
    counts["structsim.resolved"] = static_cast<double>(resolutions.size());
    if (!resolutions.empty()) analysis = bottom_up(kPass2);
  }
  complete = complete && analysis.stats.incidents.empty() &&
             analysis.stats.degraded_functions == 0;

  PathFinder finder(program, analysis, config.pathfinder);
  Timed(ms[kSinkCount], [&] { return finder.SinkCount(); });
  std::vector<TaintPath> paths =
      Timed(ms[kPathfind], [&] { return finder.FindAll(); });
  const PathFinderStats& stats = finder.stats();
  counts["pathfind.sinks_visited"] = static_cast<double>(stats.sinks_visited);
  counts["pathfind.paths_explored"] =
      static_cast<double>(stats.paths_explored);
  counts["sanitize.paths_in"] = static_cast<double>(paths.size());
  complete = complete && stats.pruned_by_depth == 0;
  std::vector<TaintPath> vulnerable = Timed(
      ms[kSanitize], [&] { return FilterVulnerable(std::move(paths)); });
  counts["sanitize.paths_kept"] = static_cast<double>(vulnerable.size());
  for (TaintPath& path : vulnerable) {
    if (path.crossed_degraded) {
      complete = false;
      continue;
    }
    findings.push_back({std::move(path)});
  }
  ExprInterner::Global().PublishMetrics();
  r.ms = CpuMs() - cpu0;
  r.wall_ms = MsSince(t0);

  obs::MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);
  for (const char* name : kRegistryCounters) {
    counts[name] = static_cast<double>(delta.CounterValue(name));
  }
  r.cache_hits = delta.CounterValue("cache.hits");
  r.cache_misses = delta.CounterValue("cache.misses");
  Finish(r, e, findings);
  if (!complete) {
    r.error = "analyze: incomplete report";
    return r;
  }
  r.status = "ok";
  return r;
}

int CmdScan(const Args& args) {
  fs::path dir = Need(args, "dir");
  std::string mode = Need(args, "mode");
  fs::path out_path = Need(args, "out");
  int workers = static_cast<int>(Opt(args, "workers", 0));
  if (mode != "facade" && mode != "staged") {
    std::fprintf(stderr, "perfbench: unknown mode %s\n", mode.c_str());
    return 2;
  }
  auto corpus = LoadCorpus(dir);
  if (!corpus.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  std::optional<SummaryCache> cache;
  if (args.count("cache-dir")) {
    CacheConfig cache_config;
    cache_config.disk_dir = args.at("cache-dir");
    cache.emplace(cache_config);
  }
  DTaintConfig config;
  config.interproc.num_threads = static_cast<int>(Opt(args, "threads", 1));
  if (cache) config.interproc.cache = &*cache;
  const size_t images = corpus->entries.size();
  auto scan = [&](size_t i) {
    const ImageEntry& e = corpus->entries[i];
    const std::vector<uint8_t>& blob = corpus->blobs[i];
    return mode == "staged" ? ScanStaged(e, blob, config)
                            : ScanFacade(e, blob, config);
  };

  std::vector<ImageRecord> records;
  SupervisorStats sup_stats;
  double cpu0 = CpuMs();
  double children_cpu0 = ChildrenCpuMs();
  Clock::time_point t0 = Clock::now();
  if (workers > 0) {
    SupervisorConfig sup_config;
    sup_config.workers = workers;
    sup_config.max_retries = 0;  // a failed worker is a failed image
    ScanSupervisor supervisor(sup_config);
    std::vector<TaskSpec> tasks;
    for (size_t i = 0; i < images; ++i) {
      TaskSpec task;
      task.label = corpus->entries[i].label;
      task.fingerprint = Fingerprint128()
                             .Mix(std::span<const uint8_t>(corpus->blobs[i]))
                             .Digest()
                             .ToHex();
      tasks.push_back(std::move(task));
    }
    std::vector<TaskResult> results =
        supervisor.Run(tasks, [&](size_t i, const AnalysisBudget&) {
          Clock::time_point task_t0 = Clock::now();
          ImageRecord r = scan(i);
          r.rss_kb = MaxRssKb();
          r.task_ms = MsSince(task_t0);
          ScanOutcome outcome;
          outcome.status = r.status == "failed" ? "failed" : r.status;
          outcome.row = RecordToJson(r);
          return outcome;
        });
    sup_stats = supervisor.stats();
    for (const TaskResult& result : results) {
      ImageRecord r;
      auto parsed = ParseJson(result.outcome.row);
      if (result.state != TaskResult::State::kDone || result.in_process) {
        r.error = "supervisor: worker failed or ran in-process";
      } else if (!parsed.ok()) {
        r.error = "supervisor: bad record";
      } else {
        r = RecordFromJson(*parsed);
      }
      records.push_back(std::move(r));
    }
  } else {
    for (size_t i = 0; i < images; ++i) records.push_back(scan(i));
  }
  double wall_s = MsSince(t0) / 1e3;
  // Workers are reaped by Run, so their CPU time is in RUSAGE_CHILDREN.
  double cpu_s = (CpuMs() - cpu0 + ChildrenCpuMs() - children_cpu0) / 1e3;
  long rss_kb = MaxRssKb();

  JsonBuilder json;
  json.BeginObject();
  json.Key("wall_s");
  json.Number(wall_s);
  json.Key("cpu_s");
  json.Number(cpu_s);
  json.Key("rss_kb");
  json.Number(static_cast<uint64_t>(rss_kb));
  json.Key("workers_spawned");
  json.Number(sup_stats.workers_spawned);
  json.Key("labels");
  json.BeginArray();
  for (const ImageEntry& e : corpus->entries) json.String(e.label);
  json.EndArray();
  json.Key("images");
  json.BeginArray();
  for (const ImageRecord& r : records) json.Raw(RecordToJson(r));
  json.EndArray();
  json.EndObject();
  return WriteFile(out_path, std::move(json).Take()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cmd = argc > 1 ? argv[1] : "";
  Args args = ParseArgs(argc, argv);
  if (cmd == "synth") return CmdSynth(args);
  if (cmd == "scan") return CmdScan(args);
  std::fprintf(stderr,
               "usage: perfbench synth --corpus paper_six|fleet --seed S "
               "--images N --out DIR\n"
               "       perfbench scan --dir DIR --mode facade|staged --out "
               "FILE [--threads T] [--cache-dir C] [--workers W]\n");
  return 2;
}

// dtaint_cli: a command-line front end over the library, operating on
// files — the shape of tool a firmware-security team would actually
// run in CI.
//
//   dtaint_cli synth <out.dtfw> [--arch arm|mips] [--seed N]
//              [--vulns K] [--safe K] [--packing plain|xor|encrypted]
//   dtaint_cli extract <image.dtfw>
//   dtaint_cli inspect <image.dtfw> [function]
//   dtaint_cli scan <image.dtfw> [--json] [--no-alias]
//              [--alias-mode eager|ondemand] [--no-structsim]
//              [--threads N] [--cache-dir DIR]
//              [--deadline-ms MS] [--max-steps N] [--max-states N]
//              [--max-expr-nodes N] [--fail-fast]
//
// --alias-mode selects how pointer aliases are recognized: "eager"
// (the paper's Algorithm 1, summaries rewritten up front) or
// "ondemand" (lazy SSE comparison against linked summaries, which
// also resolves indirect calls through cross-call registration
// stores). Summaries cache separately per mode, so switching modes
// against the same --cache-dir is safe.
//
// Budget flags bound per-function analysis effort (0 = unlimited); a
// function that exhausts its budget degrades to a conservative summary
// and the scan continues, flagging the report "complete": false.
// --fail-fast makes an incomplete analysis exit nonzero (exit 4), for
// CI jobs that want "no findings" to actually mean "nothing found".
//
// Observability flags (accepted by every command):
//   --log-level error|warn|info|debug   stderr log threshold (warn)
//   --trace-out FILE    streamed Chrome trace of the pipeline's spans
//                       (JSON Array Format, crash-tolerant: append `]`
//                       to recover a killed run's file; loads in
//                       chrome://tracing or Perfetto)
//   --metrics-out FILE  metrics-registry snapshot as JSON
//   --events-out FILE   NDJSON scan event stream (schema v1, see
//                       src/obs/events.h); a flight-recorder dump of
//                       the most recent events lands next to it at
//                       FILE.flight.ndjson on incident or fatal
//                       signal. Aggregate with tools/scan_report.
//
// --cache-dir enables the persistent function-summary cache: summaries
// are stored content-addressed under DIR and re-used by later scans of
// unchanged functions (identical findings, much faster re-scan).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/binary/loader.h"
#include "src/cache/summary_cache.h"
#include "src/core/dtaint.h"
#include "src/firmware/extractor.h"
#include "src/firmware/packer.h"
#include "src/ir/printer.h"
#include "src/lifter/lifter.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/report/json.h"
#include "src/symexec/symstate.h"
#include "src/synth/firmware_synth.h"
#include "src/util/strings.h"

using namespace dtaint;

namespace {

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int CmdSynth(int argc, char** argv) {
  if (argc < 1) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "synth: missing output path");
    return 2;
  }
  FirmwareSpec spec;
  spec.vendor = "Acme";
  spec.product = "RT-9000";
  spec.version = "1.0";
  spec.binary_path = "/bin/httpd";
  spec.program.name = "httpd";
  spec.program.filler_functions = 80;
  if (const char* arch = FlagValue(argc, argv, "--arch")) {
    spec.program.arch =
        std::strcmp(arch, "mips") == 0 ? Arch::kDtMips : Arch::kDtArm;
  }
  if (const char* seed = FlagValue(argc, argv, "--seed")) {
    spec.program.seed = std::strtoull(seed, nullptr, 10);
  }
  if (const char* packing = FlagValue(argc, argv, "--packing")) {
    if (std::strcmp(packing, "xor") == 0) spec.packing = Packing::kXor;
    if (std::strcmp(packing, "encrypted") == 0) {
      spec.packing = Packing::kEncrypted;
    }
  }
  int vulns = 2, safe = 1;
  if (const char* v = FlagValue(argc, argv, "--vulns")) vulns = atoi(v);
  if (const char* s = FlagValue(argc, argv, "--safe")) safe = atoi(s);

  const VulnPattern patterns[] = {
      VulnPattern::kDirect, VulnPattern::kWrapper, VulnPattern::kAliasChain,
      VulnPattern::kLoopCopy, VulnPattern::kDispatch};
  for (int i = 0; i < vulns + safe; ++i) {
    PlantSpec p;
    p.id = "plant" + std::to_string(i);
    p.pattern = patterns[i % 5];
    switch (p.pattern) {
      case VulnPattern::kLoopCopy:
        p.source = "recv";
        p.sink = "loop";
        break;
      case VulnPattern::kDispatch:
        p.source = "recv";
        p.sink = "memcpy";
        break;
      case VulnPattern::kAliasChain:
        p.source = "recv";
        p.sink = "strcpy";
        break;
      default:
        p.source = i % 2 ? "getenv" : "recv";
        p.sink = i % 2 ? "system" : "memcpy";
    }
    p.sanitized = i >= vulns;
    spec.program.plants.push_back(std::move(p));
  }

  auto fw = SynthesizeFirmware(spec);
  if (!fw.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "synth failed: %s",
               fw.status().ToString().c_str());
    return 1;
  }
  std::vector<uint8_t> blob = FirmwarePacker::Pack(fw->image);
  if (!WriteFile(argv[0], blob)) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "cannot write %s", argv[0]);
    return 1;
  }
  std::printf("wrote %s: %zu bytes, %d vulnerable + %d sanitized "
              "plants, packing=%s\n",
              argv[0], blob.size(), vulns, safe,
              std::string(PackingName(spec.packing)).c_str());
  return 0;
}

Result<Binary> LoadFirstBinary(const std::string& path,
                               bool print_rootfs = false) {
  std::vector<uint8_t> blob = ReadFile(path);
  if (blob.empty()) return NotFound("cannot read " + path);
  // Accept either a firmware image or a bare DTBIN binary.
  if (BinaryLoader::LooksLikeBinary(blob)) {
    return BinaryLoader::Load(blob, path);
  }
  auto extracted = FirmwareExtractor::Extract(blob, path);
  if (!extracted.ok()) return extracted.status();
  if (print_rootfs) {
    std::printf("%s %s v%s (%u), %zu files:\n",
                extracted->image.vendor.c_str(),
                extracted->image.product.c_str(),
                extracted->image.version.c_str(),
                extracted->image.release_year,
                extracted->image.files.size());
    for (const FirmwareFile& f : extracted->image.files) {
      std::printf("  %-26s %7zu bytes%s\n", f.path.c_str(), f.bytes.size(),
                  BinaryLoader::LooksLikeBinary(f.bytes)
                      ? "  [executable]"
                      : "");
    }
  }
  if (extracted->executable_paths.empty()) {
    return NotFound(path + ": no executables in image");
  }
  const std::string& exec_path = extracted->executable_paths[0];
  return BinaryLoader::Load(extracted->image.FindFile(exec_path)->bytes,
                            path + ":" + exec_path);
}

int CmdExtract(int argc, char** argv) {
  if (argc < 1) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "extract: missing image path");
    return 2;
  }
  auto binary = LoadFirstBinary(argv[0], /*print_rootfs=*/true);
  if (!binary.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "extract failed: %s",
               binary.status().ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdInspect(int argc, char** argv) {
  if (argc < 1) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "inspect: missing image path");
    return 2;
  }
  auto binary = LoadFirstBinary(argv[0]);
  if (!binary.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "inspect failed: %s",
               binary.status().ToString().c_str());
    return 1;
  }
  CfgBuilder builder(*binary);
  auto program = builder.BuildProgram();
  if (!program.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "cfg failed: %s",
               program.status().ToString().c_str());
    return 1;
  }
  std::printf("%s (%s): %zu functions, %zu blocks, %zu call edges, "
              "%zu imports\n",
              binary->soname.c_str(),
              std::string(ArchName(binary->arch)).c_str(),
              program->functions.size(), program->TotalBlocks(),
              program->CallEdgeCount(), binary->imports.size());
  if (argc >= 2) {
    const Function* fn = program->FindFunction(argv[1]);
    if (!fn) {
      DTAINT_LOG(obs::LogLevel::kError, "cli", "no such function: %s",
                 argv[1]);
      return 1;
    }
    std::printf("\n%s @ %s, %zu blocks:\n\n", fn->name.c_str(),
                HexStr(fn->addr).c_str(), fn->blocks.size());
    auto ir = Lifter(*binary).LiftFunction(*fn);
    if (!ir.ok()) {
      DTAINT_LOG(obs::LogLevel::kError, "cli", "lift %s: %s", argv[1],
                 ir.status().ToString().c_str());
      return 1;
    }
    for (const auto& [addr, block] : ir->blocks) {
      std::printf("%s", PrintBlockWithDisasm(*binary, block).c_str());
    }
    if (HasFlag(argc, argv, "--summary")) {
      SymEngine engine(*binary);
      std::printf("\n%s", SummaryToString(engine.Analyze(*fn)).c_str());
    }
  } else {
    std::printf("functions:\n");
    int shown = 0;
    for (const auto& [name, fn] : program->functions) {
      std::printf("  %s  %-28s %3zu blocks, %2zu calls\n",
                  HexStr(fn.addr).c_str(), name.c_str(),
                  fn.blocks.size(), fn.callsites.size());
      if (++shown == 40) {
        std::printf("  ... (%zu more)\n", program->functions.size() - 40);
        break;
      }
    }
  }
  return 0;
}

int CmdScan(int argc, char** argv) {
  if (argc < 1) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "scan: missing image path");
    return 2;
  }
  auto binary = LoadFirstBinary(argv[0]);
  if (!binary.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "scan failed: %s",
               binary.status().ToString().c_str());
    return 1;
  }
  DTaintConfig config;
  config.enable_alias = !HasFlag(argc, argv, "--no-alias");
  config.enable_structsim = !HasFlag(argc, argv, "--no-structsim");
  // Escape hatch: run exploration on the legacy deep-copying symbolic
  // state (reports are byte-identical either way — the differential
  // oracle pins it; this exists for A/B timing and bisection).
  if (HasFlag(argc, argv, "--legacy-state")) SetStateCow(false);
  if (const char* mode = FlagValue(argc, argv, "--alias-mode")) {
    if (!ParseAliasMode(mode, &config.interproc.alias_mode)) {
      DTAINT_LOG(obs::LogLevel::kError, "cli",
                 "bad --alias-mode: %s (want eager|ondemand)", mode);
      return 2;
    }
  }
  if (const char* threads = FlagValue(argc, argv, "--threads")) {
    config.interproc.num_threads = atoi(threads);
  }
  if (const char* v = FlagValue(argc, argv, "--deadline-ms")) {
    config.interproc.budget.deadline_ms = atof(v);
  }
  if (const char* v = FlagValue(argc, argv, "--max-steps")) {
    config.interproc.budget.max_steps = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--max-states")) {
    config.interproc.budget.max_states = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--max-expr-nodes")) {
    config.interproc.budget.max_expr_nodes = std::strtoull(v, nullptr, 10);
  }
  std::optional<SummaryCache> cache;
  if (const char* dir = FlagValue(argc, argv, "--cache-dir")) {
    CacheConfig cache_config;
    cache_config.disk_dir = dir;
    cache.emplace(cache_config);
    config.interproc.cache = &*cache;
  }
  DTaint detector(config);
  auto report = detector.Analyze(*binary);
  if (!report.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "analysis failed: %s",
               report.status().ToString().c_str());
    return 1;
  }
  if (HasFlag(argc, argv, "--json")) {
    std::printf("%s\n", ReportToJson(*report).c_str());
  } else {
    std::printf("%s: %zu functions, %zu sinks, %.2fs; %zu vulnerable "
                "path(s)%s\n",
                report->binary_name.c_str(), report->analyzed_functions,
                report->sink_count, report->total_seconds,
                report->findings.size(),
                report->complete ? "" : "  [INCOMPLETE]");
    for (const Incident& inc : report->incidents) {
      std::printf("  incident: %s\n", inc.ToString().c_str());
    }
    for (size_t i = 0; i < report->findings.size(); ++i) {
      std::printf("[%zu] %s\n", i + 1,
                  report->findings[i].Summary().c_str());
      for (const PathHop& hop : report->findings[i].path.hops) {
        std::printf("     %-20s %s  %s\n", hop.function.c_str(),
                    HexStr(hop.site).c_str(), hop.note.c_str());
      }
    }
  }
  if (cache) {
    CacheStats cs = cache->stats();
    // Logged (not printed) so `--json` stdout stays machine-parseable.
    DTAINT_LOG(obs::LogLevel::kInfo, "cli",
               "summary cache: %zu hit(s), %zu miss(es), %zu from disk, "
               "%zu corrupt, %zu stored",
               cs.hits, cs.misses, cs.disk_hits, cs.corrupt_entries,
               cs.stores);
  }
  if (HasFlag(argc, argv, "--fail-fast") && !report->complete) {
    DTAINT_LOG(obs::LogLevel::kError, "cli",
               "analysis incomplete (%zu incident(s), %zu degraded "
               "function(s), %zu suppressed finding(s)) and --fail-fast set",
               report->incidents.size(), report->degraded_functions,
               report->suppressed_findings);
    return 4;
  }
  return report->findings.empty() ? 0 : 3;  // CI-friendly exit code
}

int Dispatch(int argc, char** argv) {
  std::string cmd = argv[1];
  if (cmd == "synth") return CmdSynth(argc - 2, argv + 2);
  if (cmd == "extract") return CmdExtract(argc - 2, argv + 2);
  if (cmd == "inspect") return CmdInspect(argc - 2, argv + 2);
  if (cmd == "scan") return CmdScan(argc - 2, argv + 2);
  DTAINT_LOG(obs::LogLevel::kError, "cli", "unknown command: %s",
             cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dtaint_cli <synth|extract|inspect|scan> ...\n"
                 "  scan flags: [--json] [--no-alias]\n"
                 "       [--alias-mode eager|ondemand] [--no-structsim]\n"
                 "       [--threads N] [--cache-dir DIR] [--deadline-ms MS]\n"
                 "       [--max-steps N] [--max-states N]\n"
                 "       [--max-expr-nodes N] [--fail-fast]\n"
                 "       [--legacy-state]\n"
                 "  all commands:\n"
                 "       [--log-level error|warn|info|debug]\n"
                 "       [--trace-out FILE] [--metrics-out FILE]\n"
                 "       [--events-out FILE]\n");
    return 2;
  }
  if (const char* level_name = FlagValue(argc, argv, "--log-level")) {
    obs::LogLevel level;
    if (!obs::ParseLogLevel(level_name, &level)) {
      std::fprintf(stderr, "bad --log-level: %s\n", level_name);
      return 2;
    }
    obs::SetLogLevel(level);
  }
  const char* trace_out = FlagValue(argc, argv, "--trace-out");
  const char* metrics_out = FlagValue(argc, argv, "--metrics-out");
  const char* events_out = FlagValue(argc, argv, "--events-out");
  if (trace_out && !obs::Tracer::Global().StreamTo(trace_out)) {
    std::fprintf(stderr, "cannot open trace file %s\n", trace_out);
    return 2;
  }
  if (events_out &&
      !obs::EventStream::Global().Open(events_out, "dtaint_cli")) {
    std::fprintf(stderr, "cannot open event stream %s\n", events_out);
    return 2;
  }

  int rc = Dispatch(argc, argv);

  if (trace_out && !obs::Tracer::Global().FinishStream()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "cannot finish trace at %s",
               trace_out);
    if (rc == 0) rc = 1;
  }
  if (metrics_out) {
    std::string json = obs::MetricsRegistry::Global().ToJson();
    std::ofstream out(metrics_out, std::ios::trunc);
    out << json << '\n';
    if (!out.good()) {
      DTAINT_LOG(obs::LogLevel::kError, "cli", "cannot write metrics to %s",
                 metrics_out);
      if (rc == 0) rc = 1;
    }
  }
  obs::EventStream::Global().Close(rc == 0 || rc == 3 ? "ok" : "failed");
  return rc;
}

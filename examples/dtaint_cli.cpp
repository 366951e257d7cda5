// dtaint_cli: a command-line front end over the library, operating on
// files — the shape of tool a firmware-security team would actually
// run in CI.
//
//   dtaint_cli synth <out.dtfw> [--arch arm|mips] [--seed N]
//              [--vulns K] [--safe K] [--packing plain|xor|encrypted]
//   dtaint_cli extract <image.dtfw>
//   dtaint_cli inspect <image.dtfw> [function]
//   dtaint_cli scan <image.dtfw> [--json] [--no-alias] [--no-structsim]
//              [--threads N] [--cache-dir DIR]
//              [--deadline-ms MS] [--max-steps N] [--max-states N]
//              [--max-expr-nodes N] [--fail-fast]
//
// --no-alias turns off pointer-alias recognition (lazy SSE comparison
// against linked summaries, which also resolves indirect calls through
// cross-call registration stores). Summaries do not depend on it, so
// one --cache-dir serves scans with and without it.
//
// Budget flags bound per-function analysis effort (0 = unlimited); a
// function that exhausts its budget degrades to a conservative summary
// and the scan continues, flagging the report "complete": false.
// --max-steps counts executed IR statements, one per effect of a guest
// instruction: about one per instruction (a cmp counts two; branches,
// calls, returns and nops none).
// --fail-fast makes an incomplete analysis exit nonzero (exit 4), for
// CI jobs that want "no findings" to actually mean "nothing found".
//
// Flags are parsed by the shared FlagSet (src/core/cli_flags.h): an
// unknown flag, or a malformed or negative number, exits 2 with a
// message naming the flag.
//
// Observability flags (accepted by every command):
//   --log-level error|warn|info|debug   stderr log threshold (warn)
//   --metrics-out FILE  metrics-registry snapshot as JSON
//   --events-out FILE   NDJSON scan event stream (schema v1, see
//                       src/obs/events.h). Aggregate with
//                       tools/scan_report; `scan_report --chrome-trace
//                       OUT` converts it to a Chrome trace
//                       (chrome://tracing, Perfetto).
//
// --cache-dir enables the persistent function-summary cache: summaries
// are stored content-addressed under DIR and re-used by later scans of
// unchanged functions (identical findings, much faster re-scan).
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/binary/loader.h"
#include "src/cache/summary_cache.h"
#include "src/core/cli_flags.h"
#include "src/core/dtaint.h"
#include "src/core/scan_image.h"
#include "src/firmware/extractor.h"
#include "src/firmware/packer.h"
#include "src/ir/printer.h"
#include "src/lifter/lifter.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/report/json.h"
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

/// Every command's options; each command registers (and reads) only
/// its own.
struct CliOptions {
  // synth
  FirmwareSpec spec;
  int vulns = 2;
  int safe = 1;
  // inspect
  bool summary = false;
  // scan
  ScanFlags scan;
  bool json = false;
  bool fail_fast = false;
};

/// Registers `cmd`'s own flags; false for an unknown command.
bool AddCommandFlags(const std::string& cmd, FlagSet& flags,
                     CliOptions* opts) {
  if (cmd == "synth") {
    FirmwareSpec& spec = opts->spec;
    flags.Custom(
        "--arch",
        [&spec](const std::string& text) {
          if (text != "arm" && text != "mips") return false;
          spec.program.arch = text == "mips" ? Arch::kDtMips : Arch::kDtArm;
          return true;
        },
        "arm|mips");
    flags.Uint("--seed", &spec.program.seed);
    flags.Custom(
        "--packing",
        [&spec](const std::string& text) {
          for (Packing p : {Packing::kPlain, Packing::kXor,
                            Packing::kEncrypted}) {
            if (text == PackingName(p)) {
              spec.packing = p;
              return true;
            }
          }
          return false;
        },
        "plain|xor|encrypted");
    flags.Int("--vulns", &opts->vulns);
    flags.Int("--safe", &opts->safe);
  } else if (cmd == "inspect") {
    flags.Switch("--summary", &opts->summary);
  } else if (cmd == "scan") {
    AddScanFlags(flags, &opts->scan);
    flags.Switch("--no-alias", &opts->scan.config.enable_alias, false);
    flags.Switch("--no-structsim", &opts->scan.config.enable_structsim,
                 false);
    flags.Switch("--json", &opts->json);
    flags.Switch("--fail-fast", &opts->fail_fast);
  } else if (cmd != "extract") {
    return false;
  }
  return true;
}

int CmdSynth(const std::vector<std::string>& args, const CliOptions& opts) {
  if (args.empty()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "synth: missing output path");
    return 2;
  }
  FirmwareSpec spec = opts.spec;  // arch, seed and packing from flags
  spec.vendor = "Acme";
  spec.product = "RT-9000";
  spec.version = "1.0";
  spec.binary_path = "/bin/httpd";
  spec.program.name = "httpd";
  spec.program.filler_functions = 80;
  const int vulns = opts.vulns, safe = opts.safe;

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
  if (!WriteFile(args[0], blob)) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "cannot write %s",
               args[0].c_str());
    return 1;
  }
  std::printf("wrote %s: %zu bytes, %d vulnerable + %d sanitized "
              "plants, packing=%s\n",
              args[0].c_str(), blob.size(), vulns, safe,
              std::string(PackingName(spec.packing)).c_str());
  return 0;
}

/// The image in the file at `path`: a firmware image, unpacked, or a
/// bare DTBIN binary as a one-file image.
Result<FirmwareImage> ReadImage(const std::string& path) {
  std::vector<uint8_t> blob = ReadFile(path);
  if (blob.empty()) return NotFound("cannot read " + path);
  if (BinaryLoader::LooksLikeBinary(blob)) {
    FirmwareImage image;
    image.files.push_back({path, std::move(blob)});
    return image;
  }
  auto extracted = FirmwareExtractor::Extract(blob, path);
  if (!extracted.ok()) return extracted.status();
  return std::move(extracted->image);
}

int CmdExtract(const std::vector<std::string>& args) {
  if (args.empty()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "extract: missing image path");
    return 2;
  }
  auto image = ReadImage(args[0]);
  if (image.ok() && !image->vendor.empty()) {  // a bare binary has none
    std::printf("%s %s v%s (%u), %zu files:\n", image->vendor.c_str(),
                image->product.c_str(), image->version.c_str(),
                image->release_year, image->files.size());
    for (const FirmwareFile& f : image->files) {
      std::printf("  %-26s %7zu bytes%s\n", f.path.c_str(), f.bytes.size(),
                  BinaryLoader::LooksLikeBinary(f.bytes) ? "  [executable]"
                                                         : "");
    }
  }
  auto binary = image.ok() ? LoadImageBinary(*image, "", args[0])
                           : Result<Binary>(image.status());
  if (!binary.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "extract failed: %s",
               binary.status().ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdInspect(const std::vector<std::string>& args, const CliOptions& opts) {
  if (args.empty()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "inspect: missing image path");
    return 2;
  }
  auto image = ReadImage(args[0]);
  auto binary = image.ok() ? LoadImageBinary(*image, "", args[0])
                           : Result<Binary>(image.status());
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
  if (args.size() >= 2) {
    const Function* fn = program->FindFunction(args[1]);
    if (!fn) {
      DTAINT_LOG(obs::LogLevel::kError, "cli", "no such function: %s",
                 args[1].c_str());
      return 1;
    }
    std::printf("\n%s @ %s, %zu blocks:\n\n", fn->name.c_str(),
                HexStr(fn->addr).c_str(), fn->blocks.size());
    auto ir = Lifter(*binary).LiftFunction(*fn);
    if (!ir.ok()) {
      DTAINT_LOG(obs::LogLevel::kError, "cli", "lift %s: %s",
                 args[1].c_str(), ir.status().ToString().c_str());
      return 1;
    }
    for (const auto& [addr, block] : ir->blocks) {
      std::printf("%s", PrintBlockWithDisasm(*binary, block).c_str());
    }
    if (opts.summary) {
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

int CmdScan(const std::vector<std::string>& args, const CliOptions& opts) {
  if (args.empty()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "scan: missing image path");
    return 2;
  }
  std::vector<uint8_t> blob = ReadFile(args[0]);
  if (blob.empty()) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "scan failed: cannot read %s",
               args[0].c_str());
    return 1;
  }
  DTaintConfig config = opts.scan.config;
  std::optional<SummaryCache> cache;
  if (!opts.scan.cache_dir.empty()) {
    CacheConfig cache_config;
    cache_config.disk_dir = opts.scan.cache_dir;
    cache.emplace(cache_config);
    config.interproc.cache = &*cache;
  }
  ImageScan scan = ScanImage(blob, "", args[0], config);
  if (!scan.report) {
    DTAINT_LOG(obs::LogLevel::kError, "cli", "scan failed: %s: %s",
               scan.outcome.row.c_str(), scan.error.ToString().c_str());
    return 1;
  }
  const std::optional<AnalysisReport>& report = scan.report;
  if (opts.json) {
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
  if (opts.fail_fast && !report->complete) {
    DTAINT_LOG(obs::LogLevel::kError, "cli",
               "analysis incomplete (%zu incident(s), %zu degraded "
               "function(s), %zu suppressed finding(s)) and --fail-fast set",
               report->incidents.size(), report->degraded_functions,
               report->suppressed_findings);
    return 4;
  }
  return report->findings.empty() ? 0 : 3;  // CI-friendly exit code
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dtaint_cli <synth|extract|inspect|scan> ...\n"
                 "  scan flags: [--json] [--no-alias] [--no-structsim]\n"
                 "       [--threads N] [--cache-dir DIR] [--deadline-ms MS]\n"
                 "       [--max-steps N] [--max-states N]\n"
                 "       [--max-expr-nodes N] [--fail-fast]\n"
                 "       (a --max-steps step is one IR statement, about\n"
                 "       one executed instruction)\n"
                 "  all commands:\n"
                 "       [--log-level error|warn|info|debug]\n"
                 "       [--metrics-out FILE] [--events-out FILE]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  FlagSet flags;
  ObsFlags obs_flags;
  CliOptions opts;
  AddObsFlags(flags, &obs_flags);
  if (!AddCommandFlags(cmd, flags, &opts)) {
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  }
  std::vector<std::string> args;
  std::string error;
  if (!flags.Parse(argc - 2, argv + 2, &args, &error)) {
    std::fprintf(stderr, "dtaint_cli %s: %s\n", cmd.c_str(), error.c_str());
    return 2;
  }
  if (!obs_flags.Open("dtaint_cli", &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  int rc = cmd == "synth"     ? CmdSynth(args, opts)
           : cmd == "extract" ? CmdExtract(args)
           : cmd == "inspect" ? CmdInspect(args, opts)
                              : CmdScan(args, opts);

  if (!obs_flags.Finish() && rc == 0) rc = 1;
  obs::EventStream::Global().Close(rc == 0 || rc == 3 ? "ok" : "failed");
  return rc;
}

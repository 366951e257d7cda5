// corpus_scan: batch-audits a fleet of firmware images — the
// large-scale use case (the paper crawls 6,529 vendor images).
//
// Synthesizes a mixed corpus (several vendors/architectures, some
// encrypted images that resist extraction, varying vulnerability
// load), then runs the whole pipeline over each and prints a fleet
// report: per image the extraction outcome and findings, then vendor
// aggregates and precision/recall over the planted ground truth.
//
// Resilience: the scan never dies because one image is bad. Corrupt
// images, unloadable binaries, and budget-exhausted functions are
// recorded as incidents (phase + reason + effort counters) and the
// scan moves on; vendor-encrypted images are an *expected* limitation
// (the paper's >65% unpack-failure rate) and are tallied separately.
// Exit code scores only images whose analysis ran to completion — an
// incomplete image's missing findings are a triage item, not a
// detection failure.
//
//   --deadline-ms MS / --max-steps N / --max-states N /
//   --max-expr-nodes N   per-function analysis budget (0 = unlimited);
//                        a step is one IR statement, about one
//                        executed instruction
//   --fail-fast          stop at the first incident, exit nonzero
//   --json-out FILE      fleet report as JSON (images, incidents,
//                        totals; findings via FindingsToJson so runs
//                        are byte-comparable)
//   --corrupt K          deterministically corrupt the first K
//                        extractable images (resilience demos/tests)
//   --cache-dir DIR      one persistent function-summary cache shared
//                        across the whole fleet: identical functions
//                        in different images (and the whole fleet on a
//                        re-run) are analyzed once
//   --threads N          run each image's intraprocedural summary
//                        phase on N worker threads (profitable on
//                        multi-core hosts now that expressions are
//                        hash-consed; results are identical for any
//                        thread count)
//
// Crash isolation & resume (src/resilience/supervisor.h): every image
// goes through one ScanSupervisor, in this process (`--workers 0`, the
// default) or in up to `--workers N` forked worker processes, each
// reused for image after image — a SIGSEGV, OOM kill, or hang in one
// image costs only that image, never the fleet run. Failed attempts
// are retried with backoff under a tightened budget (`--max-retries
// N`, default 2) and quarantined when the retries are spent; with
// workers, `--image-timeout-ms MS` arms a per-image watchdog and
// `--mem-limit-mb MB` an RLIMIT_AS cap. The event stream is the
// scan's crash-safe record: the supervisor writes one `image_done` or
// `image_quarantined` line per image outcome, and `--resume` replays
// the `--events-out` file of a killed run, then appends to it, so the
// rerun skips completed images and produces a byte-identical merged
// report.
//
// Observability: `--log-level LEVEL` sets the stderr log threshold,
// `--metrics-out FILE` dumps the metrics registry,
// `--events-out FILE` streams the NDJSON scan event stream (schema v1,
// see src/obs/events.h), and `--heartbeat-ms MS` sets the
// heartbeat cadence on that stream (default 1000, 0 = off; a final
// beat is always emitted at shutdown). Aggregate one or more event
// streams with tools/scan_report, or convert them to a Chrome trace
// with `scan_report --chrome-trace OUT`.
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "src/cache/summary_cache.h"
#include "src/core/cli_flags.h"
#include "src/core/scan_image.h"
#include "src/firmware/packer.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/report/json.h"
#include "src/report/scoring.h"
#include "src/report/table.h"
#include "src/resilience/incident.h"
#include "src/resilience/supervisor.h"
#include "src/synth/firmware_synth.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

using namespace dtaint;

namespace {

struct CorpusItem {
  FirmwareSpec spec;
  std::vector<uint8_t> blob;
  std::vector<PlantedVuln> ground_truth;
};

std::vector<CorpusItem> BuildCorpus() {
  struct VendorPlan {
    const char* vendor;
    const char* product;
    Arch arch;
    Packing packing;
    int vulns;
    int safes;
  };
  const VendorPlan plans[] = {
      {"D-Link", "DIR-505", Arch::kDtMips, Packing::kPlain, 2, 1},
      {"D-Link", "DIR-868L", Arch::kDtArm, Packing::kXor, 1, 1},
      {"Netgear", "R7000", Arch::kDtArm, Packing::kPlain, 2, 2},
      {"Netgear", "WNR2000", Arch::kDtMips, Packing::kEncrypted, 1, 0},
      {"Tenda", "AC15", Arch::kDtArm, Packing::kPlain, 3, 1},
      {"TP-Link", "WR841N", Arch::kDtMips, Packing::kXor, 0, 2},
      {"Foscam", "C1", Arch::kDtArm, Packing::kUnknown, 2, 0},
      {"Zyxel", "NBG6817", Arch::kDtMips, Packing::kPlain, 1, 1},
  };
  const VulnPattern patterns[] = {
      VulnPattern::kDirect, VulnPattern::kWrapper, VulnPattern::kAliasChain,
      VulnPattern::kLoopCopy, VulnPattern::kDispatch};
  const std::pair<const char*, const char*> combos[] = {
      {"getenv", "system"}, {"recv", "strcpy"},  {"read", "memcpy"},
      {"websGetVar", "system"}, {"recv", "loop"}, {"recv", "memcpy"},
  };

  Rng rng(20260704);
  std::vector<CorpusItem> corpus;
  int seq = 0;
  for (const VendorPlan& plan : plans) {
    CorpusItem item;
    item.spec.vendor = plan.vendor;
    item.spec.product = plan.product;
    item.spec.version = "1." + std::to_string(rng.Below(9));
    item.spec.release_year = static_cast<uint16_t>(rng.Range(2012, 2016));
    item.spec.packing = plan.packing;
    item.spec.binary_path = "/bin/httpd";
    item.spec.program.name = "httpd";
    item.spec.program.arch = plan.arch;
    item.spec.program.seed = 9000 + seq;
    item.spec.program.filler_functions =
        static_cast<int>(rng.Range(30, 90));
    for (int v = 0; v < plan.vulns + plan.safes; ++v) {
      PlantSpec p;
      p.id = std::string(plan.product) + "_p" + std::to_string(v);
      size_t pi = rng.Below(std::size(patterns));
      p.pattern = patterns[pi];
      // Loop/dispatch need buffer sources; pick compatible combos.
      size_t ci = p.pattern == VulnPattern::kLoopCopy
                      ? 4
                      : (p.pattern == VulnPattern::kDispatch
                             ? 5
                             : rng.Below(4));
      p.source = combos[ci].first;
      p.sink = p.pattern == VulnPattern::kLoopCopy ? "loop"
                                                   : combos[ci].second;
      p.sanitized = v >= plan.vulns;
      item.spec.program.plants.push_back(std::move(p));
    }
    auto fw = SynthesizeFirmware(item.spec);
    if (!fw.ok()) continue;
    item.blob = FirmwarePacker::Pack(fw->image);
    item.ground_truth = std::move(fw->ground_truth);
    corpus.push_back(std::move(item));
    ++seq;
  }
  return corpus;
}

/// Flips one byte mid-payload: the extractor's checksum catches it and
/// the image becomes a deterministic "corrupt data" incident.
void CorruptBlob(std::vector<uint8_t>& blob) {
  if (!blob.empty()) blob[blob.size() / 2] ^= 0x5A;
}

void PrintUsage() {
  std::printf(
      "usage: corpus_scan [options]\n"
      "\n"
      "analysis:\n"
      "  --threads N          worker threads for the summary phase\n"
      "  --cache-dir DIR      persistent function-summary cache\n"
      "  --deadline-ms MS / --max-steps N / --max-states N /\n"
      "  --max-expr-nodes N   per-function analysis budget (0 = off);\n"
      "                       a step is one IR statement, about one\n"
      "                       executed instruction\n"
      "  --corrupt K          corrupt first K extractable images\n"
      "  --fail-fast          stop at the first incident, exit nonzero\n"
      "\n"
      "isolation & resume:\n"
      "  --workers N          forked worker processes (crash/OOM/hang\n"
      "                       isolation); 0 (default) = in process\n"
      "  --max-retries N      retries per failed image before\n"
      "                       quarantine (default 2)\n"
      "  --image-timeout-ms MS  per-image watchdog (0 = off; needs --workers)\n"
      "  --mem-limit-mb MB    per-worker RLIMIT_AS (0 = off; needs --workers)\n"
      "  --resume             replay the --events-out file of an\n"
      "                       interrupted run, skip the images it\n"
      "                       records done or quarantined, and append\n"
      "                       to it (needs --events-out)\n"
      "\n"
      "output & observability:\n"
      "  --json-out FILE      fleet report as JSON\n"
      "  --log-level LEVEL    error | warn | info | debug (stderr)\n"
      "  --metrics-out FILE   metrics registry dump as JSON\n"
      "  --events-out FILE    NDJSON scan event stream (schema v1)\n"
      "  --heartbeat-ms MS    heartbeat cadence on the event stream\n"
      "                       (default 1000, 0 = off)\n");
}

/// Per-image outcome, accumulated for the fleet JSON report.
struct ImageResult {
  std::string label, vendor, product, arch, packing;
  /// The scan's outcome; only its status, "quarantined", is set when
  /// the supervisor gave up after retries.
  ScanOutcome outcome;
  uint32_t attempts = 1;
};

struct FleetTotals {
  size_t tp = 0, fn = 0, fp = 0;
  size_t unextractable = 0, complete_images = 0;
  size_t retries = 0, quarantined = 0, worker_restarts = 0;
};

std::string FleetToJson(const std::vector<ImageResult>& images,
                        const std::vector<Incident>& incidents,
                        const FleetTotals& totals) {
  std::string out = "{\n  \"images\": [";
  for (size_t i = 0; i < images.size(); ++i) {
    const ImageResult& im = images[i];
    const ScanOutcome& o = im.outcome;
    out += i ? ",\n    {" : "\n    {";
    out += "\"label\": \"" + JsonEscape(im.label) + "\"";
    out += ", \"vendor\": \"" + JsonEscape(im.vendor) + "\"";
    out += ", \"product\": \"" + JsonEscape(im.product) + "\"";
    out += ", \"arch\": \"" + JsonEscape(im.arch) + "\"";
    out += ", \"packing\": \"" + JsonEscape(im.packing) + "\"";
    out += ", \"status\": \"" + JsonEscape(o.status) + "\"";
    out += std::string(", \"complete\": ") + (o.complete ? "true" : "false");
    out += ", \"functions\": " + std::to_string(o.functions);
    out += ", \"attempts\": " + std::to_string(im.attempts);
    out += ", \"findings\": " + o.findings_json;
    if (o.has_score) out += ", \"score\": " + o.score_json;
    out += "}";
  }
  out += "\n  ],\n  \"incidents\": " + IncidentsToJson(incidents);
  out += ",\n  \"totals\": {";
  out += "\"images\": " + std::to_string(images.size());
  out += ", \"complete_images\": " + std::to_string(totals.complete_images);
  out += ", \"unextractable\": " + std::to_string(totals.unextractable);
  out += ", \"incidents\": " + std::to_string(incidents.size());
  out += ", \"retries\": " + std::to_string(totals.retries);
  out += ", \"quarantined\": " + std::to_string(totals.quarantined);
  out += ", \"worker_restarts\": " + std::to_string(totals.worker_restarts);
  out += ", \"tp\": " + std::to_string(totals.tp);
  out += ", \"fn\": " + std::to_string(totals.fn);
  out += ", \"fp\": " + std::to_string(totals.fp);
  out += "}\n}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ScanFlags scan;
  ObsFlags obs_flags;
  std::string json_out;
  int heartbeat_ms = 1000;
  int corrupt_count = 0;
  int workers = 0;
  int max_retries = 2;
  int image_timeout_ms = 0;
  int mem_limit_mb = 0;
  bool help = false;
  bool fail_fast = false;
  bool resume = false;
  FlagSet flags;
  AddScanFlags(flags, &scan);
  AddObsFlags(flags, &obs_flags);
  flags.Switch("--help", &help);
  flags.Switch("--fail-fast", &fail_fast);
  flags.Switch("--resume", &resume);
  flags.Int("--corrupt", &corrupt_count);
  flags.Int("--workers", &workers);
  flags.Int("--max-retries", &max_retries);
  flags.Int("--image-timeout-ms", &image_timeout_ms);
  flags.Int("--mem-limit-mb", &mem_limit_mb);
  flags.String("--json-out", &json_out);
  flags.Int("--heartbeat-ms", &heartbeat_ms);
  std::vector<std::string> positional;
  std::string error;
  if (!flags.Parse(argc - 1, argv + 1, &positional, &error)) {
    std::fprintf(stderr, "corpus_scan: %s (see --help)\n", error.c_str());
    return 2;
  }
  if (!positional.empty()) {
    std::fprintf(stderr, "corpus_scan: unexpected argument %s\n",
                 positional[0].c_str());
    return 2;
  }
  if (help) {
    PrintUsage();
    return 0;
  }
  // The watchdog and the address-space cap act on worker processes.
  if (workers == 0 && (image_timeout_ms > 0 || mem_limit_mb > 0)) {
    std::fprintf(stderr, "corpus_scan: %s needs --workers N (N >= 1)\n",
                 image_timeout_ms ? "--image-timeout-ms" : "--mem-limit-mb");
    return 2;
  }
  std::optional<SummaryCache> cache;
  if (!scan.cache_dir.empty()) {
    CacheConfig cache_config;
    cache_config.disk_dir = scan.cache_dir;
    cache.emplace(cache_config);
  }
  if (resume && obs_flags.events_out.empty()) {
    std::fprintf(stderr, "--resume needs --events-out FILE\n");
    return 2;
  }
  if (!obs_flags.Open("corpus_scan", &error, /*append_events=*/resume)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  obs::EventStream& events = obs::EventStream::Global();

  std::vector<CorpusItem> corpus = BuildCorpus();
  // Deterministic damage for the resilience demo: only images whose
  // packing is recoverable would otherwise extract, so corrupting them
  // converts "ok" images into incidents without touching the rest.
  int corrupted = 0;
  for (CorpusItem& item : corpus) {
    if (corrupted >= corrupt_count) break;
    if (item.spec.packing == Packing::kPlain ||
        item.spec.packing == Packing::kXor) {
      CorruptBlob(item.blob);
      ++corrupted;
    }
  }
  std::printf("fleet scan: %zu firmware images%s%s%s\n\n", corpus.size(),
              cache ? " (summary cache enabled)" : "",
              corrupted ? " (corruption injected)" : "",
              workers > 0 ? " (isolated workers)" : "");

  TextTable table({"Image", "Arch", "Packing", "Status", "Complete", "Fns",
                   "Findings", "TP", "FP+twin", "Missed", "Att"});
  FleetTotals totals;
  std::vector<ImageResult> images;
  std::vector<Incident> incidents;
  bool aborted = false;

  if (events.enabled()) {
    events.Emit(obs::Event("corpus_begin")
                    .Num("images", static_cast<uint64_t>(corpus.size())));
  }
  obs::Heartbeat heartbeat(
      events, heartbeat_ms > 0 ? static_cast<uint32_t>(heartbeat_ms) : 0,
      corpus.size());

  // The per-image scan body, run by the supervisor in this process or
  // in its workers. ScanImage emits the image events itself (inside the
  // worker, with --workers); everything the fleet report needs comes
  // back in the ScanOutcome, with JSON fragments pre-serialized so a
  // resume can replay them byte-identically.
  auto scan_image = [&](size_t idx,
                        const AnalysisBudget& image_budget) -> ScanOutcome {
    const CorpusItem& item = corpus[idx];
    DTaintConfig config = scan.config;
    if (cache) config.interproc.cache = &*cache;
    config.interproc.budget = image_budget;
    ImageScan image = ScanImage(
        item.blob, item.spec.binary_path,
        item.spec.vendor + " " + item.spec.product, config,
        {{"vendor", item.spec.vendor},
         {"product", item.spec.product},
         {"arch", ArchName(item.spec.program.arch)},
         {"packing", PackingName(item.spec.packing)}});
    ScanOutcome& out = image.outcome;
    if (const auto& report = image.report) {
      out.findings_json = FindingsToJson(report->findings);
      DetectionScore score = ScoreFindings(report->findings, item.ground_truth);
      out.has_score = true;
      out.score_json = ScoreToJson(score);
      out.tp = score.true_positives;
      out.fn = score.false_negatives;
      out.fp = score.false_positives + score.safe_twin_hits;
    }
    return std::move(out);
  };

  SupervisorConfig sup_config;
  sup_config.workers = workers;
  sup_config.max_retries = max_retries;
  sup_config.image_timeout_ms = static_cast<uint32_t>(image_timeout_ms);
  sup_config.mem_limit_mb = static_cast<uint32_t>(mem_limit_mb);
  sup_config.budget = scan.config.interproc.budget;
  if (resume) sup_config.resume_from = obs_flags.events_out;
  sup_config.stop_on_failure = fail_fast;
  ScanSupervisor supervisor(sup_config);

  std::vector<TaskSpec> tasks;
  tasks.reserve(corpus.size());
  for (const CorpusItem& item : corpus) {
    TaskSpec task;
    task.label = item.spec.vendor + " " + item.spec.product;
    task.fingerprint = Fingerprint128()
                           .Mix(std::span<const uint8_t>(item.blob))
                           .Digest()
                           .ToHex();
    tasks.push_back(std::move(task));
  }
  std::vector<TaskResult> results = supervisor.Run(tasks, scan_image);
  // The fleet report folds the results in corpus order, whatever order
  // the supervisor finished in — the report (and its byte-identity
  // across resumes) never depends on scheduling.
  for (size_t i = 0; i < results.size(); ++i) {
    const TaskResult& result = results[i];
    if (result.state == TaskResult::State::kSkipped) {
      // Images the fail-fast stop cut off never appear in the report,
      // but any incidents their earlier attempts produced do.
      for (const Incident& inc : result.incidents) {
        incidents.push_back(inc);
      }
      continue;
    }
    const CorpusItem& item = corpus[i];
    ImageResult im;
    im.label = item.spec.vendor + " " + item.spec.product;
    im.vendor = item.spec.vendor;
    im.product = item.spec.product;
    im.arch = std::string(ArchName(item.spec.program.arch));
    im.packing = std::string(PackingName(item.spec.packing));
    im.attempts = result.attempts;
    totals.retries += result.attempts > 0 ? result.attempts - 1 : 0;
    totals.worker_restarts += result.worker_restarts;

    if (result.state == TaskResult::State::kQuarantined) {
      im.outcome.status = "quarantined";
      ++totals.quarantined;
      table.AddRow({im.label, im.arch, im.packing, "QUARANTINED", "-", "-",
                    "-", "-", "-", "-", std::to_string(im.attempts)});
    } else {
      const ScanOutcome& out = result.outcome;
      im.outcome = out;
      if (out.status == "unextractable") ++totals.unextractable;
      if (out.status == "ok") {
        if (out.complete) {
          // Only complete images count toward the exit code: an image
          // that hit its budget legitimately under-reports, which is
          // triage work ("raise the budget"), not a detection bug.
          ++totals.complete_images;
          totals.tp += out.tp;
          totals.fn += out.fn;
          totals.fp += out.fp;
        }
        table.AddRow({im.label, im.arch, im.packing, "ok",
                      out.complete ? "yes" : "NO",
                      std::to_string(out.functions),
                      std::to_string(out.findings), std::to_string(out.tp),
                      std::to_string(out.fp), std::to_string(out.fn),
                      std::to_string(im.attempts)});
      } else {
        table.AddRow({im.label, im.arch, im.packing, out.row, "-", "-", "-",
                      "-", "-", "-", std::to_string(im.attempts)});
      }
      for (const Incident& inc : result.outcome.incidents) {
        incidents.push_back(inc);
        DTAINT_LOG(obs::LogLevel::kDebug, "corpus", "incident: %s",
                   inc.ToString().c_str());
      }
    }
    // Supervisor-level incidents (worker deaths, the quarantine
    // verdict) follow the analysis incidents of the same image.
    for (const Incident& inc : result.incidents) {
      incidents.push_back(inc);
    }
    images.push_back(std::move(im));
    // The image that tripped the fail-fast stop, even the last one.
    aborted |= fail_fast && !result.resumed &&
               (result.state == TaskResult::State::kQuarantined ||
                StopsFailFast(result.outcome));
  }
  heartbeat.Stop();
  if (events.enabled()) {
    events.Emit(obs::Event("corpus_end")
                    .Num("images", static_cast<uint64_t>(corpus.size()))
                    .Num("complete",
                         static_cast<uint64_t>(totals.complete_images))
                    .Num("unextractable",
                         static_cast<uint64_t>(totals.unextractable))
                    .Num("incidents",
                         static_cast<uint64_t>(incidents.size()))
                    .Bool("aborted", aborted));
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("fleet totals (over %zu complete image(s)): TP=%zu FN=%zu "
              "FP=%zu; %zu image(s) resisted extraction (vendor "
              "encryption), as in the paper's corpus study; %zu "
              "incident(s)\n",
              totals.complete_images, totals.tp, totals.fn, totals.fp,
              totals.unextractable, incidents.size());
  if (totals.quarantined || totals.retries) {
    std::printf("supervisor: %zu image(s) quarantined, %zu retry(ies), "
                "%zu worker restart(s)\n",
                totals.quarantined, totals.retries, totals.worker_restarts);
  }
  for (const Incident& inc : incidents) {
    std::printf("  incident: %s\n", inc.ToString().c_str());
  }

  // Detection quality is scored over complete images only; incidents
  // are reported, not fatal (the whole point of the resilience layer).
  // --fail-fast flips that contract for CI gating. Quarantined images
  // never fail the run by themselves — like budget-degraded images,
  // they are triage work, and their ground truth is excluded from the
  // score the same way an unextractable image's is.
  int rc = (totals.fn == 0 && totals.fp == 0) ? 0 : 1;
  if (fail_fast && (aborted || !incidents.empty())) rc = 1;
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::trunc);
    out << FleetToJson(images, incidents, totals) << '\n';
    if (!out.good()) {
      DTAINT_LOG(obs::LogLevel::kError, "corpus",
                 "cannot write fleet report to %s", json_out.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!obs_flags.Finish() && rc == 0) rc = 1;
  events.Close(aborted ? "aborted" : "ok");
  return rc;
}

// router_audit: the full firmware-security workflow on one image —
// the scenario the paper's introduction motivates.
//
//   vendor blob -> binwalk-like extraction -> pick the CGI binary ->
//   DTaint -> vulnerability report with source/sink paths.
//
// The image is a synthesized D-Link-style router firmware carrying a
// command injection, a stack overflow, and their sanitized twins.
#include <cstdio>

#include "src/core/scan_image.h"
#include "src/firmware/packer.h"
#include "src/synth/firmware_synth.h"
#include "src/util/strings.h"

using namespace dtaint;

int main() {
  // -- 0. "Download" the vendor firmware ------------------------------------
  FirmwareSpec spec;
  spec.vendor = "D-Link";
  spec.product = "DIR-823G";
  spec.version = "1.02";
  spec.release_year = 2016;
  spec.packing = Packing::kXor;  // vendor obfuscation binwalk can undo
  spec.binary_path = "/htdocs/web/cgibin";
  spec.program.name = "cgibin";
  spec.program.arch = Arch::kDtMips;
  spec.program.seed = 823;
  spec.program.filler_functions = 60;
  auto plant = [](const char* id, VulnPattern pattern, const char* source,
                  const char* sink, bool sanitized = false) {
    PlantSpec p;
    p.id = id;
    p.pattern = pattern;
    p.source = source;
    p.sink = sink;
    p.sanitized = sanitized;
    return p;
  };
  spec.program.plants = {
      plant("soap_cmdinj", VulnPattern::kDirect, "getenv", "system"),
      plant("cookie_overflow", VulnPattern::kWrapper, "getenv", "strcpy"),
      plant("checked_cmd", VulnPattern::kDirect, "getenv", "system", true),
      plant("checked_copy", VulnPattern::kDirect, "getenv", "strcpy", true),
  };
  auto fw = SynthesizeFirmware(spec);
  if (!fw.ok()) {
    std::printf("synthesis failed: %s\n", fw.status().ToString().c_str());
    return 1;
  }
  std::vector<uint8_t> blob = FirmwarePacker::Pack(fw->image);
  std::printf("firmware blob: %s %s v%s, %zu bytes (packing: %s)\n",
              spec.vendor.c_str(), spec.product.c_str(),
              spec.version.c_str(), blob.size(),
              std::string(PackingName(spec.packing)).c_str());

  // -- 1-3. Extract the rootfs, load the CGI binary, run DTaint ---------------
  // ScanImage unpacks the blob (binwalk's job), loads the binary at
  // spec.binary_path out of its root filesystem, and analyzes it.
  ImageScan scan = ScanImage(blob, spec.binary_path,
                             spec.vendor + " " + spec.product, DTaintConfig{});
  if (!scan.report) {
    std::printf("scan %s: %s\n", scan.outcome.row.c_str(),
                scan.error.ToString().c_str());
    return 1;
  }
  const AnalysisReport& report = *scan.report;
  std::printf("\nextracted the rootfs and loaded %s as %s (%s)\n",
              spec.binary_path.c_str(), report.binary_name.c_str(),
              std::string(ArchName(report.arch)).c_str());
  std::printf("\nanalysis: %zu functions, %zu blocks, %zu call edges, "
              "%zu sink callsites, %.2fs\n",
              report.analyzed_functions, report.blocks,
              report.call_graph_edges, report.sink_count,
              report.total_seconds);
  std::printf("\n%zu vulnerable path(s):\n", report.findings.size());
  for (size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& finding = report.findings[i];
    std::printf("\n[%zu] %s\n", i + 1, finding.Summary().c_str());
    for (const PathHop& hop : finding.path.hops) {
      std::printf("      %-20s %s  %s\n", hop.function.c_str(),
                  HexStr(hop.site).c_str(), hop.note.c_str());
    }
  }
  std::printf("\n(2 planted bugs, 2 sanitized twins -> expect exactly the "
              "2 bugs above)\n");
  return report.findings.size() == 2 ? 0 : 1;
}

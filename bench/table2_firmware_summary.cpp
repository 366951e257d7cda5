// Table II: "The summary information of firmware analysis using
// DTaint" — per image: manufacturer, version, architecture, binary,
// size, functions, blocks, call-graph edges.
//
// Builds the six paper-shaped synthetic images and prints the measured
// shape next to the paper's reported row. The two largest binaries are
// generated at ~1/10 of the paper's function count (see DESIGN.md);
// the scale column records this.
#include <cstdio>

#include "src/binary/writer.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/scan_image.h"
#include "src/obs/bench.h"
#include "src/report/table.h"
#include "src/synth/paper_images.h"
#include "src/util/strings.h"

using namespace dtaint;

int main(int argc, char** argv) {
  bench::Harness harness("table2_firmware_summary", argc, argv);
  std::printf("=== Table II: firmware image summary ===\n\n");
  TextTable table({"Idx", "Manufacturer", "Firmware", "Arch", "Binary",
                   "Size(KB)", "Functions", "Blocks", "CG edges",
                   "Scale"});
  TextTable paper({"Idx", "Manufacturer", "Firmware", "Arch", "Binary",
                   "Size(KB)", "Functions", "Blocks", "CG edges"});

  int index = 1;
  bool ok = true;
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    auto fw = BuildPaperImage(spec);
    if (!fw.ok()) return harness.Fail("build", fw.status());
    auto binary = LoadImageBinary(fw->image, spec.firmware.binary_path);
    if (!binary.ok()) return harness.Fail("load", binary.status());
    // The binary file's size: loading and writing DTBIN round-trip.
    const size_t size_bytes = BinaryWriter::Serialize(*binary).size();
    // The measured work per image: load + whole-binary CFG recovery.
    // Shape numbers are deterministic; the gate holds them exactly.
    Result<Program> program = InvalidArgument("not built");
    harness.Run(
        spec.firmware.vendor + "_" + spec.firmware.product,
        [&](bench::Rep& rep) {
          auto loaded = LoadImageBinary(fw->image, spec.firmware.binary_path);
          program = loaded.ok() ? CfgBuilder(*loaded).BuildProgram()
                                : Result<Program>(loaded.status());
          if (!program.ok()) return;
          rep.Value("functions",
                    static_cast<double>(program->functions.size()));
          rep.Value("blocks",
                    static_cast<double>(program->TotalBlocks()));
          rep.Value("call_edges",
                    static_cast<double>(program->CallEdgeCount()));
          rep.Value("size_kb",
                    static_cast<double>(size_bytes / 1024));
        });
    if (!program.ok()) return harness.Fail("cfg", program.status());

    table.AddRow(
        {std::to_string(index), spec.firmware.vendor,
         spec.firmware.product + "_" + spec.firmware.version,
         std::string(ArchName(binary->arch)), binary->soname,
         std::to_string(size_bytes / 1024),
         std::to_string(program->functions.size()),
         WithCommas(program->TotalBlocks()),
         WithCommas(program->CallEdgeCount()),
         spec.scale == 1.0 ? "1"
                           : ("1/" + std::to_string(int(1.0 / spec.scale)))});
    paper.AddRow({std::to_string(index), spec.paper_table2.manufacturer,
                  spec.paper_table2.firmware_version,
                  spec.paper_table2.arch, spec.paper_table2.binary,
                  std::to_string(spec.paper_table2.size_kb),
                  std::to_string(spec.paper_table2.functions),
                  WithCommas(spec.paper_table2.blocks),
                  WithCommas(spec.paper_table2.call_edges)});
    ++index;
  }
  std::printf("measured (this reproduction):\n%s\n",
              table.Render().c_str());
  std::printf("paper-reported:\n%s", paper.Render().c_str());
  return harness.Finish(ok);
}

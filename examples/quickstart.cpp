// Quickstart: author a tiny vulnerable "firmware binary" by hand with
// the assembler API, run DTaint over it, and print the findings.
//
// The program is the paper's running example in miniature: an HTTP
// handler that getenv()s an attacker-controlled header and passes it
// to system() without filtering — the CVE-2015-2051 shape.
#include <cstdio>

#include "src/binary/writer.h"
#include "src/core/dtaint.h"
#include "src/ir/printer.h"
#include "src/lifter/lifter.h"
#include "src/isa/asm_builder.h"

using namespace dtaint;

int main() {
  // -- 1. Author a binary ---------------------------------------------------
  BinaryWriter writer(Arch::kDtArm, "demo_cgi");
  writer.AddImport("getenv");
  writer.AddImport("system");
  writer.AddImport("strlen");

  // .rodata: the header name we "read".
  uint32_t soap = kRodataBase + writer.AddRodata(
      {'S', 'O', 'A', 'P', 'A', 'c', 't', 'i', 'o', 'n', 0});

  {
    // Vulnerable: system(getenv("SOAPAction")) with no filtering.
    FnBuilder b("soap_handler");
    b.SubI(kRegSp, kRegSp, 0x40);
    b.MovConst(0, soap);      // r0 = "SOAPAction"
    b.Call("getenv");         // r0 = attacker-controlled string
    b.MovR(4, 0);             // r4 = cmd
    b.MovR(0, 4);
    b.Call("system");         // boom
    b.AddI(kRegSp, kRegSp, 0x40);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    // Safe twin: scans for ';' before invoking the shell.
    FnBuilder b("soap_handler_safe");
    b.SubI(kRegSp, kRegSp, 0x40);
    b.MovConst(0, soap);
    b.Call("getenv");
    b.MovR(4, 0);
    b.MovI(5, 0);
    b.Label("scan");
    b.LdrBR(6, 4, 5);         // c = cmd[i]
    b.CmpI(6, 0x3B);          // ';' ?
    b.Beq("reject");
    b.AddI(5, 5, 1);
    b.CmpI(6, 0);
    b.Bne("scan");
    b.MovR(0, 4);
    b.Call("system");
    b.Label("reject");
    b.AddI(kRegSp, kRegSp, 0x40);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  {
    FnBuilder b("main");
    b.Call("soap_handler");
    b.Call("soap_handler_safe");
    b.MovI(0, 0);
    b.Ret();
    writer.AddFunction(std::move(b).Finish().value());
  }
  writer.SetEntry("main");
  Binary binary = writer.Build().value();
  std::printf("built %s: %zu functions, %llu mapped bytes\n\n",
              binary.soname.c_str(), binary.symbols.size(),
              static_cast<unsigned long long>(binary.MappedSize()));

  // -- 2. Peek at the lifted IR of the vulnerable handler -------------------
  CfgBuilder cfg(binary);
  Program program = cfg.BuildProgram().value();
  const Function& handler = program.functions.at("soap_handler");
  FunctionIR handler_ir = Lifter(binary).LiftFunction(handler).value();
  std::printf("soap_handler lifts to %zu basic blocks; first block:\n",
              handler.blocks.size());
  std::printf("%s\n",
              PrintBlockWithDisasm(binary, handler_ir.blocks.begin()->second)
                  .c_str());

  // -- 3. Run DTaint ---------------------------------------------------------
  DTaint detector;
  AnalysisReport report = detector.Analyze(binary).value();
  std::printf("analysis: %zu functions, %zu blocks, %zu sinks, "
              "%zu vulnerable paths\n",
              report.analyzed_functions, report.blocks, report.sink_count,
              report.vulnerable_paths);
  for (const Finding& finding : report.findings) {
    std::printf("  FINDING: %s\n", finding.Summary().c_str());
    for (const PathHop& hop : finding.path.hops) {
      std::printf("    - [%s @0x%x] %s\n", hop.function.c_str(), hop.site,
                  hop.note.c_str());
    }
  }
  if (report.findings.size() == 1 &&
      report.findings[0].path.sink_function == "soap_handler") {
    std::printf("\nOK: the vulnerable handler was flagged and the "
                "sanitized twin was not.\n");
    return 0;
  }
  std::printf("\nUNEXPECTED RESULT\n");
  return 1;
}

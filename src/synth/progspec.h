// Program specifications for the firmware synthesizer.
//
// The paper's evaluation runs on proprietary vendor binaries we cannot
// ship; the synthesizer regenerates binaries with the same *shape*
// (function/block/call-edge counts, protocol-parser structure) and —
// unlike real firmware — exact ground truth: every planted taint-style
// vulnerability and every deliberately-sanitized twin is recorded for
// scoring (see DESIGN.md, substitutions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/binary/binary.h"
#include "src/report/scoring.h"
#include "src/util/status.h"

namespace dtaint {

/// The code shape a plant is built from.
enum class VulnPattern : uint8_t {
  kDirect,     // source and sink in one handler function
  kWrapper,    // source in a callee, sink in the caller (interprocedural)
  kAliasChain, // the paper's foo/woo shape: pointer parked in a struct
               // field, buffer tainted under one name, sunk under the
               // alias (needs Algorithm 1 + bottom-up flow)
  kDispatch,   // sink behind an indirect call resolved only by
               // structure-layout similarity (§III-D)
  kLoopCopy,   // loop copy at an attacker-controlled offset (Table I's
               // "loop" sink)
  kCrossCallAlias,  // function pointer registered through an alias
                    // created across a call boundary: one callee links
                    // ctx into a container, another installs the
                    // handler into ctx, the entry calls through
                    // container->ctx->handler. Only the on-demand SSE
                    // oracle resolves the indirect call (a per-function
                    // pass before linking never sees the
                    // cross-boundary facts; layout similarity scores 0)
};

/// One pattern instance to synthesize.
struct PlantSpec {
  std::string id;        // unique tag; function names derive from it
  VulnPattern pattern = VulnPattern::kDirect;
  std::string source;    // "recv", "getenv", "websGetVar", ...
  std::string sink;      // "strcpy", "system", "memcpy", "loop", ...
  bool sanitized = false;  // emit the safe twin (bounds/semicolon check)
  int extra_callers = 0;   // additional call paths into the handler
                           // (yields several vulnerable paths per bug)
  std::string cve_label;   // display name for Table IV/V rows
};

/// A whole binary to synthesize.
struct ProgramSpec {
  std::string name = "a.out";   // soname, e.g. "cgibin"
  Arch arch = Arch::kDtArm;
  uint64_t seed = 1;
  std::vector<PlantSpec> plants;
  /// Filler parser/utility functions to reach a target program shape.
  int filler_functions = 50;
  int filler_min_blocks = 4;
  int filler_max_blocks = 22;
  /// Average outgoing direct calls per filler (call-edge density).
  double filler_call_density = 3.0;
  /// Extra straight-line ALU instructions per filler block, modeling
  /// compute-dense firmware (checksum/parse arithmetic). They cost
  /// symbolic-execution time on every path but record nothing in the
  /// function summary, so they shift the analyze-vs-summary-size
  /// balance toward analysis. 0 = the classic shape.
  int filler_alu_burst = 0;
};

/// Synthesis output: the built binary plus its ground truth.
struct SynthOutput {
  Binary binary;
  std::vector<PlantedVuln> ground_truth;
};

}  // namespace dtaint

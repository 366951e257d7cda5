// CFGBuilder: function discovery + per-function CFG recovery.
//
// Mirrors the paper's §III-B front end: "DTaint first creates a control
// flow graph (CFG) for the firmware ... for each function separately."
// Per function: (1) one linear sweep reads each word once from the
// function's section, decodes it once into a per-function instruction
// array, fingerprints the code and collects block leaders (branch
// targets, post-branch/post-call fallthroughs); (2) every control
// transfer starts a leader, so each leader-to-leader run is a block
// that ends the way its last instruction does; (3) CFG edges are
// wired. Calls end blocks and fall through to their return address;
// the callee target is recorded as a CallSite (resolved to a symbol or
// import when direct). No statement is lifted here: the result is a
// skeleton, and the engine lifts a function's IR only when it executes
// it (Lifter::LiftFunction), with the same bounds and failures.
#pragma once

#include <cstdint>

#include "src/binary/binary.h"
#include "src/cfg/function.h"
#include "src/resilience/fault.h"
#include "src/util/status.h"

namespace dtaint {

/// A whole program: the CFG skeleton of every function in the binary.
struct Program {
  const Binary* binary = nullptr;
  std::map<std::string, Function> functions;  // by name
  std::map<uint32_t, std::string> fn_by_addr;
  /// Functions whose CFG recovery failed (bad encoding, or an injected
  /// `lift` fault). They are simply absent from `functions` — one
  /// unliftable function must not sink the binary — and the detector
  /// reports each as an incident and marks the analysis incomplete.
  std::vector<std::pair<std::string, Status>> lift_failures;

  const Function* FunctionAt(uint32_t addr) const {
    auto it = fn_by_addr.find(addr);
    return it == fn_by_addr.end() ? nullptr : &functions.at(it->second);
  }
  const Function* FindFunction(const std::string& name) const {
    auto it = functions.find(name);
    return it == functions.end() ? nullptr : &it->second;
  }
  size_t TotalBlocks() const {
    size_t total = 0;
    for (const auto& [_, fn] : functions) total += fn.blocks.size();
    return total;
  }
  /// Direct call-graph edge count (indirect edges added after
  /// structure-similarity resolution are included once resolved).
  size_t CallEdgeCount() const;
};

class CfgBuilder {
 public:
  explicit CfgBuilder(const Binary& binary) : binary_(binary) {}

  /// Builds the CFG skeleton of a single function symbol. Fails exactly
  /// where lifting every block of it would: a read off the section, an
  /// undecodable word, a branch escaping the function (all
  /// kCorruptData), an unaligned start (kInvalidArgument). An empty
  /// symbol is kCorruptData too. Counts the words it decodes in
  /// `lift.words_decoded`.
  Result<Function> BuildFunction(const Symbol& symbol) const;

  /// Builds every function symbol in the binary. Per-function lift
  /// failures are isolated: the function is skipped and recorded in
  /// Program::lift_failures rather than failing the whole program.
  Result<Program> BuildProgram() const;

 private:
  const Binary& binary_;
};

}  // namespace dtaint

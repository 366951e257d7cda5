// Lifter: DT-RISC machine code -> VEX-like IR, one basic block at a
// time (the shape Angr/pyvex exposes and the paper's analysis consumes).
//
// Lifting is on demand: the CFG builder finds block bounds by decoding
// alone, and the IR of a function is built by LiftFunction when the
// symbolic engine is about to execute it.
#pragma once

#include <cstdint>
#include <map>

#include "src/binary/binary.h"
#include "src/cfg/function.h"
#include "src/ir/block.h"
#include "src/util/status.h"

namespace dtaint {

/// The lifted statements of one function, keyed like Function::blocks.
struct FunctionIR {
  std::map<uint32_t, IRBlock> blocks;

  const IRBlock* BlockAt(uint32_t addr) const {
    auto it = blocks.find(addr);
    return it == blocks.end() ? nullptr : &it->second;
  }
};

class Lifter {
 public:
  explicit Lifter(const Binary& binary) : binary_(binary) {}

  /// Lifts the basic block starting at `addr`. Lifting stops at the
  /// first control-flow instruction (branch/call/ret), or just before
  /// `stop_before` (a known block leader inside a straight-line run),
  /// whichever comes first. `stop_before == 0` means "no limit".
  Result<IRBlock> LiftBlock(uint32_t addr, uint32_t stop_before = 0) const;

  /// Lifts every block of a skeleton function. Counts each call in the
  /// `lift.ir_functions` metric and the words it decodes in
  /// `lift.words_decoded`.
  Result<FunctionIR> LiftFunction(const Function& fn) const;

  const Binary& binary() const { return binary_; }

 private:
  const Binary& binary_;
};

}  // namespace dtaint

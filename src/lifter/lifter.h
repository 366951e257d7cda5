// Lifter: DT-RISC machine code -> flat VEX-like IR (src/ir/expr.h), one
// basic block at a time (the shape Angr/pyvex exposes and the paper's
// analysis consumes).
//
// Lifting is on demand: the CFG builder finds block bounds by decoding
// alone, and the IR of a function is built by LiftFunction when the
// symbolic engine is about to execute it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/binary/binary.h"
#include "src/cfg/function.h"
#include "src/ir/block.h"
#include "src/util/status.h"

namespace dtaint {

/// The lifted statements of one function: an (address, block) entry per
/// Function::blocks entry, in address order, so an entry's position is
/// the block's dense index in the function.
struct FunctionIR {
  std::vector<std::pair<uint32_t, IRBlock>> blocks;

  /// Position of the block starting at `addr`, or -1.
  int IndexOf(uint32_t addr) const {
    auto it = std::lower_bound(
        blocks.begin(), blocks.end(), addr,
        [](const auto& entry, uint32_t a) { return entry.first < a; });
    return it == blocks.end() || it->first != addr
               ? -1
               : static_cast<int>(it - blocks.begin());
  }
  const IRBlock* BlockAt(uint32_t addr) const {
    int index = IndexOf(addr);
    return index < 0 ? nullptr : &blocks[index].second;
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
  /// `lift.ir_functions` metric, the words it decodes in
  /// `lift.words_decoded` and the statements it makes in
  /// `lift.ir_stmts`.
  Result<FunctionIR> LiftFunction(const Function& fn) const;

  const Binary& binary() const { return binary_; }

 private:
  const Binary& binary_;
};

}  // namespace dtaint

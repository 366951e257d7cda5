// IRBlock — the lifted form of one basic block (VEX "IRSB").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/stmt.h"
#include "src/util/arena.h"

namespace dtaint {

struct IRBlock {
  uint32_t addr = 0;             // guest address of the first insn
  uint32_t size = 0;             // bytes of guest code covered
  std::vector<Stmt> stmts;       // in guest order; addr never decreases

  JumpKind jumpkind = JumpKind::kBoring;
  ExprRef next = nullptr;        // where control goes, read after stmts
  uint32_t return_addr = 0;      // for calls: the fallthrough address

  /// Owns every Expr that `stmts` and `next` point to; they are freed
  /// together with the block. Held through a pointer so that moving the
  /// block (into FunctionIR's map, say) leaves every node where it is.
  /// A moved-from block has no arena.
  std::unique_ptr<BumpArena> arena = std::make_unique<BumpArena>();

  /// Address one past the last guest instruction.
  uint32_t EndAddr() const { return addr + size; }

  std::string ToString() const;
};

}  // namespace dtaint

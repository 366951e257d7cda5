// IR statements and jump kinds.
#pragma once

#include <cstdint>
#include <string>

#include "src/ir/expr.h"

namespace dtaint {

enum class StmtKind : uint8_t {
  kPut,    // reg := expr
  kStore,  // mem[addr] := data
  kExit,   // if (guard) goto target  (conditional block exit)
};

/// One IR statement: one effect of the guest instruction at `addr`.
/// Fields unused by the kind are null/zero. The expressions belong to
/// the arena of the block holding the statement.
struct Stmt {
  StmtKind kind = StmtKind::kPut;
  uint8_t size = 4;             // kStore width
  uint32_t addr = 0;            // guest address of the instruction
  int reg = -1;                 // kPut
  uint32_t target = 0;          // kExit branch target (guest address)
  ExprRef expr = nullptr;       // kPut value, kExit guard
  ExprRef addr_expr = nullptr;  // kStore address
  ExprRef data_expr = nullptr;  // kStore data

  static Stmt Put(uint32_t addr, int reg, ExprRef expr);
  static Stmt Store(uint32_t addr, ExprRef addr_expr, ExprRef data,
                    uint8_t size);
  static Stmt Exit(uint32_t addr, ExprRef guard, uint32_t target);

  std::string ToString() const;
};

/// Why a block ends — mirrors VEX jump kinds. A call also sets the
/// link register to the block's return address. That write belongs to
/// the jump kind, not to a Put: consumers apply it after reading
/// `next`, as the machine does, so `blr lr` calls the old lr. (A flat
/// IR has no temporary to hold the target across a Put.)
enum class JumpKind : uint8_t {
  kBoring,        // fallthrough or direct branch
  kCall,          // direct call (next = callee const)
  kIndirectCall,  // call through register (next reads it)
  kRet,           // function return
};

std::string_view JumpKindName(JumpKind kind);

}  // namespace dtaint

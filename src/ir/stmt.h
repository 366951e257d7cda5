// IR statements and jump kinds.
#pragma once

#include <cstdint>
#include <string>

#include "src/ir/expr.h"

namespace dtaint {

enum class StmtKind : uint8_t {
  kIMark,  // instruction boundary marker (guest address)
  kWrTmp,  // tmp := expr
  kPut,    // reg := expr
  kStore,  // mem[addr] := data
  kExit,   // if (guard) goto target  (conditional block exit)
};

/// One IR statement. Fields unused by the kind are null/zero. The
/// expressions belong to the arena of the block holding the statement.
struct Stmt {
  StmtKind kind = StmtKind::kIMark;
  uint32_t addr = 0;            // kIMark: guest address
  int tmp = -1;                 // kWrTmp
  int reg = -1;                 // kPut
  ExprRef expr = nullptr;       // kWrTmp/kPut value, kExit guard
  ExprRef addr_expr = nullptr;  // kStore address
  ExprRef data_expr = nullptr;  // kStore data
  uint8_t size = 4;             // kStore width
  uint32_t target = 0;          // kExit branch target (guest address)

  static Stmt IMark(uint32_t addr);
  static Stmt WrTmp(int tmp, ExprRef expr);
  static Stmt Put(int reg, ExprRef expr);
  static Stmt Store(ExprRef addr, ExprRef data, uint8_t size);
  static Stmt Exit(ExprRef guard, uint32_t target);

  std::string ToString() const;
};

/// Why a block ends — mirrors VEX jump kinds.
enum class JumpKind : uint8_t {
  kBoring,        // fallthrough or direct branch
  kCall,          // direct call (next = callee const)
  kIndirectCall,  // call through register
  kRet,           // function return
};

std::string_view JumpKindName(JumpKind kind);

}  // namespace dtaint

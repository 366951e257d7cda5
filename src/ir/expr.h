// IR expressions — the repo's VEX-IR stand-in (paper §III-B lifts
// machine code into VEX; DTaint's analysis consumes the IR, not the
// machine code).
//
// The IR is flat: each guest instruction lifts to one statement per
// effect, and each statement holds the whole expression tree of its
// value, e.g. `add r1, r2, r3` is Put(1, Add(Get(2), Get(3))). There
// are no temporaries. Statements write registers (Put) and memory
// (Store); expressions read them (Get/Load).
//
// Expressions are immutable trees of plain pointers. Every node lives
// in the BumpArena of the IRBlock that uses it and dies with that
// block, all at once. No node is shared between two statements (or a
// statement and the block's `next`).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/util/arena.h"

namespace dtaint {

/// IR register space: guest GPRs 0..15 plus two flag pseudo-registers
/// holding the operands of the last compare. Conditional exits test
/// Binop(CmpXX, Get(kFlagLhs), Get(kFlagRhs)) — keeping the compared
/// values visible, which is what DTaint's sanitization-constraint
/// checks need (paper §IV: "n < 64" style constraints).
inline constexpr int kFlagLhs = 16;
inline constexpr int kFlagRhs = 17;
inline constexpr int kNumIrRegs = 18;

enum class ExprKind : uint8_t {
  kConst,
  kGet,
  kLoad,
  kBinop,
};

enum class BinOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kCmpEq,
  kCmpNe,
  kCmpLt,
  kCmpGe,
  kCmpLe,
  kCmpGt,
};

std::string_view BinOpName(BinOp op);
/// True for the six comparison operators.
bool IsCompare(BinOp op);

class Expr;
/// A node in some block's arena; valid as long as that arena is.
using ExprRef = const Expr*;

/// Immutable IR expression node.
class Expr {
 public:
  // Factories. Each allocates the node in `arena`; children must live
  // in the same arena (or one that outlives it).
  static ExprRef MakeConst(BumpArena& arena, uint32_t value);
  static ExprRef MakeGet(BumpArena& arena, int reg);
  static ExprRef MakeLoad(BumpArena& arena, ExprRef addr, uint8_t size);
  static ExprRef MakeBinop(BumpArena& arena, BinOp op, ExprRef lhs,
                           ExprRef rhs);

  ExprKind kind() const { return kind_; }
  uint32_t const_value() const { return value_; }
  int reg() const { return static_cast<int>(value_); }
  uint8_t load_size() const { return size_; }
  BinOp binop() const { return op_; }
  ExprRef lhs() const { return lhs_; }
  ExprRef rhs() const { return rhs_; }

  /// Structural pretty-print, e.g. "Add(Get(r5), 0x4c)".
  std::string ToString() const;

 private:
  Expr(ExprKind kind, uint32_t value, uint8_t size, BinOp op, ExprRef lhs,
       ExprRef rhs)
      : value_(value), kind_(kind), size_(size), op_(op), lhs_(lhs),
        rhs_(rhs) {}
  static ExprRef New(BumpArena& arena, ExprKind kind, uint32_t value,
                     uint8_t size, BinOp op, ExprRef lhs, ExprRef rhs);

  uint32_t value_;  // const value / reg index
  ExprKind kind_;
  uint8_t size_;    // load size in bytes
  BinOp op_;
  ExprRef lhs_;
  ExprRef rhs_;
};

// Nodes are placed in the arena without a destructor record: releasing
// the arena must be all it takes to dispose of a block's IR. The scalar
// fields pack into one word ahead of the two child pointers.
static_assert(std::is_trivially_destructible_v<Expr>);
static_assert(sizeof(Expr) == 8 + 2 * sizeof(ExprRef));

}  // namespace dtaint

// IR expressions — the repo's VEX-IR stand-in (paper §III-B lifts
// machine code into VEX; DTaint's analysis consumes the IR, not the
// machine code).
//
// Expressions are immutable trees shared via shared_ptr. A block's
// statements write temporaries (WrTmp), registers (Put) and memory
// (Store); expressions read them (RdTmp/Get/Load).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

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
  kRdTmp,
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
using ExprRef = std::shared_ptr<const Expr>;

/// Immutable IR expression node.
class Expr {
  /// A key only the factories can create. The constructor is public so
  /// std::make_shared can put node and control block in one
  /// allocation, but without a key nothing else can call it.
  struct Key {
    explicit Key() = default;
  };

 public:
  Expr(Key, ExprKind kind, uint32_t value, uint8_t size, BinOp op,
       ExprRef lhs, ExprRef rhs)
      : kind_(kind), value_(value), size_(size), op_(op),
        lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  // Factories.
  static ExprRef MakeConst(uint32_t value);
  static ExprRef MakeRdTmp(int tmp);
  static ExprRef MakeGet(int reg);
  static ExprRef MakeLoad(ExprRef addr, uint8_t size);
  static ExprRef MakeBinop(BinOp op, ExprRef lhs, ExprRef rhs);

  ExprKind kind() const { return kind_; }
  uint32_t const_value() const { return value_; }
  int tmp() const { return static_cast<int>(value_); }
  int reg() const { return static_cast<int>(value_); }
  uint8_t load_size() const { return size_; }
  BinOp binop() const { return op_; }
  const ExprRef& lhs() const { return lhs_; }
  const ExprRef& rhs() const { return rhs_; }

  /// Structural pretty-print, e.g. "Add(Get(r5), 0x4c)".
  std::string ToString() const;

 private:
  ExprKind kind_;
  uint32_t value_;  // const value / tmp index / reg index
  uint8_t size_;    // load size in bytes
  BinOp op_;
  ExprRef lhs_;
  ExprRef rhs_;
};

}  // namespace dtaint

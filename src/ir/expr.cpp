#include "src/ir/expr.h"

#include "src/util/strings.h"

namespace dtaint {

std::string_view BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "Add";
    case BinOp::kSub: return "Sub";
    case BinOp::kMul: return "Mul";
    case BinOp::kAnd: return "And";
    case BinOp::kOr: return "Or";
    case BinOp::kXor: return "Xor";
    case BinOp::kShl: return "Shl";
    case BinOp::kShr: return "Shr";
    case BinOp::kCmpEq: return "CmpEQ";
    case BinOp::kCmpNe: return "CmpNE";
    case BinOp::kCmpLt: return "CmpLT";
    case BinOp::kCmpGe: return "CmpGE";
    case BinOp::kCmpLe: return "CmpLE";
    case BinOp::kCmpGt: return "CmpGT";
  }
  return "?";
}

bool IsCompare(BinOp op) { return op >= BinOp::kCmpEq; }

ExprRef Expr::New(BumpArena& arena, ExprKind kind, uint32_t value,
                  uint8_t size, BinOp op, ExprRef lhs, ExprRef rhs) {
  return new (arena.Alloc(sizeof(Expr), alignof(Expr)))
      Expr(kind, value, size, op, lhs, rhs);
}

ExprRef Expr::MakeConst(BumpArena& arena, uint32_t value) {
  return New(arena, ExprKind::kConst, value, 4, BinOp::kAdd, nullptr,
             nullptr);
}
ExprRef Expr::MakeGet(BumpArena& arena, int reg) {
  return New(arena, ExprKind::kGet, static_cast<uint32_t>(reg), 4,
             BinOp::kAdd, nullptr, nullptr);
}
ExprRef Expr::MakeLoad(BumpArena& arena, ExprRef addr, uint8_t size) {
  return New(arena, ExprKind::kLoad, 0, size, BinOp::kAdd, addr, nullptr);
}
ExprRef Expr::MakeBinop(BumpArena& arena, BinOp op, ExprRef lhs,
                        ExprRef rhs) {
  return New(arena, ExprKind::kBinop, 0, 4, op, lhs, rhs);
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kConst:
      return HexStr(value_);
    case ExprKind::kGet:
      return "Get(" + std::to_string(value_) + ")";
    case ExprKind::kLoad:
      return "Load" + std::to_string(int{size_}) + "(" + lhs_->ToString() +
             ")";
    case ExprKind::kBinop:
      return std::string(BinOpName(op_)) + "(" + lhs_->ToString() + ", " +
             rhs_->ToString() + ")";
  }
  return "?";
}

}  // namespace dtaint

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

ExprRef Expr::MakeConst(uint32_t value) {
  return std::make_shared<const Expr>(Key{}, ExprKind::kConst, value, 4,
                                      BinOp::kAdd, nullptr, nullptr);
}
ExprRef Expr::MakeRdTmp(int tmp) {
  return std::make_shared<const Expr>(Key{}, ExprKind::kRdTmp,
                                      static_cast<uint32_t>(tmp), 4,
                                      BinOp::kAdd, nullptr, nullptr);
}
ExprRef Expr::MakeGet(int reg) {
  return std::make_shared<const Expr>(Key{}, ExprKind::kGet,
                                      static_cast<uint32_t>(reg), 4,
                                      BinOp::kAdd, nullptr, nullptr);
}
ExprRef Expr::MakeLoad(ExprRef addr, uint8_t size) {
  return std::make_shared<const Expr>(Key{}, ExprKind::kLoad, 0, size,
                                      BinOp::kAdd, std::move(addr), nullptr);
}
ExprRef Expr::MakeBinop(BinOp op, ExprRef lhs, ExprRef rhs) {
  return std::make_shared<const Expr>(Key{}, ExprKind::kBinop, 0, 4, op,
                                      std::move(lhs), std::move(rhs));
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kConst:
      return HexStr(value_);
    case ExprKind::kRdTmp:
      return "t" + std::to_string(value_);
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

#include "src/symexec/symexpr.h"

#include <cassert>

#include "src/symexec/intern.h"
#include "src/util/hash.h"
#include "src/util/strings.h"

namespace dtaint {

namespace {

int64_t SignExt32(uint32_t v) {
  return static_cast<int64_t>(static_cast<int32_t>(v));
}

uint32_t FoldConst(BinOp op, uint32_t a, uint32_t b) {
  switch (op) {
    case BinOp::kAdd: return a + b;
    case BinOp::kSub: return a - b;
    case BinOp::kMul: return a * b;
    case BinOp::kAnd: return a & b;
    case BinOp::kOr: return a | b;
    case BinOp::kXor: return a ^ b;
    case BinOp::kShl: return b >= 32 ? 0 : a << b;
    case BinOp::kShr: return b >= 32 ? 0 : a >> b;
    case BinOp::kCmpEq: return a == b;
    case BinOp::kCmpNe: return a != b;
    case BinOp::kCmpLt:
      return static_cast<int32_t>(a) < static_cast<int32_t>(b);
    case BinOp::kCmpGe:
      return static_cast<int32_t>(a) >= static_cast<int32_t>(b);
    case BinOp::kCmpLe:
      return static_cast<int32_t>(a) <= static_cast<int32_t>(b);
    case BinOp::kCmpGt:
      return static_cast<int32_t>(a) > static_cast<int32_t>(b);
  }
  return 0;
}

}  // namespace

uint64_t SymExpr::ShapeHash(SymKind kind, uint64_t a, uint8_t size,
                            BinOp op, const SymExpr* lhs,
                            const SymExpr* rhs, std::string_view text) {
  uint64_t h = HashCombine(0x1234ABCD, static_cast<uint64_t>(kind));
  h = HashCombine(h, a);
  h = HashCombine(h, size);
  h = HashCombine(h, static_cast<uint64_t>(op));
  if (lhs) h = HashCombine(h, lhs->hash_);
  if (rhs) h = HashCombine(h, rhs->hash_);
  if (!text.empty()) h = HashCombine(h, Fnv1a(text));
  return h;
}

SymExpr::SymExpr(SymKind kind, uint64_t a, uint8_t size, BinOp op,
                 SymRef lhs, SymRef rhs, const char* text,
                 uint64_t shape_hash)
    : kind_(kind), size_(size), op_(op), a_(a), lhs_(lhs), rhs_(rhs),
      text_(text), hash_(shape_hash) {
  assert(hash_ == ShapeHash(kind_, a_, size_, op_, lhs_, rhs_, Text(text_)));
  depth_ = 1 + (lhs_ ? lhs_->depth_ : 0) + (rhs_ ? rhs_->depth_ : 0);
  kind_mask_ = static_cast<uint16_t>(KindBit(kind_) |
                                     (lhs_ ? lhs_->kind_mask_ : 0) |
                                     (rhs_ ? rhs_->kind_mask_ : 0));
  bloom_ = BloomBit(hash_) | (lhs_ ? lhs_->bloom_ : 0) |
           (rhs_ ? rhs_->bloom_ : 0);
}

SymRef SymExpr::Make(SymKind kind, uint64_t a, uint8_t size, BinOp op,
                     SymRef lhs, SymRef rhs, std::string_view text) {
  if (ScratchInterner* scratch = ScratchInterner::Current()) {
    return scratch->Intern(kind, a, size, op, lhs, rhs, text);
  }
  return ExprInterner::Global().Intern(kind, a, size, op, lhs, rhs, text);
}

SymRef SymExpr::Const(uint32_t value) {
  return Make(SymKind::kConst, value, 4, BinOp::kAdd, nullptr, nullptr);
}
SymRef SymExpr::Arg(int index) {
  return Make(SymKind::kArg, static_cast<uint64_t>(index), 4, BinOp::kAdd,
              nullptr, nullptr);
}
SymRef SymExpr::Sp0() {
  return Make(SymKind::kSp0, 0, 4, BinOp::kAdd, nullptr, nullptr);
}
SymRef SymExpr::Ret(uint32_t callsite) {
  return Make(SymKind::kRet, callsite, 4, BinOp::kAdd, nullptr, nullptr);
}
SymRef SymExpr::Heap(uint64_t id) {
  return Make(SymKind::kHeap, id, 4, BinOp::kAdd, nullptr, nullptr);
}
SymRef SymExpr::Taint(uint32_t site, std::string_view source) {
  return Make(SymKind::kTaint, site, 4, BinOp::kAdd, nullptr, nullptr,
              source);
}
SymRef SymExpr::InitReg(int reg) {
  return Make(SymKind::kInit, static_cast<uint64_t>(reg), 4, BinOp::kAdd,
              nullptr, nullptr);
}
SymRef SymExpr::Deref(SymRef addr, uint8_t size) {
  return Make(SymKind::kDeref, 0, size, BinOp::kAdd, addr, nullptr);
}

SymRef SymExpr::Bin(BinOp op, SymRef lhs, SymRef rhs) {
  // Constant folding (compares fold to 0/1, which lets the engine take
  // concrete branches deterministically).
  if (lhs->kind_ == SymKind::kConst && rhs->kind_ == SymKind::kConst) {
    return Const(FoldConst(op, lhs->const_value(), rhs->const_value()));
  }
  // Normalize subtraction-of-constant into addition.
  if (op == BinOp::kSub && rhs->kind_ == SymKind::kConst) {
    return Bin(BinOp::kAdd, lhs, Const(0u - rhs->const_value()));
  }
  if (op == BinOp::kAdd) {
    // Constant to the right.
    if (lhs->kind_ == SymKind::kConst) std::swap(lhs, rhs);
    if (rhs->kind_ == SymKind::kConst) {
      if (rhs->const_value() == 0) return lhs;
      // Re-associate: (x + c1) + c2 -> x + (c1 + c2).
      if (lhs->kind_ == SymKind::kBin && lhs->op_ == BinOp::kAdd &&
          lhs->rhs_->kind_ == SymKind::kConst) {
        uint32_t c = lhs->rhs_->const_value() + rhs->const_value();
        if (c == 0) return lhs->lhs_;
        return Make(SymKind::kBin, 0, 4, BinOp::kAdd, lhs->lhs_, Const(c));
      }
    }
  }
  // x - x -> 0.
  if (op == BinOp::kSub && Equal(lhs, rhs)) return Const(0);
  return Make(SymKind::kBin, 0, 4, op, lhs, rhs);
}

bool SymExpr::DeepEqual(const SymExpr& a, const SymExpr& b) {
  if (&a == &b) return true;
  if (a.hash_ != b.hash_) return false;
  if (a.kind_ != b.kind_ || a.a_ != b.a_ || a.size_ != b.size_ ||
      a.op_ != b.op_ || Text(a.text_) != Text(b.text_)) {
    return false;
  }
  auto deep = [](SymRef x, SymRef y) {
    return x == y || (x && y && DeepEqual(*x, *y));
  };
  return deep(a.lhs_, b.lhs_) && deep(a.rhs_, b.rhs_);
}

SymExpr::BaseOffset SymExpr::SplitBaseOffset(SymRef expr) {
  if (expr->kind_ == SymKind::kConst) {
    return {nullptr, SignExt32(expr->const_value())};
  }
  if (expr->kind_ == SymKind::kBin && expr->op_ == BinOp::kAdd &&
      expr->rhs_->kind_ == SymKind::kConst) {
    return {expr->lhs_, SignExt32(expr->rhs_->const_value())};
  }
  return {expr, 0};
}

bool SymExpr::Contains(SymRef needle) const {
  if (!needle) return false;
  if (!MayContain(*needle)) return false;
  return ContainsImpl(*needle);
}

bool SymExpr::ContainsImpl(const SymExpr& needle) const {
  if (this == &needle) return true;  // canonical nodes match by identity
  if (lhs_ && lhs_->MayContain(needle) && lhs_->ContainsImpl(needle)) {
    return true;
  }
  if (rhs_ && rhs_->MayContain(needle) && rhs_->ContainsImpl(needle)) {
    return true;
  }
  return false;
}

void SymExpr::CollectDerefs(SymRef expr, std::vector<SymRef>* out,
                            bool skip_self) {
  if (!expr->ContainsKind(SymKind::kDeref)) return;
  if (expr->kind_ == SymKind::kDeref && !skip_self) {
    out->push_back(expr);
  }
  if (expr->lhs_) CollectDerefs(expr->lhs_, out, false);
  if (expr->rhs_) CollectDerefs(expr->rhs_, out, false);
}

SymRef SymExpr::Replace(SymRef self, SymRef from, SymRef to) {
  if (Equal(self, from)) return to;
  // Subtree pruning: the kind bitmask and hash bloom prove absence
  // without walking (the self-match above is covered by the bloom —
  // every node's own hash bit is set in it).
  if (!self->MayContain(*from)) return self;
  if (!self->lhs_ && !self->rhs_) return self;
  SymRef new_lhs = self->lhs_ ? Replace(self->lhs_, from, to) : nullptr;
  SymRef new_rhs = self->rhs_ ? Replace(self->rhs_, from, to) : nullptr;
  if (new_lhs == self->lhs_ && new_rhs == self->rhs_) return self;
  if (self->kind_ == SymKind::kDeref) return Deref(new_lhs, self->size_);
  if (self->kind_ == SymKind::kBin) return Bin(self->op_, new_lhs, new_rhs);
  return self;
}

std::optional<std::pair<uint32_t, std::string>> SymExpr::FindTaint() const {
  if (kind_ == SymKind::kTaint) {
    return std::make_pair(taint_site(), std::string(taint_source()));
  }
  // Descend only into subtrees that carry taint; the leftmost-first
  // order of the original full walk is preserved.
  if (lhs_ && lhs_->IsTainted()) return lhs_->FindTaint();
  if (rhs_ && rhs_->IsTainted()) return rhs_->FindTaint();
  return std::nullopt;
}

std::string SymExpr::ToString() const {
  switch (kind_) {
    case SymKind::kConst: {
      int64_t sv = SignExt32(const_value());
      if (sv < 0) return "-" + HexStr(static_cast<uint64_t>(-sv));
      return HexStr(const_value());
    }
    case SymKind::kArg:
      return "arg" + std::to_string(arg_index());
    case SymKind::kSp0:
      return "SP";
    case SymKind::kRet:
      return "ret_{" + HexStr(ret_site()) + "}";
    case SymKind::kHeap:
      return "heap_{" + HexStr(heap_id() & 0xFFFFFFFF) + "}";
    case SymKind::kTaint:
      return "taint(" + std::string(taint_source()) + "@" +
             HexStr(taint_site()) + ")";
    case SymKind::kInit:
      return "init_r" + std::to_string(init_reg());
    case SymKind::kDeref:
      return (size_ == 1 ? "deref8(" : "deref(") + lhs_->ToString() + ")";
    case SymKind::kBin: {
      if (op_ == BinOp::kAdd && rhs_->kind_ == SymKind::kConst) {
        int64_t off = SignExt32(rhs_->const_value());
        if (off < 0) {
          return lhs_->ToString() + "-" +
                 HexStr(static_cast<uint64_t>(-off));
        }
        return lhs_->ToString() + "+" + HexStr(rhs_->const_value());
      }
      return "(" + lhs_->ToString() + " " + std::string(BinOpName(op_)) +
             " " + rhs_->ToString() + ")";
    }
  }
  return "?";
}

SymRef SymAdd(SymRef a, int64_t c) {
  return SymExpr::Bin(BinOp::kAdd, a,
                      SymExpr::Const(static_cast<uint32_t>(c)));
}

SymRef StripIndex(SymRef base) {
  while (base && base->kind() == SymKind::kBin &&
         base->binop() == BinOp::kAdd &&
         base->rhs()->kind() != SymKind::kConst) {
    base = base->lhs();
  }
  return base;
}

}  // namespace dtaint

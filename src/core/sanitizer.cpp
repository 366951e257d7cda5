#include "src/core/sanitizer.h"

namespace dtaint {

namespace {

constexpr uint32_t kSemicolon = 0x3B;

/// Does `expr` mention (contain or equal) any of the values the taint
/// flowed through, or share a memory region with one of them?
bool MentionsTracedValue(SymRef expr, const std::vector<SymRef>& traced) {
  if (!expr) return false;
  for (SymRef t : traced) {
    if (!t) continue;
    if (SymExpr::Equal(expr, t)) return true;
    if (expr->Contains(t)) return true;
    // Region view: comparing deref(buf+k) sanitizes data traced as
    // deref(buf+j) / deref(buf).
    if (expr->kind() == SymKind::kDeref && t->kind() == SymKind::kDeref) {
      auto es = SymExpr::SplitBaseOffset(expr->lhs());
      auto ts = SymExpr::SplitBaseOffset(t->lhs());
      SymRef eb = StripIndex(es.base ? es.base : expr->lhs());
      SymRef tb = StripIndex(ts.base ? ts.base : t->lhs());
      if (SymExpr::Equal(eb, tb)) return true;
    }
  }
  return false;
}

/// True when the constraint upper-bounds `side` (lhs or rhs holds the
/// tainted value) on the path that was actually taken.
bool BoundsAbove(const PathConstraint& c, bool taint_on_lhs) {
  if (taint_on_lhs) {
    // taken:  n <  x  /  n <= x   bound
    // !taken: n >  x  /  n >= x   (i.e. the "safe" side fell through)
    if (c.taken && (c.op == BinOp::kCmpLt || c.op == BinOp::kCmpLe)) {
      return true;
    }
    if (!c.taken && (c.op == BinOp::kCmpGt || c.op == BinOp::kCmpGe)) {
      return true;
    }
  } else {
    if (c.taken && (c.op == BinOp::kCmpGt || c.op == BinOp::kCmpGe)) {
      return true;
    }
    if (!c.taken && (c.op == BinOp::kCmpLt || c.op == BinOp::kCmpLe)) {
      return true;
    }
  }
  return false;
}

}  // namespace

SanitizationVerdict CheckSanitization(const TaintPath& path) {
  SanitizationVerdict verdict;

  // Loop-copy sinks: bounding the store's index term bounds the write
  // address, which sanitizes the copy regardless of the data's value
  // (e.g. `for (i = 0; i < 48 && src[i]; ++i) dst[i] = src[i]`).
  if (path.sink_store_addr) {
    for (const PathConstraint& c : path.constraints) {
      bool lhs_is_index =
          c.lhs && c.lhs->kind() != SymKind::kConst &&
          path.sink_store_addr->Contains(c.lhs);
      bool rhs_is_index =
          c.rhs && c.rhs->kind() != SymKind::kConst &&
          path.sink_store_addr->Contains(c.rhs);
      if (lhs_is_index && BoundsAbove(c, /*taint_on_lhs=*/true)) {
        verdict.sanitized = true;
        verdict.reason = "index bound: " + c.ToString();
        return verdict;
      }
      if (rhs_is_index && BoundsAbove(c, /*taint_on_lhs=*/false)) {
        verdict.sanitized = true;
        verdict.reason = "index bound: " + c.ToString();
        return verdict;
      }
    }
  }

  for (const PathConstraint& c : path.constraints) {
    const bool lhs_tainted =
        MentionsTracedValue(c.lhs, path.traced_exprs) ||
        (c.lhs && c.lhs->IsTainted());
    const bool rhs_tainted =
        MentionsTracedValue(c.rhs, path.traced_exprs) ||
        (c.rhs && c.rhs->IsTainted());
    if (!lhs_tainted && !rhs_tainted) continue;

    switch (path.vuln_class) {
      case VulnClass::kBufferOverflow: {
        // Any upper bound on the tainted value counts: n < 64 (const)
        // or n < y (symbolic y), per the paper.
        if (lhs_tainted && BoundsAbove(c, /*taint_on_lhs=*/true)) {
          verdict.sanitized = true;
          verdict.reason = "length bound: " + c.ToString();
          return verdict;
        }
        if (rhs_tainted && BoundsAbove(c, /*taint_on_lhs=*/false)) {
          verdict.sanitized = true;
          verdict.reason = "length bound: " + c.ToString();
          return verdict;
        }
        break;
      }
      case VulnClass::kCommandInjection: {
        // A semicolon filter: some byte of the command string compared
        // against ';' (deref(cmd+i) == ';' on either branch polarity).
        SymRef other = lhs_tainted ? c.rhs : c.lhs;
        bool cmp_semicolon = other &&
                             other->kind() == SymKind::kConst &&
                             other->const_value() == kSemicolon &&
                             (c.op == BinOp::kCmpEq || c.op == BinOp::kCmpNe);
        if (cmp_semicolon) {
          verdict.sanitized = true;
          verdict.reason = "semicolon filter: " + c.ToString();
          return verdict;
        }
        break;
      }
    }
  }
  return verdict;
}

std::vector<TaintPath> FilterVulnerable(std::vector<TaintPath> paths) {
  std::vector<TaintPath> vulnerable;
  for (TaintPath& path : paths) {
    if (!CheckSanitization(path).sanitized) {
      vulnerable.push_back(std::move(path));
    }
  }
  return vulnerable;
}

}  // namespace dtaint

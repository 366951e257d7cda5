#include "src/core/alias.h"

namespace dtaint {

bool IsPointerValue(SymRef value, const TypeMap& types) {
  if (!value) return false;
  if (IsPointerType(types.TypeOf(value))) return true;
  auto split = SymExpr::SplitBaseOffset(value);
  SymRef base = split.base ? split.base : value;
  switch (base->kind()) {
    case SymKind::kSp0:
    case SymKind::kHeap:
    case SymKind::kArg:
    case SymKind::kRet:
    case SymKind::kDeref:
      return true;
    default:
      return false;
  }
}

std::vector<AliasFact> CollectAliasFacts(const FunctionSummary& summary) {
  // Phase 1 (Alg. 1 lines 3-12): (d.op == deref) && u is a pointer
  // =>  ALIAS fact.
  std::vector<AliasFact> facts;
  for (const DefPair& dp : summary.def_pairs) {
    if (!dp.d || dp.d->kind() != SymKind::kDeref) continue;
    if (!dp.u) continue;
    if (IsPointerValue(dp.u, summary.types)) {
      auto split = SymExpr::SplitBaseOffset(dp.u);
      if (split.base) {
        facts.push_back({dp.d, split.base, split.offset});
      }
    }
  }
  return facts;
}

std::vector<DefPair> ComputeAliasTwins(const FunctionSummary& summary,
                                       const std::vector<AliasFact>& facts) {
  std::vector<DefPair> additions;
  if (facts.empty()) return additions;

  // DOP set: memory definitions whose location mentions pointers.
  struct DopEntry {
    const DefPair* pair;
    std::vector<SymRef> ptrs;  // GetPtrInVar(d)
  };
  std::vector<DopEntry> dop;
  for (const DefPair& dp : summary.def_pairs) {
    if (!dp.d || dp.d->kind() != SymKind::kDeref) continue;
    // Gather the base pointers occurring inside d (e.g.
    // deref(deref(arg0+0x58)+0xEC) contains base pointers arg0 and
    // deref(arg0+0x58)).
    std::vector<SymRef> ptrs;
    SymExpr::CollectDerefs(dp.d, &ptrs, /*skip_self=*/true);
    // The innermost non-deref roots are base pointers too.
    SymRef root = RootPointerOf(dp.d);
    if (root && root->kind() != SymKind::kConst) ptrs.push_back(root);
    if (!ptrs.empty()) {
      dop.push_back({&dp, std::move(ptrs)});
    }
  }

  // Phase 2 (lines 13-22): rewrite each DOP entry through every
  // matching alias: new_d = d.Replace(p, alias_loc - offset).
  for (const DopEntry& entry : dop) {
    for (SymRef ptr : entry.ptrs) {
      for (const AliasFact& fact : facts) {
        if (!SymExpr::Equal(fact.base, ptr)) continue;
        // Do not rewrite a location with an alias derived from itself
        // (deref(X) = X + k would loop).
        if (SymExpr::Equal(fact.alias_loc, entry.pair->d)) continue;
        SymRef replacement = SymAdd(fact.alias_loc, -fact.offset);
        SymRef new_d =
            SymExpr::Replace(entry.pair->d, ptr, replacement);
        if (SymExpr::Equal(new_d, entry.pair->d)) continue;
        DefPair twin = *entry.pair;
        twin.d = new_d;
        additions.push_back(std::move(twin));
      }
    }
  }
  return additions;
}

}  // namespace dtaint

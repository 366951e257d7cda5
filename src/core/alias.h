// Pointer-aliasing recognition — paper §III-C, Algorithm 1.
//
// The "move"-created alias (int *p = x; q = p) falls out of symbolic
// analysis for free: both names evaluate to the same symbolic value.
// The "store"-created alias is the interesting one:
//
//     int *p = x;  *(q+4) = p;   =>  *(*(q+4)) and *p alias
//
// i.e. whenever a definition pair says  deref(base1+off1) = base2+off2
// with a pointer-shaped right side, any location addressed through
// base2 can equivalently be addressed through deref(base1+off1)-off2.
//
// These are Algorithm 1's two phases as pure functions over a summary.
// They never rewrite a summary: the on-demand SSE oracle
// (src/core/alias_ondemand.h, after the authors' follow-up, arXiv
// 2109.12209) calls them lazily on *linked* summaries, for the
// functions the path walk and indirect-call resolution query.
#pragma once

#include <vector>

#include "src/symexec/defpairs.h"

namespace dtaint {

/// One discovered alias fact: `alias_loc` (a deref expression) holds
/// the pointer `base + offset`.
struct AliasFact {
  SymRef alias_loc = nullptr;  // d: deref(base1+off1)
  SymRef base = nullptr;       // base2
  int64_t offset = 0;          // off2
};

/// Algorithm 1 phase 1 (lines 3-12): scan the summary's definition
/// pairs for store-created aliases — deref locations whose stored
/// value IsPointerValue.
std::vector<AliasFact> CollectAliasFacts(const FunctionSummary& summary);

/// Algorithm 1 phase 2 (lines 13-22): rewrite each deref-location pair
/// through every matching fact, producing twin pairs with the location
/// renamed (new_d = d.Replace(p, alias_loc - offset)). Does not mutate
/// the summary; returns the twins in deterministic (pair, pointer,
/// fact) order. The loop is cubic in the worst case; the oracle bounds
/// what it retains (OnDemandAliasOracle).
std::vector<DefPair> ComputeAliasTwins(const FunctionSummary& summary,
                                       const std::vector<AliasFact>& facts);

/// True when the value expression may be a pointer: typed as one, or
/// rooted at the stack, a heap object, a formal argument, a call's
/// return value or a loaded value. The argument/return/load roots need
/// no type evidence: facts are collected from *linked* summaries, where
/// a callee's library-signature type observations are not visible
/// (TypeMaps do not merge across linking). This matches the SSE
/// follow-up, which compares base+offset expressions without a type
/// heuristic. Init-register values and arithmetic residues stay
/// excluded.
bool IsPointerValue(SymRef value, const TypeMap& types);

}  // namespace dtaint

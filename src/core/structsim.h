// Data-structure layout similarity — paper §III-D.
//
// Indirect calls take their target from memory, so the call graph (and
// hence data flow) breaks at them. DTaint's insight: the object passed
// to an indirectly-called function usually shares its data-structure
// layout with the functions that built the object. We therefore:
//
//  1. extract, per function, the layout of each structure it touches —
//     a multi-layer structure S = (S_1 ... S_n) where each S_i groups
//     fields (b, o, t) sharing one base address, bases are chained
//     derefs of a root pointer, and field types come from inference;
//  2. compare layouts with the paper's two gating rules (base-set
//     inclusion after root normalization; same-offset fields agree on
//     type) and the Jaccard-style similarity of Eq. (2);
//  3. resolve each symbolic indirect callsite to the address-taken
//     candidate functions whose parameter layout is most similar to
//     the layout of the object used at the callsite.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/binary/binary.h"
#include "src/cfg/cfg_builder.h"
#include "src/symexec/defpairs.h"

namespace dtaint {

class OnDemandAliasOracle;

/// One structure field: base + offset with an inferred type.
struct StructField {
  int64_t offset;
  ValueType type;

  bool operator<(const StructField& other) const {
    return offset != other.offset ? offset < other.offset
                                  : type < other.type;
  }
  bool operator==(const StructField& other) const = default;
};

/// A multi-layer structure layout rooted at one pointer. Base keys are
/// *normalized* base-path strings where the root pointer is replaced by
/// "R" (so layouts rooted at arg0 in one function and arg2 in another
/// compare equal), e.g. "R", "deref(R+0x58)".
struct StructLayout {
  SymRef root = nullptr;  // the root pointer expression in its home function
  std::map<std::string, std::vector<StructField>> groups;

  size_t FieldCount() const {
    size_t total = 0;
    for (const auto& [_, fields] : groups) total += fields.size();
    return total;
  }
  bool empty() const { return groups.empty(); }
};

/// Extracts structure layouts from a function summary: one layout per
/// root pointer (formal arguments, returned heap objects, stack
/// objects passed onward). Fields are collected from every
/// base+constant-offset memory access in def pairs and undefined uses.
std::vector<StructLayout> ExtractLayouts(const FunctionSummary& summary);

/// Paper's gating rules: base-set inclusion + same-offset same-type.
bool LayoutsCompatible(const StructLayout& a, const StructLayout& b);

/// Eq. (2): sum over aligned base groups of |A_i ∩ B_j| / |A_i ∪ B_j|.
/// Returns 0 when the layouts are incompatible.
double LayoutSimilarity(const StructLayout& a, const StructLayout& b);

/// How a callsite was resolved (IndirectResolution::similarity):
///  * >= 0  — layout-similarity score (paper Eq. (2));
///  * kExactTarget (-1) — the engine concretized the target address;
///  * kSseTarget (-2) — the target SSE matched a known function-pointer
///    store through the on-demand alias oracle.
inline constexpr double kExactTarget = -1.0;
inline constexpr double kSseTarget = -2.0;

/// A resolved indirect callsite.
struct IndirectResolution {
  std::string caller;
  uint32_t callsite = 0;
  std::vector<std::string> targets;  // best-similarity candidates
  double similarity = 0.0;
};

/// Resolves indirect callsites across the program:
///  * constant targets (dispatch-table loads the engine concretized)
///    resolve directly to the function at that address;
///  * with `sse_oracle` set (alias on), symbolic targets
///    whose SSE — directly or through an alias twin — matches a linked
///    definition pair storing a known function address resolve exactly
///    (the cross-call-boundary case layout similarity cannot see);
///  * remaining symbolic targets are matched by structure-layout
///    similarity against address-taken candidate functions (functions
///    whose address appears in .data/.rodata).
/// Writes resolved targets into each CallSite::resolved_targets and
/// returns the resolution log.
std::vector<IndirectResolution> ResolveIndirectCalls(
    Program& program, const std::map<std::string, FunctionSummary>& summaries,
    OnDemandAliasOracle* sse_oracle = nullptr);

/// Functions whose address is stored in a data section (address-taken).
std::vector<std::string> AddressTakenFunctions(const Program& program);

}  // namespace dtaint

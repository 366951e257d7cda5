#include "src/symexec/constraints.h"

#include <cstddef>
#include <new>

#include "src/symexec/intern.h"
#include "src/util/arena.h"
#include "src/util/hash.h"
#include "src/util/strings.h"

namespace dtaint {

std::string PathConstraint::ToString() const {
  std::string s = lhs->ToString() + " " + std::string(BinOpName(op)) + " " +
                  rhs->ToString();
  if (!taken) s = "!(" + s + ")";
  return s + "  @" + HexStr(site);
}

TrailCell& TrailCell::Of(const ConstraintCell* cell) {
  // PushTrail built the cell as the member of a TrailCell.
  return *std::launder(reinterpret_cast<TrailCell*>(
      reinterpret_cast<std::byte*>(const_cast<ConstraintCell*>(cell)) -
      offsetof(TrailCell, cell)));
}

ConstraintList ConstraintList::Push(const PathConstraint& c) const {
  return ConstraintList(ExprInterner::Global().InternCell(c, head_));
}

void ConstraintList::AppendTo(std::vector<PathConstraint>& out) const {
  size_t end = out.size() + size();
  out.resize(end);
  for (const ConstraintCell* cell = head_; cell; cell = cell->tail) {
    out[--end] = cell->c;
  }
}

std::vector<PathConstraint> ConstraintList::ToVector() const {
  std::vector<PathConstraint> out;
  AppendTo(out);
  return out;
}

uint64_t ConstraintCellHash(const PathConstraint& c,
                            const ConstraintCell* tail) {
  uint64_t h = HashCombine(tail ? tail->hash : kFnvOffset,
                           static_cast<uint64_t>(c.op) << 1 | c.taken);
  h = HashCombine(h, c.site);
  h = HashCombine(h, c.lhs ? c.lhs->hash() : 0);
  h = HashCombine(h, c.rhs ? c.rhs->hash() : 0);
  // Finalizer (murmur3 fmix64): the interner picks a shard from the low
  // bits and a slot from the ones above them.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  return h ^ (h >> 33);
}

ConstraintList PushTrail(BumpArena& arena, ConstraintList trail,
                         const PathConstraint& c) {
  TrailCell* cell = arena.New<TrailCell>();
  cell->cell = {c, trail.head(), ConstraintCellHash(c, trail.head()),
                static_cast<uint32_t>(trail.size() + 1), true};
  return ConstraintList(&cell->cell);
}

}  // namespace dtaint

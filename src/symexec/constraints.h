// Path constraints and the immutable, shared lists that carry them.
//
// Every definition pair and call event records the branch constraints
// active where it was recorded (paper §III-B); the sanitization check
// reads them (§IV). Records made on one path share all but the last
// few constraints, so a list is a chain of cons cells
// {constraint, tail, size}, newest first: pushing a constraint adds one
// cell and shares the whole prefix, and a record holds one pointer.
//
// Two kinds of cell, mirroring scratch and global SymExpr nodes:
//  * Trail cells. SymState::PushConstraint allocates one per push in
//    the exploration's state arena (PushTrail); forks share the
//    prefix. The engine records the state's trail head in each
//    DefPair/CallEvent, so during exploration a record's list is a
//    trail and its expressions are scratch nodes.
//  * Global cells. ExprInterner::Global() hash-conses one cell per
//    (constraint, tail) pair in its current generation, so equal lists
//    are the same pointer wherever they were built: the engine's
//    published summaries, the cache decoder and tests all meet there.
//    ScratchInterner::Publish turns a trail into its global twin once
//    per trail cell. Global cells live exactly as long as the global
//    SymExpr nodes: while an InternPin on their generation is held.
// Both kinds are trivially destructible and never freed one by one.
//
// Lists are read in push order (oldest constraint first) through
// ForEach/AppendTo, which is the order the summary codec writes and
// the path finder concatenates them in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/symexec/symexpr.h"

namespace dtaint {

class BumpArena;

/// One branch condition recorded along a path: `lhs op rhs` was
/// observed `taken` at `site`. These are the "constraint expressions"
/// checked by the sanitization phase (paper §IV).
struct PathConstraint {
  BinOp op = BinOp::kCmpEq;
  SymRef lhs = nullptr;
  SymRef rhs = nullptr;
  bool taken = true;   // whether the guard evaluated true on this path
  uint32_t site = 0;

  std::string ToString() const;
};

/// One cons cell: the newest constraint of a list and the list before
/// it. Immutable once built.
struct ConstraintCell {
  PathConstraint c;
  const ConstraintCell* tail = nullptr;  // the constraints pushed before c
  /// Structural: c's op, taken flag, site and expression hashes, mixed
  /// with the tail's hash, so a trail cell and its global twin agree.
  uint64_t hash = 0;
  uint32_t size = 0;   // constraints in the list this cell heads
  bool trail = false;  // a trail cell (state arena), not a global one
};

/// A trail cell plus the slot its global twin is memoized in (see
/// ScratchInterner::Publish). The cell is what lists point at.
struct TrailCell {
  const ConstraintCell* published = nullptr;
  ConstraintCell cell;

  /// The TrailCell around a cell with `trail` set.
  static TrailCell& Of(const ConstraintCell* cell);
};

/// A pointer-sized handle to an immutable constraint list; the default
/// handle is the empty list. Copying one costs a pointer copy, and two
/// global lists are equal iff their handles are.
class ConstraintList {
 public:
  ConstraintList() = default;
  explicit ConstraintList(const ConstraintCell* head) : head_(head) {}

  /// The global list of this list's constraints followed by `c`,
  /// hash-consed in ExprInterner::Global(). This list and c's
  /// expressions must be global.
  ConstraintList Push(const PathConstraint& c) const;

  const ConstraintCell* head() const { return head_; }
  size_t size() const { return head_ ? head_->size : 0; }
  bool empty() const { return head_ == nullptr; }

  /// Calls `fn(const PathConstraint&)` for each constraint, oldest
  /// first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const ConstraintCell* small[32];
    std::vector<const ConstraintCell*> large;
    const ConstraintCell** cells = small;
    const size_t n = size();
    if (n > std::size(small)) {
      large.resize(n);
      cells = large.data();
    }
    size_t i = n;
    for (const ConstraintCell* cell = head_; cell; cell = cell->tail) {
      cells[--i] = cell;
    }
    for (i = 0; i < n; ++i) fn(cells[i]->c);
  }

  /// Appends the constraints to `out`, oldest first.
  void AppendTo(std::vector<PathConstraint>& out) const;
  /// The constraints, oldest first.
  std::vector<PathConstraint> ToVector() const;

  friend bool operator==(ConstraintList a, ConstraintList b) {
    return a.head_ == b.head_;
  }

 private:
  const ConstraintCell* head_ = nullptr;
};

/// The hash a cell for `c` over `tail` carries (ConstraintCell::hash).
uint64_t ConstraintCellHash(const PathConstraint& c,
                            const ConstraintCell* tail);

/// `trail` followed by `c`, as a new trail cell in `arena`: not
/// interned, and valid as long as the arena is.
ConstraintList PushTrail(BumpArena& arena, ConstraintList trail,
                         const PathConstraint& c);

}  // namespace dtaint

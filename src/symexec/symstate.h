// Symbolic machine state for one exploration path.
//
// Registers map to symbolic values; memory is a map from canonical
// address expressions to stored values. Loading an address that was
// never stored yields the lazy `deref(addr)` variable description the
// paper builds everything on. Each state also carries the path's
// branch-condition trail.
//
// The state is a persistent structure: an immutable shared spine — a
// ref-counted chunked register file plus a 16-way hash-trie over
// canonical address expressions — with a small per-path delta overlay
// in front of the trie. Fork() commits the overlay into the trie
// (path-copying O(overlay) nodes) and then shares the whole spine with
// the child, so forking is O(1) in the size of the state and
// StoreMem/SetReg touch only the overlay / one register chunk. Trie
// nodes, spilled overlay arrays and the constraint trail all live in a
// per-function StateArena freed wholesale once the function's summary
// is produced; states keep the arena alive via shared_ptr, so member
// teardown order never dangles. The visited-block set is a dense
// DynamicBitset indexed by the engine's per-function block numbering,
// and a monotone taint bitmask (one bit per source class: each formal
// argument, heap/ret/sp-rooted memory, register-held) answers "could
// this path hold attacker data?" in O(1) without walking a single
// expression.
//
// Thread model: a state (and its arena) is owned by the single worker
// thread analyzing one function; spines are shared only among the
// forks of that one exploration, which is what makes the
// use_count()==1 in-place mutation fast path sound.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/isa/regs.h"
#include "src/symexec/constraints.h"
#include "src/symexec/symexpr.h"
#include "src/util/arena.h"
#include "src/util/bitset.h"

namespace dtaint {

/// Counters the copy-on-write machinery maintains per arena (i.e. per
/// function exploration); the engine folds them into the summary's
/// ExplorationStats.
struct StateStats {
  uint64_t cow_chunk_copies = 0;  // register chunks cloned on write
  uint64_t overlay_spills = 0;    // overlay commits forced by capacity
};

/// Per-function allocation context shared by every state of one
/// exploration: the bump arena backing trie nodes, overlay spill
/// arrays and constraint-trail links, plus the CoW counters. Freed
/// wholesale (arena Reset via destructor) when the last state and the
/// exploration drop their references.
struct StateArena {
  BumpArena arena;
  StateStats stats;
};

class SymState {
 public:
  /// Initial state at function entry: argument registers hold
  /// arg0..arg3, sp holds Sp0, stack slots above sp hold arg4..arg9
  /// (lazily via LoadMem), everything else InitReg (paper §III-B).
  /// The state allocates out of `arena` (a fresh one is created when
  /// omitted).
  static SymState Entry(Arch arch,
                        std::shared_ptr<StateArena> arena = nullptr);

  /// Child state sharing this state's spine: commits the overlay into
  /// the trie, then the copy is O(1) — chunk refcount bumps plus two
  /// bitset words.
  SymState Fork();

  // ---- registers -----------------------------------------------------------
  SymRef Reg(int reg) const;
  void SetReg(int reg, SymRef value);

  // ---- memory --------------------------------------------------------------
  /// Reads `size` bytes at `addr`. If nothing was stored there on this
  /// path, returns deref(addr) (and reports it as an undefined use
  /// via `was_defined=false`).
  SymRef LoadMem(SymRef addr, uint8_t size, bool* was_defined);
  /// Writes to `addr`, replacing any prior value at an equal address.
  void StoreMem(SymRef addr, SymRef value, uint8_t size);
  /// Value at an exactly-equal address, or nullptr when nothing was
  /// stored there on this path. Unlike LoadMem, never builds a deref.
  SymRef PeekMem(SymRef addr) const;

  size_t MemEntryCount() const;

  // ---- path constraints ----------------------------------------------------
  void PushConstraint(const PathConstraint& c);
  /// The trail: a list of trail cells in the state arena, shared with
  /// every fork and with every DefPair/CallEvent the engine records on
  /// this path (src/symexec/constraints.h).
  ConstraintList constraints() const { return trail_; }

  // ---- visited blocks ------------------------------------------------------
  /// `index` is the engine's dense per-function block number.
  bool VisitedBlock(int index) const;
  void MarkVisited(int index);

  // ---- taint -----------------------------------------------------------------
  /// O(1) may-hold-taint query: false iff no register or memory write
  /// on this path ever held a Taint node. Monotone: an overwrite never
  /// clears it.
  bool MayHoldTaint() const { return may_hold_taint_; }

  const std::shared_ptr<StateArena>& arena() const { return arena_; }

  int path_id = 0;

  /// One memory cell: canonical address expression -> stored value.
  struct MemCell {
    SymRef addr = nullptr;
    SymRef value = nullptr;
    uint8_t size = 0;
  };

 private:
  SymState() = default;

  static constexpr int kRegChunkSize = 8;
  static constexpr int kNumRegChunks =
      (kNumIrRegs + kRegChunkSize - 1) / kRegChunkSize;
  static constexpr int kOverlayCap = 8;

  struct RegChunk {
    SymRef regs[kRegChunkSize] = {};
  };

  // Nothing the arena holds needs a destructor run.
  static_assert(std::is_trivially_destructible_v<MemCell>);
  static_assert(std::is_trivially_destructible_v<RegChunk>);
  static_assert(std::is_trivially_destructible_v<TrailCell>);

  /// Moves every overlay cell into the trie (path-copying); afterwards
  /// the overlay is empty and the spine is safe to share.
  void CommitOverlay();
  /// Trie lookup, or nullptr.
  const MemCell* FindInTrie(SymRef addr) const;
  /// Overlay, then trie lookup, or nullptr.
  const MemCell* FindCell(SymRef addr) const;

  std::shared_ptr<StateArena> arena_;
  std::shared_ptr<RegChunk> chunks_[kNumRegChunks];
  uintptr_t mem_root_ = 0;  // tagged trie slot (see symstate.cpp); 0 = empty
  MemCell overlay_[kOverlayCap];
  uint8_t overlay_count_ = 0;
  size_t mem_count_ = 0;  // distinct addresses (overlay + trie)
  ConstraintList trail_;
  DynamicBitset visited_;
  bool may_hold_taint_ = false;
};

}  // namespace dtaint

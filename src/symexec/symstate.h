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
#include <vector>

#include "src/isa/regs.h"
#include "src/symexec/defpairs.h"
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
  uint64_t trie_nodes = 0;        // hash-trie nodes allocated
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

/// Observation hooks the engine's block-transfer memoizer attaches
/// while recording a block: every register/memory read that consults
/// state established *before* the block becomes part of the block's
/// input footprint, every write part of its output delta.
class StateTape {
 public:
  virtual ~StateTape() = default;
  virtual void OnRegRead(int reg, const SymRef& value) = 0;
  virtual void OnRegWrite(int reg, const SymRef& value) = 0;
  /// `value` is nullptr when the location was undefined on this path.
  virtual void OnMemRead(const SymRef& addr, const SymRef& value) = 0;
  virtual void OnMemWrite(const SymRef& addr, const SymRef& value,
                          uint8_t size) = 0;
};

// Taint-class bits for SymState::taint_mask(): one bit per source
// class. Bits 0..9 — a tainted value was stored through a pointer
// rooted at arg0..arg9; then heap/ret/sp-rooted and unrooted memory;
// kTaintClassReg — a register held a tainted value. The mask is
// monotone (never cleared by overwrites): it answers MAY-hold, the
// short-circuit side of IsTainted-style queries.
inline constexpr uint32_t kTaintClassArg0 = 1u << 0;  // ... arg9 = 1u<<9
inline constexpr uint32_t kTaintClassHeap = 1u << 10;
inline constexpr uint32_t kTaintClassRet = 1u << 11;
inline constexpr uint32_t kTaintClassSp = 1u << 12;
inline constexpr uint32_t kTaintClassOtherMem = 1u << 13;
inline constexpr uint32_t kTaintClassReg = 1u << 14;

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
  const SymRef& Reg(int reg) const;
  void SetReg(int reg, SymRef value);

  // ---- memory --------------------------------------------------------------
  /// Reads `size` bytes at `addr`. If nothing was stored there on this
  /// path, returns deref(addr) (and reports it as an undefined use
  /// via `was_defined=false`).
  SymRef LoadMem(const SymRef& addr, uint8_t size, bool* was_defined);
  /// Writes to `addr`, replacing any prior value at an equal address.
  void StoreMem(const SymRef& addr, SymRef value, uint8_t size);
  /// Value at an exactly-equal address, or nullptr. Does not fire the
  /// tape — this is the memoizer's footprint probe.
  SymRef PeekMem(const SymRef& addr) const;

  size_t MemEntryCount() const;

  // ---- path constraints ----------------------------------------------------
  void PushConstraint(const PathConstraint& c);
  /// The trail in push order, materialized (the engine copies it into
  /// every DefPair/CallEvent it records).
  std::vector<PathConstraint> ConstraintsSnapshot() const;
  size_t ConstraintCount() const;

  // ---- visited blocks ------------------------------------------------------
  /// `index` is the engine's dense per-function block number.
  bool VisitedBlock(int index) const;
  void MarkVisited(int index);

  // ---- taint bitmask -------------------------------------------------------
  /// Union of kTaintClass* bits observed on this path (monotone).
  uint32_t taint_mask() const { return taint_mask_; }
  /// O(1) may-hold-taint query: no stored value anywhere on this path
  /// ever contained a Taint node iff false.
  bool MayHoldTaint() const { return taint_mask_ != 0; }

  // ---- memo tape -----------------------------------------------------------
  void AttachTape(StateTape* tape) { tape_.ptr = tape; }
  void DetachTape() { tape_.ptr = nullptr; }

  const std::shared_ptr<StateArena>& arena() const { return arena_; }

  int path_id = 0;

  /// One memory cell: canonical address expression -> stored value.
  struct MemCell {
    SymRef addr;
    SymRef value;
    uint8_t size = 0;
  };

 private:
  SymState() = default;

  static constexpr int kRegChunkSize = 8;
  static constexpr int kNumRegChunks =
      (kNumIrRegs + kRegChunkSize - 1) / kRegChunkSize;
  static constexpr int kOverlayCap = 8;

  struct RegChunk {
    SymRef regs[kRegChunkSize];
  };

  /// Constraint-trail link (arena-allocated, immutable once pushed;
  /// forks share the prefix).
  struct TrailNode {
    PathConstraint c;
    const TrailNode* prev = nullptr;
  };

  /// Tape pointer that never survives a copy or move: a forked or
  /// queued state must not keep feeding a recorder attached to its
  /// parent.
  struct TapeRef {
    StateTape* ptr = nullptr;
    TapeRef() = default;
    TapeRef(const TapeRef&) {}
    TapeRef& operator=(const TapeRef&) { return *this; }
    TapeRef(TapeRef&&) noexcept {}
    TapeRef& operator=(TapeRef&&) noexcept { return *this; }
  };

  void NoteTaintedStore(const SymRef& addr);
  /// Moves every overlay cell into the trie (path-copying); afterwards
  /// the overlay is empty and the spine is safe to share.
  void CommitOverlay();
  /// Trie lookup, or nullptr.
  const MemCell* FindInTrie(const SymRef& addr) const;
  /// Overlay, then trie lookup, or nullptr.
  const MemCell* FindCell(const SymRef& addr) const;

  TapeRef tape_;

  std::shared_ptr<StateArena> arena_;
  std::shared_ptr<RegChunk> chunks_[kNumRegChunks];
  uintptr_t mem_root_ = 0;  // tagged trie slot (see symstate.cpp); 0 = empty
  MemCell overlay_[kOverlayCap];
  uint8_t overlay_count_ = 0;
  size_t mem_count_ = 0;  // distinct addresses (overlay + trie)
  const TrailNode* trail_ = nullptr;
  uint32_t trail_len_ = 0;
  DynamicBitset visited_;
  uint32_t taint_mask_ = 0;
};

}  // namespace dtaint

#include "src/symexec/symstate.h"

#include <cassert>

#include "src/ir/expr.h"

namespace dtaint {

namespace {

// ---- hash-trie memory ------------------------------------------------------
//
// A 16-way trie over the 64-bit address-expression hash, 4 bits per
// level. Nodes and leaves are immutable once published: an insert
// path-copies the node chain from the root down (≤16 levels, ~2 in
// practice), so every prior state keeps seeing its own root. Slots are
// tagged pointers: low bit set = MemLeaf (all cells sharing one full
// hash), clear = interior MemNode. Everything lives in the owning
// exploration's StateArena and is trivially destructible (a MemCell
// holds two plain SymRefs), so the arena registers no destructor for
// any of it and a reset just frees the chunks.

struct MemLeaf {
  uint64_t hash = 0;
  uint32_t count = 0;
  const SymState::MemCell* cells = nullptr;
};

struct MemNode {
  uintptr_t slots[16] = {};
};

constexpr uintptr_t kLeafTag = 1;

bool IsLeaf(uintptr_t slot) { return (slot & kLeafTag) != 0; }
const MemLeaf* AsLeaf(uintptr_t slot) {
  return reinterpret_cast<const MemLeaf*>(slot & ~kLeafTag);
}
const MemNode* AsNode(uintptr_t slot) {
  return reinterpret_cast<const MemNode*>(slot);
}
uintptr_t LeafSlot(const MemLeaf* leaf) {
  return reinterpret_cast<uintptr_t>(leaf) | kLeafTag;
}

/// New leaf = `old` (may be null) with `cell` replacing the
/// equal-address entry or appended. `added` reports whether the
/// address is new to the leaf.
const MemLeaf* LeafWith(StateArena& sa, const MemLeaf* old, uint64_t hash,
                        const SymState::MemCell& cell, bool* added) {
  uint32_t n = old ? old->count : 0;
  int replace = -1;
  for (uint32_t i = 0; i < n; ++i) {
    if (SymExpr::Equal(old->cells[i].addr, cell.addr)) {
      replace = static_cast<int>(i);
      break;
    }
  }
  uint32_t new_n = replace >= 0 ? n : n + 1;
  auto* cells = sa.arena.NewArray<SymState::MemCell>(new_n);
  for (uint32_t i = 0; i < n; ++i) cells[i] = old->cells[i];
  cells[replace >= 0 ? static_cast<uint32_t>(replace) : n] = cell;
  auto* leaf = sa.arena.New<MemLeaf>();
  leaf->hash = hash;
  leaf->count = new_n;
  leaf->cells = cells;
  *added = replace < 0;
  return leaf;
}

/// Persistent insert: returns the slot of the copied subtree.
uintptr_t InsertSlot(StateArena& sa, uintptr_t slot, int shift,
                     uint64_t hash, const SymState::MemCell& cell,
                     bool* added) {
  if (!slot) return LeafSlot(LeafWith(sa, nullptr, hash, cell, added));
  if (IsLeaf(slot)) {
    const MemLeaf* leaf = AsLeaf(slot);
    if (leaf->hash == hash) {
      return LeafSlot(LeafWith(sa, leaf, hash, cell, added));
    }
    // Hash prefixes diverge somewhere below: push the old leaf one
    // level down and recurse — distinct 64-bit hashes guarantee a
    // distinguishing nibble before the hash runs out.
    auto* node = sa.arena.New<MemNode>();
    node->slots[(leaf->hash >> shift) & 15] = slot;
    uintptr_t* target = &node->slots[(hash >> shift) & 15];
    *target = InsertSlot(sa, *target, shift + 4, hash, cell, added);
    return reinterpret_cast<uintptr_t>(node);
  }
  auto* node = sa.arena.New<MemNode>(*AsNode(slot));
  uintptr_t* target = &node->slots[(hash >> shift) & 15];
  *target = InsertSlot(sa, *target, shift + 4, hash, cell, added);
  return reinterpret_cast<uintptr_t>(node);
}

const SymState::MemCell* FindSlot(uintptr_t slot, uint64_t hash, SymRef addr) {
  int shift = 0;
  while (slot) {
    if (IsLeaf(slot)) {
      const MemLeaf* leaf = AsLeaf(slot);
      if (leaf->hash != hash) return nullptr;
      for (uint32_t i = 0; i < leaf->count; ++i) {
        if (SymExpr::Equal(leaf->cells[i].addr, addr)) return &leaf->cells[i];
      }
      return nullptr;
    }
    slot = AsNode(slot)->slots[(hash >> shift) & 15];
    shift += 4;
  }
  return nullptr;
}

}  // namespace

SymState SymState::Entry(Arch arch, std::shared_ptr<StateArena> arena) {
  SymState state;
  const CallingConvention& cc = ConventionFor(arch);
  state.arena_ = arena ? std::move(arena) : std::make_shared<StateArena>();
  for (int c = 0; c < kNumRegChunks; ++c) {
    state.chunks_[c] = std::make_shared<RegChunk>();
  }
  for (int r = 0; r < kNumIrRegs; ++r) {
    state.chunks_[r / kRegChunkSize]->regs[r % kRegChunkSize] =
        SymExpr::InitReg(r);
  }
  for (int i = 0; i < kNumRegArgs; ++i) {
    int r = cc.arg_regs[i];
    state.chunks_[r / kRegChunkSize]->regs[r % kRegChunkSize] =
        SymExpr::Arg(i);
  }
  state.chunks_[kRegSp / kRegChunkSize]->regs[kRegSp % kRegChunkSize] =
      SymExpr::Sp0();
  // Stack-passed arguments arg4..arg9 live at [Sp0 + k]; seed them so a
  // load finds the argument symbol rather than an anonymous deref.
  for (int i = kNumRegArgs; i < kMaxModeledArgs; ++i) {
    SymRef slot = SymAdd(SymExpr::Sp0(), cc.StackArgOffset(i));
    state.StoreMem(slot, SymExpr::Arg(i), 4);
  }
  return state;
}

SymState SymState::Fork() {
  CommitOverlay();
  return *this;  // shares the committed spine
}

SymRef SymState::Reg(int reg) const {
  assert(reg >= 0 && reg < kNumIrRegs);
  return chunks_[reg / kRegChunkSize]->regs[reg % kRegChunkSize];
}

void SymState::SetReg(int reg, SymRef value) {
  assert(reg >= 0 && reg < kNumIrRegs);
  if (value && value->IsTainted()) may_hold_taint_ = true;
  std::shared_ptr<RegChunk>& chunk = chunks_[reg / kRegChunkSize];
  // Sharing is confined to one exploration on one thread, so the
  // use_count check cannot race: a count of 1 proves exclusivity.
  if (chunk.use_count() > 1) {
    chunk = std::make_shared<RegChunk>(*chunk);
    ++arena_->stats.cow_chunk_copies;
  }
  chunk->regs[reg % kRegChunkSize] = value;
}

void SymState::CommitOverlay() {
  for (int i = 0; i < overlay_count_; ++i) {
    MemCell& cell = overlay_[i];
    bool added = false;  // already counted when the cell entered the overlay
    mem_root_ =
        InsertSlot(*arena_, mem_root_, 0, cell.addr->hash(), cell, &added);
    cell = MemCell{};
  }
  overlay_count_ = 0;
}

const SymState::MemCell* SymState::FindInTrie(SymRef addr) const {
  return FindSlot(mem_root_, addr->hash(), addr);
}

const SymState::MemCell* SymState::FindCell(SymRef addr) const {
  for (int i = 0; i < overlay_count_; ++i) {
    if (SymExpr::Equal(overlay_[i].addr, addr)) return &overlay_[i];
  }
  return FindInTrie(addr);
}

SymRef SymState::LoadMem(SymRef addr, uint8_t size, bool* was_defined) {
  const MemCell* cell = FindCell(addr);
  if (was_defined) *was_defined = cell != nullptr;
  return cell ? cell->value : SymExpr::Deref(addr, size);
}

void SymState::StoreMem(SymRef addr, SymRef value, uint8_t size) {
  if (value && value->IsTainted()) may_hold_taint_ = true;
  for (int i = 0; i < overlay_count_; ++i) {
    if (SymExpr::Equal(overlay_[i].addr, addr)) {
      overlay_[i].value = value;
      overlay_[i].size = size;
      return;
    }
  }
  if (!FindInTrie(addr)) ++mem_count_;
  if (overlay_count_ == kOverlayCap) {
    CommitOverlay();
    ++arena_->stats.overlay_spills;
  }
  overlay_[overlay_count_++] = MemCell{addr, value, size};
}

SymRef SymState::PeekMem(SymRef addr) const {
  const MemCell* cell = FindCell(addr);
  return cell ? cell->value : nullptr;
}

size_t SymState::MemEntryCount() const { return mem_count_; }

void SymState::PushConstraint(const PathConstraint& c) {
  trail_ = PushTrail(arena_->arena, trail_, c);
}

bool SymState::VisitedBlock(int index) const {
  return visited_.Test(static_cast<size_t>(index));
}

void SymState::MarkVisited(int index) {
  visited_.Set(static_cast<size_t>(index));
}

}  // namespace dtaint

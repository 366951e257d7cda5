#include "src/symexec/intern.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <new>
#include <utility>

#include "src/obs/metrics.h"

namespace dtaint {

namespace {

/// Non-owning view of an arena node: an aliasing shared_ptr with no
/// control block. Copying it performs no atomic operations.
SymRef NonOwningRef(const SymExpr* node) {
  return SymRef(SymRef(), node);
}

}  // namespace

/// One lock stripe: an open-addressed pointer table plus the arena its
/// nodes live in. Nodes are placement-new'd into arena blocks; within a
/// generation the table only grows, and Recycle() drops the whole
/// generation at once.
struct ExprInterner::Shard {
  static constexpr size_t kInitialSlots = 1024;   // power of two
  static constexpr size_t kArenaBlockBytes = 64 * 1024;

  /// The node's hash lives next to its pointer so a probe rejects
  /// non-matching slots without dereferencing the (cold) node — on
  /// miss-heavy workloads the table is the working set, and touching
  /// one line per probe instead of two is the difference that shows.
  struct Slot {
    uint64_t hash = 0;
    const SymExpr* node = nullptr;
  };

  std::mutex mu;
  std::vector<Slot> slots = std::vector<Slot>(kInitialSlots);
  size_t used = 0;      // nodes of the current generation
  uint64_t created = 0;  // nodes ever created

  std::vector<std::unique_ptr<std::byte[]>> arena;
  size_t arena_pos = 0;       // offset into the current (last) block
  uint64_t arena_bytes = 0;   // total ever reserved across blocks
  // Nodes whose destructor frees heap memory (a taint node's source
  // name); every other node is trivially dropped with its arena block.
  std::vector<SymExpr*> owners;

  uint64_t hits = 0;
  uint64_t contended = 0;

  ~Shard() { DestroyOwners(); }

  void DestroyOwners() {
    for (SymExpr* node : owners) node->~SymExpr();
    owners.clear();
  }

  /// Drops the generation: its nodes, their arena and the grown table.
  void Recycle() {
    DestroyOwners();
    arena.clear();
    arena_pos = 0;
    std::vector<Slot>(kInitialSlots).swap(slots);
    used = 0;
  }

  void* Allocate(size_t size, size_t align) {
    size_t pos = (arena_pos + align - 1) & ~(align - 1);
    if (arena.empty() || pos + size > kArenaBlockBytes) {
      arena.push_back(std::make_unique<std::byte[]>(kArenaBlockBytes));
      arena_bytes += kArenaBlockBytes;
      pos = 0;
    }
    arena_pos = pos + size;
    return arena.back().get() + pos;
  }

  void Grow() {
    std::vector<Slot> bigger(slots.size() * 2);
    size_t mask = bigger.size() - 1;
    for (const Slot& slot : slots) {
      if (!slot.node) continue;
      size_t i = (slot.hash >> 6) & mask;
      while (bigger[i].node) i = (i + 1) & mask;
      bigger[i] = slot;
    }
    slots = std::move(bigger);
  }
};

ExprInterner::ExprInterner() : shards_(new Shard[kShards]) {}

ExprInterner::~ExprInterner() = default;

ExprInterner& ExprInterner::Global() {
  static ExprInterner* interner = new ExprInterner();
  return *interner;
}

ExprInterner::Shard& ExprInterner::ShardFor(uint64_t hash) {
  return shards_[hash & (kShards - 1)];
}

SymRef ExprInterner::Intern(SymKind kind, uint64_t a, uint8_t size,
                            BinOp op, SymRef lhs, SymRef rhs,
                            std::string text) {
  // A caller without a pin may keep what it gets for good, so the
  // generation can no longer be recycled. The flag is set under
  // pin_mu_, which a recycle holds throughout: this call either stops
  // the recycle or runs after it.
  if (pins_.load(std::memory_order_relaxed) == 0 &&
      !unpinned_use_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(pin_mu_);
    unpinned_use_.store(true, std::memory_order_release);
  }

  // A handful of leaf shapes (small constants, formal args, SP0,
  // initial registers) account for a large share of all factory calls.
  // They get a lock-free direct-mapped cache: one load on a hit, no
  // hash, no shard lock. Misses fall through to the table once and
  // then publish the canonical node into the cache slot.
  std::atomic<const SymExpr*>* leaf_slot = nullptr;
  if (!lhs && !rhs && size == 4 && op == BinOp::kAdd && text.empty()) {
    switch (kind) {
      case SymKind::kConst:
        if (a < kLeafConsts) leaf_slot = &leaf_consts_[a];
        break;
      case SymKind::kArg:
        if (a < kLeafArgs) leaf_slot = &leaf_args_[a];
        break;
      case SymKind::kInit:
        if (a < kLeafRegs) leaf_slot = &leaf_regs_[a];
        break;
      case SymKind::kSp0:
        leaf_slot = &leaf_sp0_;
        break;
      default:
        break;
    }
    if (leaf_slot) {
      if (const SymExpr* hit = leaf_slot->load(std::memory_order_acquire)) {
        leaf_hits_.fetch_add(1, std::memory_order_relaxed);
        return NonOwningRef(hit);
      }
    }
  }

  const uint64_t h = SymExpr::ShapeHash(kind, a, size, op, lhs.get(),
                                        rhs.get(), text);
  Shard& shard = ShardFor(h);

  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    ++shard.contended;
  }

  const size_t mask = shard.slots.size() - 1;
  size_t i = (h >> 6) & mask;
  for (; shard.slots[i].node; i = (i + 1) & mask) {
    if (shard.slots[i].hash != h) continue;
    const SymExpr* node = shard.slots[i].node;
    if (node->kind_ == kind && node->a_ == a && node->size_ == size &&
        node->op_ == op && node->lhs_.get() == lhs.get() &&
        node->rhs_.get() == rhs.get() && node->text_ == text) {
      ++shard.hits;
      if (leaf_slot) leaf_slot->store(node, std::memory_order_release);
      return NonOwningRef(node);
    }
  }

  if (shard.used + 1 > shard.slots.size() / 2) {
    shard.Grow();
    const size_t grown_mask = shard.slots.size() - 1;
    i = (h >> 6) & grown_mask;
    while (shard.slots[i].node) i = (i + 1) & grown_mask;
  }

  void* mem = shard.Allocate(sizeof(SymExpr), alignof(SymExpr));
  SymExpr* node = new (mem)
      SymExpr(kind, a, size, op, std::move(lhs), std::move(rhs),
              std::move(text), h);
  shard.slots[i] = {h, node};
  ++shard.used;
  ++shard.created;
  if (!node->text_.empty()) shard.owners.push_back(node);
  if (leaf_slot) leaf_slot->store(node, std::memory_order_release);
  return NonOwningRef(node);
}

InternPin ExprInterner::Pin() {
  std::lock_guard<std::mutex> lock(pin_mu_);
  if (pins_.load(std::memory_order_relaxed) == 0) TryRecycle();
  pins_.fetch_add(1, std::memory_order_relaxed);
  return InternPin(this, [](ExprInterner* self) { self->Unpin(); });
}

void ExprInterner::Unpin() {
  std::lock_guard<std::mutex> lock(pin_mu_);
  pins_.fetch_sub(1, std::memory_order_relaxed);
}

void ExprInterner::TryRecycle() {
  // With pin_mu_ held and no pin outstanding nothing can be interning:
  // pinned callers have released their pins, and an unpinned one would
  // have set the flag (under pin_mu_) before touching any node.
  if (unpinned_use_.load(std::memory_order_relaxed)) return;
  bool recycled = false;
  for (size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);  // stats() may be reading
    if (shard.used == 0) continue;
    shard.Recycle();
    recycled = true;
  }
  if (!recycled) return;
  auto clear = [](std::atomic<const SymExpr*>& slot) {
    slot.store(nullptr, std::memory_order_relaxed);
  };
  for (auto& slot : leaf_consts_) clear(slot);
  for (auto& slot : leaf_args_) clear(slot);
  for (auto& slot : leaf_regs_) clear(slot);
  clear(leaf_sp0_);
  recycles_.fetch_add(1, std::memory_order_relaxed);
}

InternStats ExprInterner::stats() const {
  InternStats total;
  total.hits = leaf_hits_.load(std::memory_order_relaxed);
  total.recycles = recycles_.load(std::memory_order_relaxed);
  for (size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    total.nodes += shard.created;
    total.resident_nodes += shard.used;
    total.hits += shard.hits;
    total.bytes += shard.arena_bytes;
    total.contended += shard.contended;
  }
  return total;
}

void ExprInterner::PublishMetrics() {
  InternStats now = stats();
  std::lock_guard<std::mutex> lock(publish_mu_);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.counter("intern.nodes").Add(now.nodes - published_.nodes);
  registry.counter("intern.hits").Add(now.hits - published_.hits);
  registry.counter("intern.bytes").Add(now.bytes - published_.bytes);
  registry.counter("intern.contended")
      .Add(now.contended - published_.contended);
  registry.counter("intern.recycles").Add(now.recycles - published_.recycles);
  registry.gauge("intern.resident_nodes")
      .Set(static_cast<double>(now.resident_nodes));
  published_ = now;
}

}  // namespace dtaint

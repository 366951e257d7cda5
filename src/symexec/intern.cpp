#include "src/symexec/intern.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <new>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/arena.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace dtaint {

namespace {

/// Open-addressed {hash, pointer} table of one shard. The hash lives
/// next to its pointer so a probe rejects non-matching slots without
/// dereferencing the (cold) entry — on miss-heavy workloads the table
/// is the working set, and touching one line per probe instead of two
/// is the difference that shows. The low 6 hash bits chose the shard,
/// so slots are indexed by the bits above them.
template <typename Entry>
class ProbeTable {
 public:
  /// The entry of hash `h` that `same` accepts, or nullptr; a miss
  /// leaves `*free` at the slot Insert will fill.
  template <typename Same>
  const Entry* Find(uint64_t h, Same same, size_t* free) const {
    const size_t mask = slots_.size() - 1;
    size_t i = (h >> 6) & mask;
    for (; slots_[i].entry; i = (i + 1) & mask) {
      if (slots_[i].hash == h && same(slots_[i].entry)) {
        return slots_[i].entry;
      }
    }
    *free = i;
    return nullptr;
  }

  /// Adds `entry` at the slot a missing Find reported, growing first
  /// when the table would pass half load.
  void Insert(uint64_t h, const Entry* entry, size_t free) {
    if (used_ + 1 > slots_.size() / 2) {
      Grow();
      const size_t mask = slots_.size() - 1;
      free = (h >> 6) & mask;
      while (slots_[free].entry) free = (free + 1) & mask;
    }
    slots_[free] = {h, entry};
    ++used_;
  }

  /// Back to an empty table of the initial size.
  void Reset() {
    std::vector<Slot>(ExprInterner::kInitialSlots).swap(slots_);
    used_ = 0;
  }

  size_t used() const { return used_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t hash = 0;
    const Entry* entry = nullptr;
  };

  void Grow() {
    std::vector<Slot> bigger(slots_.size() * 2);
    const size_t mask = bigger.size() - 1;
    for (const Slot& slot : slots_) {
      if (!slot.entry) continue;
      size_t i = (slot.hash >> 6) & mask;
      while (bigger[i].entry) i = (i + 1) & mask;
      bigger[i] = slot;
    }
    slots_ = std::move(bigger);
  }

  std::vector<Slot> slots_ = std::vector<Slot>(ExprInterner::kInitialSlots);
  size_t used_ = 0;
};

bool SameCell(const ConstraintCell* cell, const PathConstraint& c,
              const ConstraintCell* tail) {
  return cell->tail == tail && cell->c.lhs == c.lhs &&
         cell->c.rhs == c.rhs && cell->c.site == c.site &&
         cell->c.op == c.op && cell->c.taken == c.taken;
}

}  // namespace

/// One lock stripe: a table of nodes and one of constraint-list cells,
/// each with the arena its entries live in. Within a generation the
/// tables only grow, and Recycle() drops the whole generation at once.
struct ExprInterner::Shard {
  static constexpr size_t kArenaBlockBytes = 64 * 1024;

  std::mutex mu;
  ProbeTable<SymExpr> nodes;
  uint64_t created = 0;  // nodes ever created
  BumpArena arena{kArenaBlockBytes};  // nodes and their names
  uint64_t recycled_bytes = 0;  // arena bytes of recycled generations
  uint64_t hits = 0;

  ProbeTable<ConstraintCell> cells;
  uint64_t cells_created = 0;
  BumpArena cell_arena;
  uint64_t cell_hits = 0;

  uint64_t contended = 0;

  /// Drops the generation: its nodes and cells, their arenas and the
  /// grown tables.
  void Recycle() {
    recycled_bytes += arena.bytes_reserved();
    arena.Reset();
    nodes.Reset();
    cell_arena.Reset();
    cells.Reset();
  }

  /// Locks `mu`, counting the acquisitions that had to wait.
  std::unique_lock<std::mutex> Lock() {
    std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      lock.lock();
      ++contended;
    }
    return lock;
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

void ExprInterner::NoteUse() {
  // A caller without a pin may keep what it gets for good, so the
  // generation can no longer be recycled. The flag is set under
  // pin_mu_, which a recycle holds throughout: this call either stops
  // the recycle or runs after it.
  if (pins_.load(std::memory_order_relaxed) == 0 &&
      !unpinned_use_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(pin_mu_);
    unpinned_use_.store(true, std::memory_order_release);
  }
}

SymRef ExprInterner::Intern(SymKind kind, uint64_t a, uint8_t size,
                            BinOp op, SymRef lhs, SymRef rhs,
                            std::string_view text) {
  NoteUse();
  assert((!lhs || !lhs->scratch_) && (!rhs || !rhs->scratch_));
  // A handful of leaf shapes account for a large share of all factory
  // calls: one load on a hit, no hash, no shard lock. Misses fall
  // through to the table once and then publish the canonical node into
  // the cache slot.
  const int leaf = LeafSlot(kind, a, size, op, lhs, rhs, text);
  std::atomic<const SymExpr*>* leaf_slot =
      leaf >= 0 ? &leaves_[leaf] : nullptr;
  if (leaf_slot) {
    if (const SymExpr* hit = leaf_slot->load(std::memory_order_acquire)) {
      leaf_hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
  }

  const uint64_t h = SymExpr::ShapeHash(kind, a, size, op, lhs, rhs, text);
  Shard& shard = ShardFor(h);
  std::unique_lock<std::mutex> lock = shard.Lock();

  size_t free = 0;
  const SymExpr* node = shard.nodes.Find(
      h,
      [&](const SymExpr* n) {
        return n->HasShape(kind, a, size, op, lhs, rhs, text);
      },
      &free);
  if (node) {
    ++shard.hits;
  } else {
    const char* stored =
        SymExpr::StoreText(text, [&shard](size_t n, size_t align) {
          return shard.arena.Alloc(n, align);
        });
    node = new (shard.arena.Alloc(sizeof(SymExpr), alignof(SymExpr)))
        SymExpr(kind, a, size, op, lhs, rhs, stored, h);
    shard.nodes.Insert(h, node, free);
    ++shard.created;
  }
  if (leaf_slot) leaf_slot->store(node, std::memory_order_release);
  return node;
}

const ConstraintCell* ExprInterner::InternCell(const PathConstraint& c,
                                               const ConstraintCell* tail) {
  NoteUse();
  assert((!c.lhs || !c.lhs->scratch_) && (!c.rhs || !c.rhs->scratch_));
  assert(!tail || !tail->trail);
  const uint64_t h = ConstraintCellHash(c, tail);
  Shard& shard = ShardFor(h);
  std::unique_lock<std::mutex> lock = shard.Lock();

  size_t free = 0;
  if (const ConstraintCell* cell = shard.cells.Find(
          h, [&](const ConstraintCell* e) { return SameCell(e, c, tail); },
          &free)) {
    ++shard.cell_hits;
    return cell;
  }
  const uint32_t size = tail ? tail->size + 1 : 1;
  const ConstraintCell* cell = shard.cell_arena.New<ConstraintCell>(
      ConstraintCell{c, tail, h, size, false});
  shard.cells.Insert(h, cell, free);
  ++shard.cells_created;
  return cell;
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
    if (shard.nodes.used() == 0 && shard.cells.used() == 0) continue;
    shard.Recycle();
    recycled = true;
  }
  if (!recycled) return;
  for (auto& slot : leaves_) slot.store(nullptr, std::memory_order_relaxed);
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
    total.resident_nodes += shard.nodes.used();
    total.hits += shard.hits;
    total.bytes += shard.recycled_bytes + shard.arena.bytes_reserved();
    total.contended += shard.contended;
    total.list_cells += shard.cells_created;
    total.list_hits += shard.cell_hits;
    total.table_slots += shard.nodes.capacity() + shard.cells.capacity();
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
  registry.counter("intern.list_cells")
      .Add(now.list_cells - published_.list_cells);
  registry.counter("intern.list_hits")
      .Add(now.list_hits - published_.list_hits);
  registry.gauge("intern.resident_nodes")
      .Set(static_cast<double>(now.resident_nodes));
  published_ = now;
}

// ---- ScratchInterner -------------------------------------------------------

constinit thread_local ScratchInterner* ScratchInterner::current_ = nullptr;

ScratchInterner::ScratchInterner() = default;

ScratchInterner::~ScratchInterner() {
  for (auto& block : arena_) {
    ASAN_UNPOISON_MEMORY_REGION(block.get(), kArenaBlockBytes);
  }
}

SymRef ScratchInterner::Intern(SymKind kind, uint64_t a, uint8_t size,
                               BinOp op, SymRef lhs, SymRef rhs,
                               std::string_view text) {
  assert((!lhs || lhs->scratch_) && (!rhs || rhs->scratch_));
  if (lhs || rhs) {
    Prefix* lp = lhs ? &PrefixOf(lhs) : nullptr;
    Prefix* rp = rhs ? &PrefixOf(rhs) : nullptr;
    if (lp && lp->first_parent &&
        lp->first_parent->HasShape(kind, a, size, op, lhs, rhs, text)) {
      ++hits_.lhs_link;
      return lp->first_parent;
    }
    if (rp && rp->first_parent &&
        rp->first_parent->HasShape(kind, a, size, op, lhs, rhs, text)) {
      ++hits_.rhs_link;
      return rp->first_parent;
    }
    // A node over a child would have given that child a parent, so a
    // parentless child proves the shape new. Linking it keeps it
    // findable without the table.
    const bool lhs_free = lp && !lp->first_parent;
    const bool rhs_free = rp && !rp->first_parent;
    if (!lhs_free && !rhs_free) {
      return InternInTable(kind, a, size, op, lhs, rhs, text);
    }
    const SymExpr* node =
        Create(kind, a, size, op, lhs, rhs, text,
               SymExpr::ShapeHash(kind, a, size, op, lhs, rhs, text));
    if (lhs_free) lp->first_parent = node;
    if (rhs_free) rp->first_parent = node;
    return node;
  }

  const int leaf = LeafSlot(kind, a, size, op, lhs, rhs, text);
  const SymExpr** slot = nullptr;
  uint64_t* hit_count = nullptr;
  if (leaf >= 0) {
    slot = &leaves_[leaf];
    hit_count = &hits_.leaf;
  } else if (kind == SymKind::kInit && size == 4 && op == BinOp::kAdd &&
             text.empty() && a >= kFreshInitBase &&
             a - kFreshInitBase < kMaxFresh) {
    const size_t salt = a - kFreshInitBase;
    if (salt >= fresh_.size()) fresh_.resize(salt + 1);
    slot = &fresh_[salt];
    hit_count = &hits_.fresh;
  } else {
    return InternInTable(kind, a, size, op, lhs, rhs, text);
  }
  if (*slot) {
    ++*hit_count;
    return *slot;
  }
  *slot = Create(kind, a, size, op, lhs, rhs, text,
                 SymExpr::ShapeHash(kind, a, size, op, lhs, rhs, text));
  return *slot;
}

const SymExpr* ScratchInterner::InternInTable(SymKind kind, uint64_t a,
                                              uint8_t size, BinOp op,
                                              SymRef lhs, SymRef rhs,
                                              std::string_view text) {
  const uint64_t h = SymExpr::ShapeHash(kind, a, size, op, lhs, rhs, text);
  size_t mask = slots_.size() - 1;
  size_t i = h & mask;
  for (; slots_[i].node; i = (i + 1) & mask) {
    if (slots_[i].hash != h) continue;
    const SymExpr* node = slots_[i].node;
    if (node->HasShape(kind, a, size, op, lhs, rhs, text)) {
      ++hits_.table;
      return node;
    }
  }
  if (table_used_ + 1 > slots_.size() / 2) {
    Grow();
    mask = slots_.size() - 1;
    i = h & mask;
    while (slots_[i].node) i = (i + 1) & mask;
  }
  const SymExpr* node = Create(kind, a, size, op, lhs, rhs, text, h);
  slots_[i] = {h, node};
  ++table_used_;
  return node;
}

const SymExpr* ScratchInterner::Create(SymKind kind, uint64_t a,
                                       uint8_t size, BinOp op, SymRef lhs,
                                       SymRef rhs, std::string_view text,
                                       uint64_t hash) {
  static_assert(sizeof(Prefix) % alignof(SymExpr) == 0);
  static_assert(alignof(Prefix) <= alignof(SymExpr));
  const char* stored = SymExpr::StoreText(
      text, [this](size_t n, size_t align) { return Allocate(n, align); });
  auto* mem = static_cast<std::byte*>(
      Allocate(sizeof(Prefix) + sizeof(SymExpr), alignof(SymExpr)));
  new (mem) Prefix{};
  SymExpr* node = new (mem + sizeof(Prefix))
      SymExpr(kind, a, size, op, lhs, rhs, stored, hash);
  node->scratch_ = true;
  ++used_;
  return node;
}

ScratchInterner::Prefix& ScratchInterner::PrefixOf(const SymExpr* node) {
  // Create placed the prefix right before the node in the same block.
  return *std::launder(reinterpret_cast<Prefix*>(
      reinterpret_cast<std::byte*>(const_cast<SymExpr*>(node)) -
      sizeof(Prefix)));
}

SymRef ScratchInterner::Publish(SymRef expr) {
  if (!expr || !expr->scratch_) return expr;
  Prefix& prefix = PrefixOf(expr);
  if (!prefix.published) {
    // Exact fields, no factory: the scratch node is normalized already,
    // and its published children are the global twins of its own. The
    // global interner copies the name out of the scratch arena.
    prefix.published = ExprInterner::Global().Intern(
        expr->kind_, expr->a_, expr->size_, expr->op_, Publish(expr->lhs_),
        Publish(expr->rhs_), expr->taint_source());
  }
  return prefix.published;
}

ConstraintList ScratchInterner::Publish(ConstraintList list) {
  // Walk down to the first cell that is global or already has a twin,
  // then intern the cells above it oldest first, each over the twin of
  // its tail.
  unpublished_.clear();
  const ConstraintCell* base = list.head();
  for (; base && base->trail; base = base->tail) {
    if (const ConstraintCell* twin = TrailCell::Of(base).published) {
      base = twin;
      break;
    }
    unpublished_.push_back(base);
  }
  for (auto it = unpublished_.rbegin(); it != unpublished_.rend(); ++it) {
    PathConstraint c = (*it)->c;
    c.lhs = Publish(c.lhs);
    c.rhs = Publish(c.rhs);
    base = ExprInterner::Global().InternCell(c, base);
    TrailCell::Of(*it).published = base;
  }
  return ConstraintList(base);
}

void ScratchInterner::Reset() {
  outsized_.clear();
  if (table_used_ > 0) {
    // Clearing costs the table's size, which the last function's
    // growth bounds by 8x its occupancy; a table that much larger
    // than its use goes back to the initial size instead.
    if (slots_.size() > kInitialSlots && table_used_ * 8 < slots_.size()) {
      std::vector<Slot>(kInitialSlots).swap(slots_);
    } else {
      std::fill(slots_.begin(), slots_.end(), Slot{});
    }
    table_used_ = 0;
  }
  if (used_ > 0) {
    std::fill(std::begin(leaves_), std::end(leaves_), nullptr);
    fresh_.clear();
    used_ = 0;
  }
  // Links and twins live in the prefixes, which the arena drops with
  // their nodes.
  for (auto& block : arena_) {
    ASAN_POISON_MEMORY_REGION(block.get(), kArenaBlockBytes);
  }
  arena_block_ = 0;
  arena_pos_ = 0;
}

void* ScratchInterner::Allocate(size_t size, size_t align) {
  if (size > kArenaBlockBytes) {
    outsized_.push_back(std::make_unique_for_overwrite<std::byte[]>(size));
    return outsized_.back().get();
  }
  size_t pos = (arena_pos_ + align - 1) & ~(align - 1);
  if (arena_.empty() || pos + size > kArenaBlockBytes) {
    if (!arena_.empty()) ++arena_block_;
    if (arena_block_ == arena_.size()) {
      arena_.push_back(
          std::make_unique_for_overwrite<std::byte[]>(kArenaBlockBytes));
    }
    pos = 0;
  }
  arena_pos_ = pos + size;
  std::byte* mem = arena_[arena_block_].get() + pos;
  ASAN_UNPOISON_MEMORY_REGION(mem, size);
  return mem;
}

void ScratchInterner::Grow() {
  std::vector<Slot> bigger(slots_.size() * 2);
  const size_t mask = bigger.size() - 1;
  for (const Slot& slot : slots_) {
    if (!slot.node) continue;
    size_t i = slot.hash & mask;
    while (bigger[i].node) i = (i + 1) & mask;
    bigger[i] = slot;
  }
  slots_ = std::move(bigger);
}

namespace {

ScratchInterner& ThreadScratch() {
  thread_local ScratchInterner scratch;
  return scratch;
}

}  // namespace

ScratchScope::ScratchScope() : interner_(ThreadScratch()) {
  assert(!ScratchInterner::current_ && "scratch scopes do not nest");
  ScratchInterner::current_ = &interner_;
}

ScratchScope::~ScratchScope() {
  ScratchInterner::current_ = nullptr;
  static obs::Counter& scratch_nodes =
      obs::MetricsRegistry::Global().counter("intern.scratch_nodes");
  scratch_nodes.Add(interner_.size());
  interner_.Reset();
}

}  // namespace dtaint

// Hash-consing interners for SymExpr — every expression built through
// the SymExpr factories canonicalizes in one of them, so structurally
// equal expressions are the *same* node and structural equality
// degenerates to a pointer compare (the workhorse fast path behind
// alias recognition, def-pair lookup and the backward path search).
//
// Two interners, one canonical world:
//  * ExprInterner::Global() holds every node that outlives one
//    function's exploration: summaries, link, structsim, the alias
//    oracle, pathfind and the cache codec only ever see its nodes.
//  * While SymEngine::Analyze explores a function, a ScratchScope
//    routes the calling thread's factories to that thread's private
//    ScratchInterner: no lock, no atomic, and an arena reused from one
//    function to the next. The exploration's millions of intermediate
//    shapes never touch the shared table.
//    Before the scope closes, the engine publishes the finished
//    summary with ScratchInterner::Publish, a memoized bottom-up copy
//    that re-interns each reachable node into the global interner
//    with its exact fields (no second normalization). Closing the
//    scope resets the scratch interner. A node's hash is structural,
//    so it is the same in both interners (TypeMap keys stay valid).
//
// Scratch interner design: nearly every shape an exploration builds is
// new, so a lookup avoids the hash table wherever sharing cannot
// happen. Each scratch node takes 80 bytes of arena: a 16-byte prefix
// {first parent, published twin} and the 64-byte node. A shape goes
// down exactly one of five routes, fixed by the shape alone:
//  1. leaf slot — the LeafSlot shapes, one pointer each;
//  2. fresh array — the engine's fresh unknowns,
//     InitReg(kFreshInitBase + salt), indexed by salt (capped; past
//     the cap they take the table);
//  3. lhs link and 4. rhs link — a node with children is looked up
//     as its lhs's first parent, then as its rhs's. If either child
//     has no parent yet, no node over that child exists, so the shape
//     is new: it becomes that child's first parent and skips the
//     table;
//  5. table — every other leaf, and a node whose children both had a
//     parent already: an open-addressed {hash, node} table.
// So every node with children is the first parent of its lhs or of its
// rhs, or is in the table, and a lookup that checks those three places
// finds it. Reset rewinds the arena, which drops every link and twin
// with the nodes.
//
// Global interner design:
//  * The table is sharded 64 ways by node hash; each shard owns a
//    mutex, an open-addressed pointer table, and a bump-pointer arena
//    the nodes (and taint nodes' source names) live in. A hit
//    allocates nothing at all. Each shard's table starts at
//    kInitialSlots (1 KiB) and doubles at half load, so a process
//    that interns little (a forked scan worker) zeroes little.
//  * The same shards hash-cons constraint-list cells
//    (src/symexec/constraints.h) in a second table and arena of their
//    own, keyed by (constraint fields, tail pointer); the `intern.*`
//    node counters never count them (`intern.list_cells`,
//    `intern.list_hits` do).
//  * A SymRef is a plain pointer into an arena: copying one costs
//    nothing, and no node owns memory outside its arena.
//  * Nodes live in *generations*. DTaint::AnalyzeFunctions holds a
//    pin (Pin()) for its whole run, and every Finding it returns keeps
//    a copy, so the nodes a caller can reach stay valid while any pin
//    is held. Once the last pin drops, the next Pin() recycles the
//    generation: tables shrink back to their initial size, arenas are
//    freed with every node, cell and name in them (all trivially
//    destructible, so nothing is visited), and leaf caches are
//    cleared. Residency is thus bounded by one analysis, not by every
//    shape the process ever built (`intern.resident_nodes`,
//    `intern.recycles`).
//  * Interning with no pin held (tests, examples, `dtaint_cli inspect`,
//    any caller that drives the layers itself) makes the generation
//    permanent: from then on no recycle ever happens, which is the
//    immortal-node behaviour such callers rely on. Interning on a
//    thread without a pin while another thread's pin is live counts as
//    use under that pin, so such a caller must take a pin of its own.
//  * The interners are the only way to build a SymExpr: the node
//    constructor is private to them, so every node is canonical within
//    its interner, and only global nodes escape an exploration.
//
// Thread-safety: ExprInterner::Intern(), InternCell() and Pin() may be
// called from any number of threads. Parents are only published after
// their children (a cell after its tail), and every lookup
// synchronizes on the owning shard's mutex, so a node or cell obtained
// from a table (directly or through a child or tail pointer) is always
// fully constructed. A recycle runs under the pin mutex with no pin
// held, and the first Intern() or InternCell() without a pin sets its
// flag under that same mutex, so such a call either stops the recycle
// or runs after it. A ScratchInterner is used by its own thread only.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/symexec/constraints.h"
#include "src/symexec/symexpr.h"

namespace dtaint {

/// Aggregate interner counters (summed over shards). Everything but
/// `resident_nodes` is cumulative over the interner's life.
struct InternStats {
  uint64_t nodes = 0;           // nodes created
  uint64_t resident_nodes = 0;  // nodes of the current generation
  uint64_t hits = 0;            // factory calls served by an existing node
  uint64_t bytes = 0;           // arena bytes reserved for nodes
  uint64_t contended = 0;       // shard-lock acquisitions that had to wait
  uint64_t recycles = 0;        // generations recycled
  uint64_t list_cells = 0;      // constraint-list cells created
  uint64_t list_hits = 0;       // InternCell calls served by an existing cell
  uint64_t table_slots = 0;     // slots of both tables, current generation
};

/// Payload base of the fresh unknowns the engine draws when it widens
/// an expression: InitReg(kFreshInitBase + salt), one salt per
/// widening, counted from zero in each function. The scratch interner
/// keeps them in a dense array indexed by salt.
inline constexpr uint64_t kFreshInitBase = 0x10000;

/// Direct-mapped cache index for the leaf shapes the engine builds
/// millions of times (small constants, formal args, SP0, initial
/// registers), or -1 for any other shape. Both interners keep one
/// pointer per index, so a leaf hit needs no hash and no table probe.
inline constexpr int kLeafSlots = 1024 + 16 + 32 + 1;
inline int LeafSlot(SymKind kind, uint64_t a, uint8_t size, BinOp op,
                    const SymExpr* lhs, const SymExpr* rhs,
                    std::string_view text) {
  if (lhs || rhs || size != 4 || op != BinOp::kAdd || !text.empty()) {
    return -1;
  }
  switch (kind) {
    case SymKind::kConst:
      return a < 1024 ? static_cast<int>(a) : -1;
    case SymKind::kArg:
      return a < 16 ? 1024 + static_cast<int>(a) : -1;
    case SymKind::kInit:
      return a < 32 ? 1040 + static_cast<int>(a) : -1;
    case SymKind::kSp0:
      return a == 0 ? 1072 : -1;
    default:
      return -1;
  }
}

/// Keeps the interner generation it was taken from alive: a shared
/// handle, released when its last copy is destroyed.
using InternPin = std::shared_ptr<const void>;

class ExprInterner {
 public:
  static constexpr size_t kShards = 64;
  /// Slots each shard's two tables start a generation with; they grow
  /// by doubling at half load.
  static constexpr size_t kInitialSlots = 64;  // power of two

  /// A private instance, for tests of the interner itself: its nodes
  /// are canonical only among themselves. Production code uses Global().
  ExprInterner();
  ~ExprInterner();
  ExprInterner(const ExprInterner&) = delete;
  ExprInterner& operator=(const ExprInterner&) = delete;

  /// The process-wide interner every SymExpr factory routes through.
  static ExprInterner& Global();

  /// Pins the current generation: its nodes stay valid until the
  /// returned handle (and every copy of it) is gone. When no pin is
  /// held and nothing was interned without one since the last
  /// recycle, the generation is recycled first, so the pin starts an
  /// empty one.
  InternPin Pin();

  /// Returns the canonical node for the given shape, creating it on
  /// first sight. Children are canonical already (hash-consing is
  /// bottom-up), so the shape key compares them by pointer.
  SymRef Intern(SymKind kind, uint64_t a, uint8_t size, BinOp op,
                SymRef lhs, SymRef rhs, std::string_view text);

  /// Returns the canonical constraint-list cell for `c` pushed onto
  /// `tail`, creating it on first sight: one cell per (constraint,
  /// tail) pair in the generation, compared by field and pointer.
  /// c's expressions and `tail` must be this interner's.
  const ConstraintCell* InternCell(const PathConstraint& c,
                                   const ConstraintCell* tail);

  /// Point-in-time counters, summed across shards.
  InternStats stats() const;

  /// Pushes counter deltas since the last publish into the global
  /// metrics registry ("intern.nodes", "intern.hits", "intern.bytes",
  /// "intern.contended", "intern.recycles", "intern.list_cells",
  /// "intern.list_hits" — contention is counted per shard and exported
  /// in aggregate) and sets the
  /// "intern.resident_nodes" gauge. Called by RunBottomUp /
  /// DTaint::Analyze so the interner participates in each report's
  /// metrics object.
  void PublishMetrics();

 private:
  struct Shard;

  void Unpin();
  /// Marks the generation permanent when called with no pin held.
  void NoteUse();
  /// Recycles the generation unless it is empty or was used without a
  /// pin. Caller holds pin_mu_ with no pin outstanding.
  void TryRecycle();

  Shard& ShardFor(uint64_t hash);

  std::unique_ptr<Shard[]> shards_;
  // Lock-free leaf cache (see LeafSlot): a hit is one load plus a
  // relaxed counter bump. Slots are populated (under the shard lock)
  // by whichever thread interns the shape first and cleared by a
  // recycle.
  std::atomic<const SymExpr*> leaves_[kLeafSlots] = {};
  std::atomic<uint64_t> leaf_hits_{0};

  // Generation state. `pins_` changes only under pin_mu_ but is read
  // lock-free by every Intern(), so it starts a cache line of its own
  // (leaf_hits_ above is written on every leaf hit); `unpinned_use_`
  // is sticky and set under pin_mu_.
  std::mutex pin_mu_;
  alignas(64) std::atomic<uint64_t> pins_{0};
  std::atomic<bool> unpinned_use_{false};
  std::atomic<uint64_t> recycles_{0};

  std::mutex publish_mu_;
  InternStats published_;  // totals already pushed to the registry
};

/// Lookups a ScratchInterner served with an existing node, by route
/// (see the header comment). Cumulative over the interner's life.
struct ScratchHits {
  uint64_t leaf = 0;
  uint64_t fresh = 0;
  uint64_t lhs_link = 0;
  uint64_t rhs_link = 0;
  uint64_t table = 0;
};

/// One thread's private interner for the function it is exploring:
/// leaf slots, a fresh-unknown array, first-parent links, an
/// open-addressed table and a bump arena, none of them locked or
/// atomic, all reused (not freed) from one function to the next.
/// Reached through a ScratchScope; see the header comment for the
/// lookup routes and the scratch/publish protocol.
class ScratchInterner {
 public:
  ScratchInterner();
  ~ScratchInterner();
  ScratchInterner(const ScratchInterner&) = delete;
  ScratchInterner& operator=(const ScratchInterner&) = delete;

  /// The interner the calling thread's SymExpr factories route to:
  /// its scratch interner inside a ScratchScope, nullptr outside one.
  static ScratchInterner* Current() { return current_; }

  /// As ExprInterner::Intern, for this interner's own nodes: children
  /// must be nodes of this interner (debug builds assert it).
  SymRef Intern(SymKind kind, uint64_t a, uint8_t size, BinOp op,
                SymRef lhs, SymRef rhs, std::string_view text);

  /// The global node with the same structure as `expr`: each scratch
  /// node reachable from it is re-interned into ExprInterner::Global()
  /// with its exact fields, children first, once per node until the
  /// next Reset. A taint node's source name is copied into the global
  /// arena. Null and global nodes are returned as they are.
  SymRef Publish(SymRef expr);

  /// The global list with the same constraints as `list`. Each trail
  /// cell reachable from it is interned into ExprInterner::Global()
  /// once, oldest first, with its expressions published as above; the
  /// twin is memoized in the trail cell, so records sharing a path
  /// prefix publish it once. Global lists are returned as they are.
  ConstraintList Publish(ConstraintList list);

  /// Nodes created since the last Reset.
  size_t size() const { return used_; }

  const ScratchHits& hits() const { return hits_; }

  /// Ends the function: empties the table, the leaf slots and the
  /// fresh array, frees outsized names, and rewinds the arena
  /// (poisoned for AddressSanitizer until reused, so a scratch node or
  /// name that escaped into a summary is a use-after-poison).
  void Reset();

 private:
  friend class ScratchScope;

  /// The 16 arena bytes just before every scratch node.
  struct Prefix {
    const SymExpr* first_parent = nullptr;  // first node built over it
    const SymExpr* published = nullptr;     // global twin, once published
  };
  struct Slot {
    uint64_t hash = 0;
    const SymExpr* node = nullptr;
  };
  static constexpr size_t kInitialSlots = 1024;  // power of two
  static constexpr size_t kArenaBlockBytes = 64 * 1024;
  static constexpr uint64_t kMaxFresh = uint64_t{1} << 20;

  static constinit thread_local ScratchInterner* current_;

  static Prefix& PrefixOf(const SymExpr* node);
  /// A new node (and its prefix) in the arena; `hash` is its ShapeHash.
  const SymExpr* Create(SymKind kind, uint64_t a, uint8_t size, BinOp op,
                        SymRef lhs, SymRef rhs, std::string_view text,
                        uint64_t hash);
  const SymExpr* InternInTable(SymKind kind, uint64_t a, uint8_t size,
                               BinOp op, SymRef lhs, SymRef rhs,
                               std::string_view text);
  void* Allocate(size_t size, size_t align);
  void Grow();

  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  size_t table_used_ = 0;  // occupied slots
  size_t used_ = 0;        // nodes created
  const SymExpr* leaves_[kLeafSlots] = {};
  std::vector<const SymExpr*> fresh_;  // by salt
  ScratchHits hits_;
  std::vector<std::unique_ptr<std::byte[]>> arena_;
  size_t arena_block_ = 0;  // index of the block being filled
  size_t arena_pos_ = 0;    // offset into that block
  // Names too long for an arena block, freed by Reset.
  std::vector<std::unique_ptr<std::byte[]>> outsized_;
  // Publish(ConstraintList)'s unpublished trail cells, newest first.
  std::vector<const ConstraintCell*> unpublished_;
};

/// Routes the calling thread's SymExpr factories to the thread's
/// ScratchInterner for the scope's lifetime. Closing the scope adds
/// the nodes the function built to the `intern.scratch_nodes` counter
/// and resets the scratch interner, so every node it handed out is
/// dead: publish what must survive first. Scopes do not nest.
class ScratchScope {
 public:
  ScratchScope();
  ~ScratchScope();
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

  ScratchInterner& interner() { return interner_; }

 private:
  ScratchInterner& interner_;
};

}  // namespace dtaint

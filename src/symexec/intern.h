// Hash-consing interner for SymExpr — every expression built through
// the SymExpr factories canonicalizes here, so structurally equal
// expressions are the *same* node and structural equality degenerates
// to a pointer compare (the workhorse fast path behind alias
// recognition, def-pair lookup and the backward path search).
//
// Design:
//  * The table is sharded 64 ways by node hash; each shard owns a
//    mutex, an open-addressed pointer table, and a bump-pointer arena
//    the nodes live in. Factory traffic from the parallel bottom-up
//    phase thus stripes across independent locks, and a hit allocates
//    nothing at all — no shared_ptr control block, no node.
//  * Interned SymRefs are non-owning (aliasing shared_ptr with no
//    control block): copying one costs zero atomic operations, which
//    is what removes the refcount/allocator contention that used to
//    make `num_threads > 1` slower than sequential.
//  * Nodes live in *generations*. DTaint::AnalyzeFunctions holds a
//    pin (Pin()) for its whole run, and every Finding it returns keeps
//    a copy, so the nodes a caller can reach stay valid while any pin
//    is held. Once the last pin drops, the next Pin() recycles the
//    generation: tables shrink back to their initial size, arenas are
//    freed, leaf caches are cleared, and only the nodes owning heap
//    memory (taint nodes, for their source name) are destroyed.
//    Residency is thus bounded by one analysis, not by every shape the
//    process ever built (`intern.resident_nodes`, `intern.recycles`).
//  * Interning with no pin held (tests, examples, `dtaint_cli inspect`,
//    any caller that drives the layers itself) makes the generation
//    permanent: from then on no recycle ever happens, which is the
//    immortal-node behaviour such callers rely on. Interning on a
//    thread without a pin while another thread's pin is live counts as
//    use under that pin, so such a caller must take a pin of its own.
//  * It is the only way to build a SymExpr: the node constructor is
//    private to it and the factories use a single (process-wide)
//    instance, so every node in existence is canonical.
//
// Thread-safety: Intern() and Pin() may be called from any number of
// threads. Parents are only published after their children, and every
// lookup synchronizes on the owning shard's mutex, so a node obtained
// from the table (directly or through a parent's child pointer) is
// always fully constructed. A recycle runs under the pin mutex with no
// pin held, and the first Intern() without a pin sets its flag under
// that same mutex, so such a call either stops the recycle or runs
// after it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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
};

/// Keeps the interner generation it was taken from alive: a shared
/// handle, released when its last copy is destroyed.
using InternPin = std::shared_ptr<const void>;

class ExprInterner {
 public:
  static constexpr size_t kShards = 64;

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
                SymRef lhs, SymRef rhs, std::string text);

  /// Point-in-time counters, summed across shards.
  InternStats stats() const;

  /// Pushes counter deltas since the last publish into the global
  /// metrics registry ("intern.nodes", "intern.hits", "intern.bytes",
  /// "intern.contended", "intern.recycles" — contention is counted per
  /// shard and exported in aggregate) and sets the
  /// "intern.resident_nodes" gauge. Called by RunBottomUp /
  /// DTaint::Analyze so the interner participates in each report's
  /// metrics object.
  void PublishMetrics();

 private:
  struct Shard;

  void Unpin();
  /// Recycles the generation unless it is empty or was used without a
  /// pin. Caller holds pin_mu_ with no pin outstanding.
  void TryRecycle();

  // Direct-mapped lock-free cache for the leaf shapes the engine builds
  // millions of times (small constants, formal args, SP0, initial
  // registers): a hit is one load plus a relaxed counter bump — no
  // hash, no shard lock. Slots are populated (under the shard lock) by
  // whichever thread interns the shape first and cleared by a recycle.
  static constexpr uint64_t kLeafConsts = 1024;
  static constexpr uint64_t kLeafArgs = 16;
  static constexpr uint64_t kLeafRegs = 32;

  Shard& ShardFor(uint64_t hash);

  std::unique_ptr<Shard[]> shards_;
  std::atomic<const SymExpr*> leaf_consts_[kLeafConsts] = {};
  std::atomic<const SymExpr*> leaf_args_[kLeafArgs] = {};
  std::atomic<const SymExpr*> leaf_regs_[kLeafRegs] = {};
  std::atomic<const SymExpr*> leaf_sp0_{nullptr};
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

}  // namespace dtaint

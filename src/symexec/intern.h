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
//  * Nodes are immortal: the arena lives for the process. Expressions
//    are tiny and heavily shared (fleet scans re-create the same
//    arg/deref spines for every function), so residency is bounded by
//    the number of *unique* shapes ever built — observable via the
//    `intern.nodes` / `intern.bytes` metrics.
//  * It is the only way to build a SymExpr: the node constructor is
//    private to it and there is a single (process-wide) instance, so
//    every node in existence is canonical.
//
// Thread-safety: Intern() may be called from any number of threads.
// Parents are only published after their children, and every lookup
// synchronizes on the owning shard's mutex, so a node obtained from
// the table (directly or through a parent's child pointer) is always
// fully constructed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/symexec/symexpr.h"

namespace dtaint {

/// Aggregate interner counters (summed over shards).
struct InternStats {
  uint64_t nodes = 0;      // unique nodes resident in the table
  uint64_t hits = 0;       // factory calls served by an existing node
  uint64_t bytes = 0;      // arena bytes reserved for nodes
  uint64_t contended = 0;  // shard-lock acquisitions that had to wait
};

class ExprInterner {
 public:
  static constexpr size_t kShards = 64;

  ExprInterner(const ExprInterner&) = delete;
  ExprInterner& operator=(const ExprInterner&) = delete;

  /// The process-wide interner every SymExpr factory routes through.
  static ExprInterner& Global();

  /// Returns the canonical node for the given shape, creating it on
  /// first sight. Children are canonical already (hash-consing is
  /// bottom-up), so the shape key compares them by pointer.
  SymRef Intern(SymKind kind, uint64_t a, uint8_t size, BinOp op,
                SymRef lhs, SymRef rhs, std::string text);

  /// Point-in-time counters, summed across shards.
  InternStats stats() const;

  /// Pushes counter deltas since the last publish into the global
  /// metrics registry ("intern.nodes", "intern.hits", "intern.bytes",
  /// "intern.contended" — contention is counted per shard and exported
  /// in aggregate). Called by RunBottomUp / DTaint::Analyze so the
  /// interner participates in each report's metrics object.
  void PublishMetrics();

 private:
  struct Shard;

  ExprInterner();

  // Direct-mapped lock-free cache for the leaf shapes the engine builds
  // millions of times (small constants, formal args, SP0, initial
  // registers): a hit is one acquire-load plus a relaxed counter
  // bump — no hash, no shard lock. Slots are populated by whichever
  // thread interns the shape first; nodes are immortal so a stale read
  // is impossible.
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

  std::mutex publish_mu_;
  InternStats published_;  // totals already pushed to the registry
};

}  // namespace dtaint

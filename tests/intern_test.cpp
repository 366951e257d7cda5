// Unit tests for the hash-consing SymExpr interner (src/symexec/intern).
//
// The contract under test: the SymExpr factories return the *same
// node* for the same structure, so Equal is a pointer compare; rewrites
// land on the canonical node of their result; and the whole thing is
// safe to hammer from many threads (the TSan CI job runs this binary
// under -fsanitize=thread).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/symexec/intern.h"
#include "src/symexec/symexpr.h"

namespace dtaint {
namespace {

/// deref(...deref(root+1)+2...) spine mixing every node family.
SymRef DeepSpine(SymRef root, int depth) {
  SymRef e = std::move(root);
  for (int i = 1; i <= depth; ++i) {
    e = SymExpr::Deref(SymAdd(e, i));
    e = SymExpr::Bin(BinOp::kXor, e, SymExpr::InitReg(i % 8));
  }
  return e;
}

SymRef DeepExpr(int depth, int arg = 0) {
  return DeepSpine(SymExpr::Arg(arg), depth);
}

TEST(Intern, FactoriesReturnTheCanonicalNode) {
  SymRef a = DeepExpr(16);
  SymRef b = DeepExpr(16);
  EXPECT_EQ(a, b);  // same node, not merely equal
  EXPECT_TRUE(SymExpr::Equal(a, b));

  // Every leaf family dedups too.
  EXPECT_EQ(SymExpr::Const(7), SymExpr::Const(7));
  EXPECT_EQ(SymExpr::Sp0(), SymExpr::Sp0());
  EXPECT_EQ(SymExpr::Ret(0x6c4c), SymExpr::Ret(0x6c4c));
  EXPECT_EQ(SymExpr::Heap(42), SymExpr::Heap(42));
  EXPECT_EQ(SymExpr::Taint(0x10, "recv"), SymExpr::Taint(0x10, "recv"));
}

TEST(Intern, DistinctShapesAreDistinctNodes) {
  EXPECT_NE(SymExpr::Arg(0), SymExpr::Arg(1));
  EXPECT_NE(SymExpr::Taint(0x10, "recv"),
            SymExpr::Taint(0x10, "read"));  // text participates
  EXPECT_NE(SymExpr::Deref(SymExpr::Arg(0), 4),
            SymExpr::Deref(SymExpr::Arg(0), 1));  // size does too
  EXPECT_FALSE(SymExpr::Equal(DeepExpr(16, 0), DeepExpr(16, 1)));
}

TEST(Intern, NormalizationLandsOnTheSameNode) {
  // ((arg0+4)+4) normalizes to arg0+8 — interning makes that literal.
  SymRef chained = SymAdd(SymAdd(SymExpr::Arg(0), 4), 4);
  SymRef direct = SymAdd(SymExpr::Arg(0), 8);
  EXPECT_EQ(chained, direct);
}

TEST(Intern, ReplaceAndTaintQueriesHaveFixedResults) {
  SymRef from = SymExpr::Arg(0);
  SymRef to = SymExpr::Sp0();
  SymRef hay = DeepExpr(2);
  EXPECT_EQ(hay->ToString(),
            "(deref((deref(arg0+0x1) Xor init_r1)+0x2) Xor init_r2)");
  SymRef replaced = SymExpr::Replace(hay, from, to);
  EXPECT_EQ(replaced->ToString(),
            "(deref((deref(SP+0x1) Xor init_r1)+0x2) Xor init_r2)");
  // The rewrite lands on the canonical node of the rewritten spine.
  EXPECT_EQ(replaced, DeepSpine(to, 2));
  EXPECT_EQ(SymExpr::Replace(DeepExpr(12), from, to), DeepSpine(to, 12));
  EXPECT_FALSE(replaced->Contains(from));
  EXPECT_TRUE(replaced->Contains(to));
  // Absent needle: unchanged, same pointer.
  EXPECT_EQ(SymExpr::Replace(hay, SymExpr::Arg(7), to), hay);

  SymRef tainted =
      SymExpr::Bin(BinOp::kXor, hay, SymExpr::Taint(0x20, "recv"));
  EXPECT_EQ(tainted->ToString(),
            "((deref((deref(arg0+0x1) Xor init_r1)+0x2) Xor init_r2) Xor "
            "taint(recv@0x20))");
  EXPECT_FALSE(hay->IsTainted());
  EXPECT_TRUE(tainted->IsTainted());
  auto found = tainted->FindTaint();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->first, 0x20u);
  EXPECT_EQ(found->second, "recv");
}

TEST(Intern, StatsCountHitsNodesAndBytes) {
  ExprInterner& interner = ExprInterner::Global();
  InternStats before = interner.stats();
  // A never-seen-before shape (unique heap ids) ...
  SymRef fresh = SymExpr::Bin(BinOp::kMul, SymExpr::Heap(0xA11CE),
                              SymExpr::Heap(0xB0B51DE5));
  InternStats after_miss = interner.stats();
  EXPECT_GT(after_miss.nodes, before.nodes);
  // Arena bytes are reserved in 64 KiB blocks, so a few nodes need not
  // move the counter — it just can never be zero or shrink.
  EXPECT_GE(after_miss.bytes, before.bytes);
  EXPECT_GT(after_miss.bytes, 0u);
  // ... rebuilt, is all hits and zero new nodes.
  SymRef again = SymExpr::Bin(BinOp::kMul, SymExpr::Heap(0xA11CE),
                              SymExpr::Heap(0xB0B51DE5));
  EXPECT_EQ(again, fresh);
  InternStats after_hit = interner.stats();
  EXPECT_EQ(after_hit.nodes, after_miss.nodes);  // all hits, no new nodes
  EXPECT_EQ(after_hit.bytes, after_miss.bytes);
  EXPECT_GE(after_hit.hits, after_miss.hits + 3);
}

TEST(Intern, PublishMetricsPushesDeltasIntoTheRegistry) {
  ExprInterner& interner = ExprInterner::Global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  interner.PublishMetrics();  // drain whatever earlier tests produced
  uint64_t nodes0 = registry.counter("intern.nodes").Value();
  uint64_t hits0 = registry.counter("intern.hits").Value();

  SymRef fresh = SymExpr::Bin(BinOp::kOr, SymExpr::Heap(0xFEED),
                              SymExpr::Heap(0xF00D));
  SymRef again = SymExpr::Bin(BinOp::kOr, SymExpr::Heap(0xFEED),
                              SymExpr::Heap(0xF00D));
  EXPECT_EQ(fresh, again);
  interner.PublishMetrics();
  EXPECT_GT(registry.counter("intern.nodes").Value(), nodes0);
  EXPECT_GT(registry.counter("intern.hits").Value(), hits0);

  // Publishing with no traffic in between adds nothing (delta = 0), so
  // registry counters track interner totals instead of double-counting.
  uint64_t nodes1 = registry.counter("intern.nodes").Value();
  interner.PublishMetrics();
  EXPECT_EQ(registry.counter("intern.nodes").Value(), nodes1);
}

TEST(Intern, ConcurrentFactoriesConvergeOnOneNodePerShape) {
  constexpr int kThreads = 8;
  constexpr int kShapes = 64;
  // Each thread builds every shape; all threads must get the same
  // pointer for the same shape. Shapes overlap across threads by
  // construction, so this exercises the found-vs-insert race, and the
  // deep spine exercises cross-thread child-pointer publication.
  std::vector<std::vector<const SymExpr*>> seen(
      kThreads, std::vector<const SymExpr*>(kShapes));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &seen] {
      for (int s = 0; s < kShapes; ++s) {
        SymRef e = SymExpr::Bin(
            BinOp::kXor, DeepExpr(8, s % 4),
            SymAdd(SymExpr::Taint(0x9000 + s, "recv"), s));
        seen[t][s] = e;
        EXPECT_TRUE(e->IsTainted());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int s = 0; s < kShapes; ++s) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][s], seen[0][s])
          << "thread " << t << " got a different node for shape " << s;
    }
  }
}

TEST(Intern, FreshAndRecycledTablesHoldTheInitialSlots) {
  constexpr uint64_t kInitial =
      2 * ExprInterner::kShards * ExprInterner::kInitialSlots;
  ExprInterner interner;
  EXPECT_LE(interner.stats().table_slots, kInitial);
  {
    InternPin pin = interner.Pin();
    SymRef prev = nullptr;
    ConstraintList list;
    for (uint64_t i = 0; i < 20000; ++i) {
      prev = interner.Intern(SymKind::kBin, 0, 4, BinOp::kAdd,
                             SymExpr::Const(static_cast<uint32_t>(i)),
                             prev ? prev : SymExpr::Arg(0), "");
      if (i % 4 == 0) {
        list = ConstraintList(interner.InternCell(
            {BinOp::kCmpLt, SymExpr::Arg(1), SymExpr::Const(i % 900), true,
             static_cast<uint32_t>(i)},
            list.head()));
      }
    }
    EXPECT_GT(interner.stats().table_slots, kInitial);  // grown
  }
  InternPin next = interner.Pin();  // recycles the generation
  InternStats recycled = interner.stats();
  EXPECT_EQ(recycled.recycles, 1u);
  EXPECT_EQ(recycled.resident_nodes, 0u);
  EXPECT_LE(recycled.table_slots, kInitial);
}

TEST(Intern, HundredThousandNodesStillDedupEveryShape) {
  // Private interner, so the counts below are exact. Children come
  // from the global one (a private interner compares them by pointer).
  ExprInterner interner;
  constexpr uint32_t kShapes = 100000;
  auto build = [&](uint32_t i) {
    return interner.Intern(SymKind::kBin, 0, 4, BinOp::kXor,
                           SymExpr::Arg(static_cast<int>(i % 8)),
                           SymExpr::Const(i / 8), "");
  };
  std::vector<SymRef> first(kShapes);
  for (uint32_t i = 0; i < kShapes; ++i) first[i] = build(i);
  for (uint32_t i = 0; i < kShapes; ++i) {
    ASSERT_EQ(build(i), first[i]) << "shape " << i;
  }
  InternStats stats = interner.stats();
  EXPECT_EQ(stats.nodes, kShapes);
  EXPECT_EQ(stats.resident_nodes, kShapes);
  EXPECT_EQ(stats.hits, kShapes);
}

TEST(Intern, ConcurrentListsGetOneCellPerConstraintAndTail) {
  // List l holds constraints 0..5, constraint j taken iff bit j of l is
  // set: 64 lists over every prefix, so the distinct (constraint, tail)
  // pairs are the distinct prefixes, 2 + 4 + ... + 64 = 126. Each
  // thread builds every list, starting at a different one.
  constexpr int kThreads = 8;
  constexpr int kLists = 64;
  constexpr int kDepth = 6;
  ExprInterner interner;
  std::vector<PathConstraint> pool;
  for (int j = 0; j < kDepth; ++j) {
    for (bool taken : {false, true}) {
      pool.push_back({BinOp::kCmpLt, SymExpr::Arg(j % 4),
                      SymExpr::Const(static_cast<uint32_t>(j)), taken,
                      static_cast<uint32_t>(0x100 + j)});
    }
  }
  std::vector<std::vector<const ConstraintCell*>> heads(
      kThreads, std::vector<const ConstraintCell*>(kLists));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &heads, &pool, &interner] {
      for (int k = 0; k < kLists; ++k) {
        const int l = (k + 8 * t) % kLists;
        const ConstraintCell* head = nullptr;
        for (int j = 0; j < kDepth; ++j) {
          head = interner.InternCell(pool[2 * j + ((l >> j) & 1)], head);
        }
        heads[t][l] = head;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int l = 0; l < kLists; ++l) {
    ConstraintList list(heads[0][l]);
    ASSERT_EQ(list.size(), static_cast<size_t>(kDepth));
    std::vector<PathConstraint> members = list.ToVector();
    for (int j = 0; j < kDepth; ++j) {
      EXPECT_EQ(members[j].site, 0x100u + j);  // push order
      EXPECT_EQ(members[j].taken, ((l >> j) & 1) != 0);
    }
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(heads[t][l], heads[0][l])
          << "thread " << t << " got a different cell for list " << l;
    }
  }
  InternStats stats = interner.stats();
  EXPECT_EQ(stats.list_cells, 126u);
  EXPECT_EQ(stats.list_hits, uint64_t{kThreads} * kLists * kDepth - 126);
  EXPECT_EQ(stats.nodes, 0u);  // cells are not counted as nodes
}

}  // namespace
}  // namespace dtaint

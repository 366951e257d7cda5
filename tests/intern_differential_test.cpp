// Differential oracle for the expression interner.
//
// Hash-consing makes SymExpr::Equal a pointer compare and lets the
// Contains/Replace/taint/deref queries prune subtrees on per-node kind
// masks and hash blooms. That is only admissible if it is *invisible*:
// every query must answer exactly what a naive structural walk over a
// plain owned tree answers. This suite mirrors randomized expressions
// into such a tree (no sharing, no hashes, no masks) and checks each
// query against it, with the expressions built on one thread and on
// several at once, and checks that the scratch interner's lookup routes
// keep every shape on one node. The report-level oracle over the
// synthesized corpora lives in golden_report_test.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/symexec/intern.h"
#include "src/symexec/symexpr.h"
#include "src/util/rng.h"

namespace dtaint {
namespace {

/// The reference model: an expression as a plain value tree.
struct RefExpr {
  SymKind kind = SymKind::kConst;
  uint64_t payload = 0;
  uint8_t size = 4;
  BinOp op = BinOp::kAdd;
  std::string text;
  std::vector<RefExpr> kids;  // Deref: {addr}; Bin: {lhs, rhs}

  bool operator==(const RefExpr&) const = default;
};

RefExpr Mirror(SymRef e) {
  RefExpr out;
  out.kind = e->kind();
  out.size = e->deref_size();
  switch (e->kind()) {
    case SymKind::kConst:
      out.payload = e->const_value();
      break;
    case SymKind::kArg:
      out.payload = static_cast<uint64_t>(e->arg_index());
      break;
    case SymKind::kSp0:
      break;
    case SymKind::kRet:
      out.payload = e->ret_site();
      break;
    case SymKind::kHeap:
      out.payload = e->heap_id();
      break;
    case SymKind::kTaint:
      out.payload = e->taint_site();
      out.text = e->taint_source();
      break;
    case SymKind::kInit:
      out.payload = static_cast<uint64_t>(e->init_reg());
      break;
    case SymKind::kDeref:
      out.kids.push_back(Mirror(e->lhs()));
      break;
    case SymKind::kBin:
      out.op = e->binop();
      out.kids.push_back(Mirror(e->lhs()));
      out.kids.push_back(Mirror(e->rhs()));
      break;
  }
  return out;
}

/// Builds the model tree back through the normalizing factories.
SymRef Rebuild(const RefExpr& r) {
  switch (r.kind) {
    case SymKind::kConst:
      return SymExpr::Const(static_cast<uint32_t>(r.payload));
    case SymKind::kArg:
      return SymExpr::Arg(static_cast<int>(r.payload));
    case SymKind::kSp0:
      return SymExpr::Sp0();
    case SymKind::kRet:
      return SymExpr::Ret(static_cast<uint32_t>(r.payload));
    case SymKind::kHeap:
      return SymExpr::Heap(r.payload);
    case SymKind::kTaint:
      return SymExpr::Taint(static_cast<uint32_t>(r.payload), r.text);
    case SymKind::kInit:
      return SymExpr::InitReg(static_cast<int>(r.payload));
    case SymKind::kDeref:
      return SymExpr::Deref(Rebuild(r.kids[0]), r.size);
    case SymKind::kBin:
      return SymExpr::Bin(r.op, Rebuild(r.kids[0]), Rebuild(r.kids[1]));
  }
  return nullptr;
}

/// Every node of the tree in pre-order (leftmost first).
std::vector<const RefExpr*> Preorder(const RefExpr& r) {
  std::vector<const RefExpr*> out{&r};
  for (const RefExpr& kid : r.kids) {
    std::vector<const RefExpr*> sub = Preorder(kid);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

bool RefContains(const RefExpr& hay, const RefExpr& needle) {
  for (const RefExpr* node : Preorder(hay)) {
    if (*node == needle) return true;
  }
  return false;
}

bool RefContainsKind(const RefExpr& hay, SymKind kind) {
  for (const RefExpr* node : Preorder(hay)) {
    if (node->kind == kind) return true;
  }
  return false;
}

/// Top-down substitution: the outermost occurrences of `from` become
/// `to`; what they contain is not revisited.
RefExpr RefReplace(const RefExpr& hay, const RefExpr& from,
                   const RefExpr& to) {
  if (hay == from) return to;
  RefExpr out = hay;
  for (RefExpr& kid : out.kids) kid = RefReplace(kid, from, to);
  return out;
}

constexpr SymKind kAllKinds[] = {
    SymKind::kConst, SymKind::kArg,  SymKind::kSp0,
    SymKind::kRet,   SymKind::kHeap, SymKind::kTaint,
    SymKind::kInit,  SymKind::kDeref, SymKind::kBin,
};

/// A random expression over a deliberately small leaf alphabet, so
/// independently built expressions often coincide or contain one
/// another, and every normalization rule (folding, sub-to-add,
/// re-association, x - x) fires.
SymRef RandomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.Chance(0.25)) {
    switch (rng.Below(7)) {
      case 0:
        return SymExpr::Const(static_cast<uint32_t>(rng.Below(4)) * 4);
      case 1:
        return SymExpr::Arg(static_cast<int>(rng.Below(3)));
      case 2:
        return SymExpr::Sp0();
      case 3:
        return SymExpr::Ret(0x6c4c + static_cast<uint32_t>(rng.Below(2)));
      case 4:
        return SymExpr::Heap(0xbeef);
      case 5:
        return SymExpr::Taint(0x20, rng.Chance(0.5) ? "recv" : "getenv");
      default:
        return SymExpr::InitReg(static_cast<int>(rng.Below(3)));
    }
  }
  static constexpr BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kXor,
                                   BinOp::kMul, BinOp::kAnd, BinOp::kCmpLt};
  switch (rng.Below(4)) {
    case 0:
      return SymExpr::Deref(RandomExpr(rng, depth - 1),
                            rng.Chance(0.75) ? 4 : 1);
    case 1:
      return SymAdd(RandomExpr(rng, depth - 1),
                    static_cast<int64_t>(rng.Range(-8, 8)));
    default:
      return SymExpr::Bin(kOps[rng.Below(std::size(kOps))],
                          RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1));
  }
}

std::vector<SymRef> RandomPool(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<SymRef> pool;
  for (size_t i = 0; i < count; ++i) {
    pool.push_back(RandomExpr(rng, 1 + static_cast<int>(rng.Below(5))));
  }
  return pool;
}

struct Mirrored {
  std::vector<SymRef> exprs;
  std::vector<RefExpr> refs;
};

Mirrored MirroredPool(uint64_t seed, size_t count) {
  Mirrored out;
  out.exprs = RandomPool(seed, count);
  for (SymRef e : out.exprs) out.refs.push_back(Mirror(e));
  return out;
}

// ---------- the oracle -------------------------------------------------------

TEST(InternDifferential, EqualAgreesWithStructuralEquality) {
  Mirrored pool = MirroredPool(0x1A7E, 240);
  size_t equal_pairs = 0;
  for (size_t i = 0; i < pool.exprs.size(); ++i) {
    // The factories land every structure on one node.
    EXPECT_EQ(Rebuild(pool.refs[i]), pool.exprs[i])
        << pool.exprs[i]->ToString();
    for (size_t j = 0; j < pool.exprs.size(); ++j) {
      bool structural = pool.refs[i] == pool.refs[j];
      ASSERT_EQ(SymExpr::Equal(pool.exprs[i], pool.exprs[j]), structural)
          << pool.exprs[i]->ToString() << " vs "
          << pool.exprs[j]->ToString();
      if (structural) {
        EXPECT_EQ(pool.exprs[i]->hash(), pool.exprs[j]->hash());
        EXPECT_EQ(pool.exprs[i]->ToString(), pool.exprs[j]->ToString());
        if (i != j) ++equal_pairs;
      }
    }
  }
  // The small alphabet must make independent builds collide, or the
  // pointer-compare direction of the check is vacuous.
  EXPECT_GT(equal_pairs, 0u);
}

TEST(InternDifferential, PrunedQueriesAgreeWithTreeWalks) {
  Mirrored pool = MirroredPool(0xB100, 160);
  size_t contained = 0;
  for (size_t i = 0; i < pool.exprs.size(); ++i) {
    SymRef e = pool.exprs[i];
    const RefExpr& r = pool.refs[i];
    std::string where = e->ToString();
    for (SymKind kind : kAllKinds) {
      EXPECT_EQ(e->ContainsKind(kind), RefContainsKind(r, kind))
          << where << " kind " << static_cast<int>(kind);
    }
    EXPECT_EQ(e->IsTainted(), RefContainsKind(r, SymKind::kTaint)) << where;
    std::vector<const RefExpr*> nodes = Preorder(r);
    EXPECT_EQ(e->Depth(), static_cast<int>(nodes.size())) << where;

    // FindTaint is the leftmost taint node; CollectDerefs lists every
    // deref in pre-order.
    std::optional<std::pair<uint32_t, std::string>> want_taint;
    std::vector<RefExpr> want_derefs;
    for (const RefExpr* node : nodes) {
      if (node->kind == SymKind::kTaint && !want_taint) {
        want_taint.emplace(static_cast<uint32_t>(node->payload), node->text);
      }
      if (node->kind == SymKind::kDeref) want_derefs.push_back(*node);
    }
    EXPECT_EQ(e->FindTaint(), want_taint) << where;
    std::vector<SymRef> derefs;
    SymExpr::CollectDerefs(e, &derefs);
    ASSERT_EQ(derefs.size(), want_derefs.size()) << where;
    for (size_t k = 0; k < derefs.size(); ++k) {
      EXPECT_EQ(Mirror(derefs[k]), want_derefs[k]) << where << " deref " << k;
    }

    // Needles: every other pool expression and every subterm of this
    // one (a guaranteed hit).
    for (size_t j = 0; j < pool.exprs.size(); ++j) {
      bool want_contains = RefContains(r, pool.refs[j]);
      ASSERT_EQ(e->Contains(pool.exprs[j]), want_contains)
          << where << " contains " << pool.exprs[j]->ToString();
      if (want_contains) ++contained;
    }
    for (const RefExpr* sub : nodes) {
      EXPECT_TRUE(e->Contains(Rebuild(*sub))) << where;
    }
  }
  EXPECT_GT(contained, pool.exprs.size());  // more than the self-hits
}

TEST(InternDifferential, ReplaceAgreesWithRebuiltSubstitution) {
  Mirrored pool = MirroredPool(0x5EB5, 160);
  Rng rng(0x5EB5);
  for (size_t i = 0; i < pool.exprs.size(); ++i) {
    SymRef hay = pool.exprs[i];
    std::vector<const RefExpr*> subterms = Preorder(pool.refs[i]);
    // Half the needles are subterms of the haystack, half arbitrary.
    SymRef from = rng.Chance(0.5)
                      ? Rebuild(*subterms[rng.Below(subterms.size())])
                      : pool.exprs[rng.Below(pool.exprs.size())];
    SymRef to = pool.exprs[rng.Below(pool.exprs.size())];
    SymRef got = SymExpr::Replace(hay, from, to);
    SymRef want =
        Rebuild(RefReplace(pool.refs[i], Mirror(from), Mirror(to)));
    EXPECT_EQ(got, want)
        << hay->ToString() << " [" << from->ToString() << " := "
        << to->ToString() << "]: " << got->ToString() << " vs "
        << want->ToString();
    if (!hay->Contains(from)) {
      EXPECT_EQ(got, hay) << "absent needle rebuilt the tree";
    }
  }
}

TEST(InternDifferential, ConcurrentBuildsMatchSerialBuilds) {
  constexpr int kThreads = 4;
  constexpr size_t kCount = 200;
  // Each thread builds every pool from its own seed rotation, so the
  // same shapes are interned concurrently in different orders.
  std::vector<std::vector<std::vector<SymRef>>> built(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &built] {
      for (int k = 0; k < kThreads; ++k) {
        uint64_t seed = 0xC0C0 + static_cast<uint64_t>((t + k) % kThreads);
        built[t].push_back(RandomPool(seed, kCount));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int k = 0; k < kThreads; ++k) {
    Mirrored serial = MirroredPool(0xC0C0 + static_cast<uint64_t>(k), kCount);
    for (int t = 0; t < kThreads; ++t) {
      const std::vector<SymRef>& pool = built[t][(k - t + kThreads) % kThreads];
      ASSERT_EQ(pool.size(), kCount);
      for (size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(pool[i], serial.exprs[i])
            << "thread " << t << " seed " << k << " expr " << i;
        EXPECT_EQ(Mirror(pool[i]), serial.refs[i]);
      }
    }
  }
}

/// A seeded random DAG built through the factories: each new node takes
/// its children from the nodes built so far, so children often have a
/// first parent already and shapes recur. The leaves mix leaf-slot
/// shapes, the engine's fresh unknowns and table leaves (heap ids).
std::vector<SymRef> RandomDag(Rng& rng, size_t count) {
  std::vector<SymRef> nodes;
  auto pick = [&] { return nodes[rng.Below(nodes.size())]; };
  static constexpr BinOp kOps[] = {BinOp::kAdd, BinOp::kXor, BinOp::kMul,
                                   BinOp::kShl, BinOp::kCmpLt};
  while (nodes.size() < count) {
    if (nodes.size() < 4 || rng.Chance(0.3)) {
      switch (rng.Below(4)) {
        case 0:
          nodes.push_back(SymExpr::Const(static_cast<uint32_t>(rng.Below(6))));
          break;
        case 1:
          nodes.push_back(SymExpr::Arg(static_cast<int>(rng.Below(3))));
          break;
        case 2:
          nodes.push_back(SymExpr::InitReg(
              static_cast<int>(kFreshInitBase + rng.Below(8))));
          break;
        default:
          nodes.push_back(SymExpr::Heap(0xbe00 + rng.Below(6)));
          break;
      }
      continue;
    }
    SymRef lhs = pick();
    SymRef rhs = pick();
    // Depth() counts tree nodes: the cap keeps the plain mirrors small.
    if (lhs->Depth() + rhs->Depth() > 48) continue;
    if (rng.Chance(0.2)) {
      nodes.push_back(SymExpr::Deref(lhs));
    } else {
      nodes.push_back(SymExpr::Bin(kOps[rng.Below(std::size(kOps))], lhs, rhs));
    }
  }
  return nodes;
}

TEST(InternDifferential, ScratchRoutesKeepEveryShapeOnOneNode) {
  std::vector<SymRef> published;
  std::vector<RefExpr> refs;
  ScratchHits before, after;
  {
    ScratchScope scope;
    ScratchInterner& scratch = scope.interner();
    before = scratch.hits();
    Rng rng(0xDA6);
    std::vector<SymRef> dag = RandomDag(rng, 600);
    for (SymRef e : dag) refs.push_back(Mirror(e));
    // Rebuilding each node from its plain tree looks every subterm up
    // again, now that the DAG has given most children their parents.
    for (size_t i = 0; i < dag.size(); ++i) {
      ASSERT_EQ(Rebuild(refs[i]), dag[i]) << dag[i]->ToString();
    }
    for (size_t i = 0; i < dag.size(); ++i) {
      for (size_t j = 0; j < dag.size(); ++j) {
        ASSERT_EQ(dag[i] == dag[j], refs[i] == refs[j])
            << dag[i]->ToString() << " vs " << dag[j]->ToString();
      }
    }
    after = scratch.hits();
    for (SymRef e : dag) published.push_back(scratch.Publish(e));
  }
  EXPECT_GT(after.leaf, before.leaf);
  EXPECT_GT(after.fresh, before.fresh);
  EXPECT_GT(after.lhs_link, before.lhs_link);
  EXPECT_GT(after.rhs_link, before.rhs_link);
  EXPECT_GT(after.table, before.table);
  // Outside the scope the factories build global nodes: each published
  // twin is exactly the node the same shape gets there.
  for (size_t i = 0; i < published.size(); ++i) {
    EXPECT_EQ(published[i], Rebuild(refs[i])) << published[i]->ToString();
    EXPECT_EQ(Mirror(published[i]), refs[i]);
  }
}

}  // namespace
}  // namespace dtaint

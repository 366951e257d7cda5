// Scratch interning: a function's exploration builds its expressions in
// the analysing thread's ScratchInterner, and only the summary it
// returns is published into the global interner.
//
// These tests pin the three promises that protocol makes: nothing a
// summary carries is a scratch node, a reset scratch interner keeps
// nothing of the function before, and the summary threads' private
// interners do not race with code that builds global nodes meanwhile
// (the cache decoder).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/interproc.h"
#include "src/obs/metrics.h"
#include "src/symexec/engine.h"
#include "src/symexec/intern.h"
#include "tests/testing/plant_corpus.h"

namespace dtaint {
namespace {

SymRef Leaf(ScratchInterner& scratch, SymKind kind, uint64_t a) {
  return scratch.Intern(kind, a, 4, BinOp::kAdd, nullptr, nullptr, {});
}

SymRef Add(ScratchInterner& scratch, SymRef lhs, SymRef rhs) {
  return scratch.Intern(SymKind::kBin, 0, 4, BinOp::kAdd, lhs, rhs, {});
}

/// The node's kind payload, as the interners key it.
uint64_t Payload(const SymExpr& e) {
  switch (e.kind()) {
    case SymKind::kConst:
      return e.const_value();
    case SymKind::kArg:
      return static_cast<uint64_t>(e.arg_index());
    case SymKind::kRet:
      return e.ret_site();
    case SymKind::kHeap:
      return e.heap_id();
    case SymKind::kTaint:
      return e.taint_site();
    case SymKind::kInit:
      return static_cast<uint64_t>(e.init_reg());
    default:
      return 0;
  }
}

/// Counts the expressions of one kind of summary field, and whether
/// every node reachable from them is the global interner's own: the
/// node it returns for the same fields outside any scratch scope (the
/// factories' backend there), children first.
struct GlobalCheck {
  size_t expressions = 0;
  size_t scratch_nodes = 0;

  void Expect(SymRef expr) {
    if (!expr) return;
    ++expressions;
    if (Canonical(expr) != expr) ++scratch_nodes;
  }

  static SymRef Canonical(SymRef expr) {
    if (!expr) return nullptr;
    return ExprInterner::Global().Intern(
        expr->kind(), Payload(*expr), expr->deref_size(), expr->binop(),
        Canonical(expr->lhs()), Canonical(expr->rhs()),
        expr->taint_source());
  }
};

TEST(ScratchIntern, EveryNodeOfAnAnalysedSummaryIsGlobal) {
  ASSERT_EQ(ScratchInterner::Current(), nullptr);
  GlobalCheck defs, def_constraints, uses, targets, args, call_constraints,
      returns;
  // Five seeds cover all five plant patterns (indirect calls included),
  // on both architectures.
  for (const Binary& bin : testing_util::PlantCorpus("scratch", 300, 5, 3)) {
    Program program = CfgBuilder(bin).BuildProgram().value();
    SymEngine engine(bin);
    for (const auto& [name, fn] : program.functions) {
      FunctionSummary summary = engine.Analyze(fn);
      for (const DefPair& dp : summary.def_pairs) {
        defs.Expect(dp.d);
        defs.Expect(dp.u);
        dp.constraints.ForEach([&](const PathConstraint& c) {
          def_constraints.Expect(c.lhs);
          def_constraints.Expect(c.rhs);
        });
      }
      for (const UseRecord& use : summary.undefined_uses) uses.Expect(use.u);
      for (const CallEvent& call : summary.calls) {
        targets.Expect(call.indirect_target);
        for (SymRef arg : call.args) args.Expect(arg);
        call.constraints.ForEach([&](const PathConstraint& c) {
          call_constraints.Expect(c.lhs);
          call_constraints.Expect(c.rhs);
        });
      }
      for (SymRef value : summary.return_values) returns.Expect(value);
    }
  }
  for (const GlobalCheck* check : {&defs, &def_constraints, &uses, &targets,
                                   &args, &call_constraints, &returns}) {
    EXPECT_GT(check->expressions, 0u) << "the corpus must exercise it";
    EXPECT_EQ(check->scratch_nodes, 0u);
  }
}

TEST(ScratchIntern, ScopeRoutesTheFactoriesAndCountsItsNodes) {
  obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("intern.scratch_nodes");
  uint64_t before = counter.Value();
  SymRef global = SymExpr::Bin(BinOp::kAdd, SymExpr::Arg(1),
                               SymExpr::Const(8));
  size_t built = 0;
  {
    ScratchScope scope;
    ASSERT_EQ(ScratchInterner::Current(), &scope.interner());
    SymRef scratch = SymExpr::Bin(BinOp::kAdd, SymExpr::Arg(1),
                                  SymExpr::Const(8));
    built = scope.interner().size();
    EXPECT_EQ(built, 3u);
    EXPECT_NE(scratch, global);
    EXPECT_EQ(scratch->hash(), global->hash());  // structural, shared
    EXPECT_EQ(scope.interner().Publish(scratch), global);
    EXPECT_EQ(scope.interner().Publish(global), global);
  }
  EXPECT_EQ(ScratchInterner::Current(), nullptr);
  EXPECT_EQ(counter.Value() - before, built);
}

TEST(ScratchIntern, AResetScratchGivesNoStaleLeafOrTableHit) {
  ScratchInterner scratch;
  // One shape per route: a leaf slot, a fresh unknown, a table leaf,
  // a node linked as its lhs's first parent, one linked as its rhs's
  // (its lhs has a parent already), and one whose children both have
  // parents, which goes to the table.
  SymRef c = Leaf(scratch, SymKind::kConst, 5);
  SymRef f = Leaf(scratch, SymKind::kInit, kFreshInitBase + 3);
  SymRef h = Leaf(scratch, SymKind::kHeap, 0x77);
  SymRef lhs_linked = Add(scratch, h, c);
  SymRef rhs_linked = Add(scratch, h, f);
  SymRef tabled = Add(scratch, c, f);
  EXPECT_EQ(scratch.size(), 6u);
  const ScratchHits before = scratch.hits();
  EXPECT_EQ(Leaf(scratch, SymKind::kConst, 5), c);
  EXPECT_EQ(Leaf(scratch, SymKind::kInit, kFreshInitBase + 3), f);
  EXPECT_EQ(Leaf(scratch, SymKind::kHeap, 0x77), h);
  EXPECT_EQ(Add(scratch, h, c), lhs_linked);
  EXPECT_EQ(Add(scratch, h, f), rhs_linked);
  EXPECT_EQ(Add(scratch, c, f), tabled);
  EXPECT_EQ(scratch.size(), 6u);
  const ScratchHits warm = scratch.hits();
  EXPECT_EQ(warm.leaf - before.leaf, 1u);
  EXPECT_EQ(warm.fresh - before.fresh, 1u);
  EXPECT_EQ(warm.lhs_link - before.lhs_link, 1u);
  EXPECT_EQ(warm.rhs_link - before.rhs_link, 1u);
  EXPECT_EQ(warm.table - before.table, 2u);  // the heap leaf and `tabled`
  scratch.Reset();
  EXPECT_EQ(scratch.size(), 0u);

  // Every shape is built afresh: a stale hit would leave size() as is.
  // The order differs from before, so the rewound arena puts other
  // nodes where the old ones and their link prefixes were.
  SymRef h2 = Leaf(scratch, SymKind::kHeap, 0x77);
  EXPECT_EQ(scratch.size(), 1u);
  SymRef f2 = Leaf(scratch, SymKind::kInit, kFreshInitBase + 3);
  EXPECT_EQ(scratch.size(), 2u);
  SymRef c2 = Leaf(scratch, SymKind::kConst, 5);
  EXPECT_EQ(scratch.size(), 3u);
  SymRef tabled2 = Add(scratch, c2, f2);
  EXPECT_EQ(scratch.size(), 4u);
  SymRef sum = Add(scratch, h2, c2);
  EXPECT_EQ(scratch.size(), 5u);
  EXPECT_EQ(Add(scratch, h2, f2)->rhs(), f2);
  EXPECT_EQ(scratch.size(), 6u);
  EXPECT_EQ(sum->lhs()->heap_id(), 0x77u);
  EXPECT_EQ(sum->rhs()->const_value(), 5u);
  EXPECT_EQ(tabled2->lhs(), c2);
  EXPECT_EQ(tabled2->rhs()->init_reg(),
            static_cast<int>(kFreshInitBase + 3));
  const ScratchHits after = scratch.hits();
  EXPECT_EQ(after.leaf, warm.leaf);
  EXPECT_EQ(after.fresh, warm.fresh);
  EXPECT_EQ(after.lhs_link, warm.lhs_link);
  EXPECT_EQ(after.rhs_link, warm.rhs_link);
  EXPECT_EQ(after.table, warm.table);
  // The new links and entries serve hits again.
  EXPECT_EQ(Add(scratch, h2, c2), sum);
  EXPECT_EQ(Add(scratch, c2, f2), tabled2);
  EXPECT_EQ(scratch.size(), 6u);

  // A grown table and fresh array are cleared in place after a large
  // function, the table shrunk after a small one; none keeps a hit.
  for (uint64_t round = 0; round < 3; ++round) {
    const uint64_t count = round == 1 ? 10 : 3000;
    scratch.Reset();
    for (uint64_t i = 0; i < count; ++i) {
      SymRef heap = Leaf(scratch, SymKind::kHeap, 0x1000 + i);
      Leaf(scratch, SymKind::kConst, i);  // leaf cache below 1024
      Add(scratch, heap, Leaf(scratch, SymKind::kInit, kFreshInitBase + i));
    }
    EXPECT_EQ(scratch.size(), count * 4) << "round " << round;
    for (uint64_t i = 0; i < count; ++i) {
      SymRef heap = Leaf(scratch, SymKind::kHeap, 0x1000 + i);
      EXPECT_EQ(heap->heap_id(), 0x1000 + i);
      SymRef fresh = Leaf(scratch, SymKind::kInit, kFreshInitBase + i);
      EXPECT_EQ(Add(scratch, heap, fresh)->rhs(), fresh);
    }
    EXPECT_EQ(scratch.size(), count * 4) << "round " << round;
  }
}

TEST(ScratchIntern, PublishedTaintNamesOutliveTheirScratchArena) {
  // A taint node's name lives in its interner's arena, next to the
  // node. Publishing must copy it into the global arena: the scratch
  // copy is poisoned by Reset and overwritten by the next function, so
  // a published node that kept it would read the wrong name (and be a
  // use-after-poison under AddressSanitizer). The outsized name takes
  // the path for names longer than an arena block.
  const std::vector<std::string> names = {
      "recv", std::string(64, 'r'), std::string(100 * 1024, 'q')};
  std::vector<SymRef> published;
  ScratchInterner scratch;
  for (uint32_t round = 0; round < names.size(); ++round) {
    const std::string& name = names[round];
    SymRef first = scratch.Intern(SymKind::kTaint, 0x40 + round, 4,
                                  BinOp::kAdd, nullptr, nullptr, name);
    SymRef second = scratch.Intern(SymKind::kTaint, 0x80 + round, 4,
                                   BinOp::kAdd, nullptr, nullptr, name);
    EXPECT_EQ(first->taint_source(), name);
    SymRef sum = scratch.Publish(Add(scratch, first, second));
    EXPECT_NE(first->taint_source().data(), name.data());  // a copy
    published.push_back(sum);
    scratch.Reset();
    // Reuse the rewound arena with other names before reading back.
    scratch.Intern(SymKind::kTaint, 0xC0, 4, BinOp::kAdd, nullptr, nullptr,
                   std::string(name.size(), 'x'));
    scratch.Reset();
  }
  for (uint32_t round = 0; round < names.size(); ++round) {
    EXPECT_EQ(published[round]->lhs()->taint_source(), names[round]);
    EXPECT_EQ(published[round]->rhs()->taint_source(), names[round]);
    EXPECT_EQ(published[round]->rhs()->taint_site(), 0x80 + round);
  }
}

TEST(ScratchIntern, TaintNamesAreFreedWithTheirGeneration) {
  // A global taint name goes when its generation is recycled, with the
  // arena that holds it; the next generation interns the same shape as
  // a new node with a name of its own.
  ExprInterner interner;
  const std::string name(100 * 1024, 'g');
  for (uint64_t generation = 0; generation < 3; ++generation) {
    InternPin pin = interner.Pin();
    EXPECT_EQ(interner.stats().recycles, generation);
    EXPECT_EQ(interner.stats().resident_nodes, 0u);
    SymRef taint = interner.Intern(SymKind::kTaint, 0x40, 4, BinOp::kAdd,
                                   nullptr, nullptr, name);
    EXPECT_EQ(taint->taint_source(), name);
    EXPECT_EQ(interner.stats().nodes, generation + 1);
    EXPECT_GE(interner.stats().bytes, (generation + 1) * name.size());
  }
}

TEST(ScratchIntern, EightSummaryThreadsRaceACacheDecoder) {
  std::vector<Binary> corpus = testing_util::PlantCorpus("race", 400, 2, 12);
  ASSERT_FALSE(corpus.empty());
  const Binary& bin = corpus.back();
  Program program = CfgBuilder(bin).BuildProgram().value();
  CallGraph graph = CallGraph::Build(program);
  SymEngine engine(bin);
  SummarySet reference = Summarize(program, graph, engine);
  ASSERT_GT(reference.summaries.size(), 8u);
  std::vector<std::vector<uint8_t>> blobs;
  for (const auto& [name, summary] : reference.summaries) {
    blobs.push_back(EncodeSummary(summary));
  }

  // The decoder builds global nodes from a thread with no scratch
  // scope while eight summary threads explore in theirs and publish.
  std::atomic<bool> stop{false};
  std::atomic<size_t> decoded{0};
  std::atomic<size_t> decode_mismatches{0};
  std::thread decoder([&] {
    do {
      for (const std::vector<uint8_t>& blob : blobs) {
        auto summary = DecodeSummary(blob);
        if (!summary.ok() || EncodeSummary(*summary) != blob) {
          decode_mismatches.fetch_add(1);
        }
        decoded.fetch_add(1);
      }
    } while (!stop.load());
  });
  InterprocConfig config;
  config.num_threads = 8;
  size_t summary_mismatches = 0;
  for (int run = 0; run < 3; ++run) {
    SummarySet got = Summarize(program, graph, engine, config);
    ASSERT_EQ(got.summaries.size(), reference.summaries.size());
    size_t i = 0;
    for (const auto& [name, summary] : got.summaries) {
      if (EncodeSummary(summary) != blobs[i++]) ++summary_mismatches;
    }
  }
  stop.store(true);
  decoder.join();
  EXPECT_EQ(summary_mismatches, 0u);
  EXPECT_EQ(decode_mismatches.load(), 0u);
  EXPECT_GE(decoded.load(), blobs.size());
}

}  // namespace
}  // namespace dtaint

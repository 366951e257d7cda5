// Differential oracle for the symbolic state.
//
// SymState keeps a persistent spine (ref-counted register chunks, a
// hash-trie memory behind a bounded per-path overlay, a shared
// constraint trail, a visited bitset), and the engine memoizes block
// transfers over it. Both are only admissible if they are *invisible*.
// Two tiers check that:
//
//  * property tests drive SymState and the plainest state one could
//    write — a register array, a linear list of memory cells compared
//    with SymExpr::Equal, a constraint vector and a visited set — in
//    lockstep through randomized store/load/fork interleavings and
//    compare every observable pointwise;
//  * corpus-level checks analyze synthesized binaries with block
//    memoization on (the default) and off (any limited AnalysisBudget
//    turns it off, here one too generous to ever trip) and require
//    byte-identical normalized reports and summary codec bytes.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "src/obs/metrics.h"
#include "src/symexec/symstate.h"
#include "src/util/rng.h"
#include "tests/testing/plant_corpus.h"

namespace dtaint {
namespace {

// ---------- SymState against a reference model -------------------------------

struct RefState {
  struct Cell {
    SymRef addr;
    SymRef value;
    uint8_t size = 0;
  };

  explicit RefState(Arch arch) : regs(kNumIrRegs) {
    const CallingConvention& cc = ConventionFor(arch);
    for (int r = 0; r < kNumIrRegs; ++r) regs[r] = SymExpr::InitReg(r);
    for (int i = 0; i < kNumRegArgs; ++i) {
      regs[cc.arg_regs[i]] = SymExpr::Arg(i);
    }
    regs[kRegSp] = SymExpr::Sp0();
    for (int i = kNumRegArgs; i < kMaxModeledArgs; ++i) {
      Store(SymAdd(SymExpr::Sp0(), cc.StackArgOffset(i)), SymExpr::Arg(i), 4);
    }
  }

  const Cell* Find(const SymRef& addr) const {
    for (const Cell& cell : mem) {
      if (SymExpr::Equal(cell.addr, addr)) return &cell;
    }
    return nullptr;
  }
  void Store(const SymRef& addr, const SymRef& value, uint8_t size) {
    may_hold_taint = may_hold_taint || value->IsTainted();
    for (Cell& cell : mem) {
      if (SymExpr::Equal(cell.addr, addr)) {
        cell.value = value;
        cell.size = size;
        return;
      }
    }
    mem.push_back({addr, value, size});
  }
  void SetReg(int reg, const SymRef& value) {
    may_hold_taint = may_hold_taint || value->IsTainted();
    regs[reg] = value;
  }

  std::vector<SymRef> regs;
  std::vector<Cell> mem;
  std::vector<PathConstraint> constraints;
  std::set<int> visited;
  bool may_hold_taint = false;
};

/// Address expressions the random walk stores to / loads from: argument
/// roots, field offsets, sp-relative slots, a heap symbol — the shapes
/// exploration actually produces. More than the overlay holds, so
/// spills into the trie happen too.
std::vector<SymRef> AddressPool() {
  std::vector<SymRef> pool;
  for (int i = 0; i < 4; ++i) {
    pool.push_back(SymExpr::Arg(i));
    pool.push_back(SymAdd(SymExpr::Arg(i), 4 * (i + 1)));
  }
  pool.push_back(SymExpr::Sp0());
  pool.push_back(SymAdd(SymExpr::Sp0(), -8));
  pool.push_back(SymAdd(SymExpr::Sp0(), 16));
  pool.push_back(SymExpr::Heap(0xbeef));
  pool.push_back(SymAdd(SymExpr::Heap(0xbeef), 12));
  pool.push_back(SymExpr::Ret(0x1234));
  return pool;
}

/// Values to store: constants, symbols, a taint marker.
std::vector<SymRef> ValuePool() {
  return {SymExpr::Const(0),           SymExpr::Const(0x41414141),
          SymExpr::Arg(2),             SymExpr::InitReg(5),
          SymExpr::Taint(0x2000, "recv"), SymExpr::Deref(SymExpr::Arg(1))};
}

/// Asserts every observable of `state` matches the model: registers,
/// every pool and model address, the entry count, the constraint trail
/// and the may-hold-taint answer.
void ExpectMatchesModel(SymState& state, const RefState& model,
                        const std::vector<SymRef>& pool,
                        const std::string& where) {
  for (int r = 0; r < kNumIrRegs; ++r) {
    EXPECT_TRUE(SymExpr::Equal(state.Reg(r), model.regs[r]))
        << where << " reg " << r << ": " << state.Reg(r)->ToString()
        << " vs " << model.regs[r]->ToString();
  }
  std::vector<SymRef> addrs = pool;
  for (const RefState::Cell& cell : model.mem) addrs.push_back(cell.addr);
  for (const SymRef& addr : addrs) {
    SymRef got = state.PeekMem(addr);
    const RefState::Cell* want = model.Find(addr);
    ASSERT_EQ(got != nullptr, want != nullptr)
        << where << " definedness of " << addr->ToString();
    if (want) {
      EXPECT_TRUE(SymExpr::Equal(got, want->value))
          << where << " at " << addr->ToString() << ": " << got->ToString()
          << " vs " << want->value->ToString();
    }
  }
  EXPECT_EQ(state.MemEntryCount(), model.mem.size()) << where;
  std::vector<PathConstraint> trail = state.ConstraintsSnapshot();
  ASSERT_EQ(trail.size(), model.constraints.size()) << where;
  EXPECT_EQ(state.ConstraintCount(), model.constraints.size()) << where;
  for (size_t i = 0; i < trail.size(); ++i) {
    const PathConstraint& want = model.constraints[i];
    EXPECT_EQ(trail[i].op, want.op) << where;
    EXPECT_EQ(trail[i].taken, want.taken) << where;
    EXPECT_EQ(trail[i].site, want.site) << where;
    EXPECT_TRUE(SymExpr::Equal(trail[i].lhs, want.lhs)) << where;
    EXPECT_TRUE(SymExpr::Equal(trail[i].rhs, want.rhs)) << where;
  }
  EXPECT_EQ(state.MayHoldTaint(), model.may_hold_taint) << where;
}

TEST(StateProperty, RandomizedInterleavingsMatchModel) {
  std::vector<SymRef> addrs = AddressPool();
  std::vector<SymRef> values = ValuePool();
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(0x57A7E + seed);
    // Forked lineages kept in lockstep with their model; ops apply to a
    // random live lineage and forks add one, so spine sharing is
    // exercised across many generations.
    std::vector<std::pair<SymState, RefState>> lineages;
    lineages.emplace_back(SymState::Entry(Arch::kDtArm),
                          RefState(Arch::kDtArm));
    for (int step = 0; step < 400; ++step) {
      auto& [state, model] = lineages[rng.Below(lineages.size())];
      std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      switch (rng.Below(6)) {
        case 0: {  // store
          const SymRef& addr = addrs[rng.Below(addrs.size())];
          const SymRef& value = values[rng.Below(values.size())];
          uint8_t size = rng.Chance(0.5) ? 4 : 1;
          state.StoreMem(addr, value, size);
          model.Store(addr, value, size);
          break;
        }
        case 1: {  // load: the stored value, or the lazy deref
          const SymRef& addr = addrs[rng.Below(addrs.size())];
          bool defined = false;
          SymRef got = state.LoadMem(addr, 4, &defined);
          const RefState::Cell* want = model.Find(addr);
          ASSERT_EQ(defined, want != nullptr) << where;
          SymRef expected = want ? want->value : SymExpr::Deref(addr, 4);
          ASSERT_TRUE(SymExpr::Equal(got, expected))
              << where << ": " << got->ToString() << " vs "
              << expected->ToString();
          break;
        }
        case 2: {  // register write
          int reg = static_cast<int>(rng.Below(kNumIrRegs));
          const SymRef& value = values[rng.Below(values.size())];
          state.SetReg(reg, value);
          model.SetReg(reg, value);
          break;
        }
        case 3: {  // constraint push
          PathConstraint c;
          c.op = BinOp::kCmpLt;
          c.lhs = values[rng.Below(values.size())];
          c.rhs = SymExpr::Const(static_cast<uint32_t>(rng.Below(256)));
          c.taken = rng.Chance(0.5);
          c.site = static_cast<uint32_t>(0x4000 + step);
          state.PushConstraint(c);
          model.constraints.push_back(c);
          break;
        }
        case 4: {  // visited-block marking
          int index = static_cast<int>(rng.Below(64));
          ASSERT_EQ(state.VisitedBlock(index), model.visited.count(index) != 0)
              << where;
          state.MarkVisited(index);
          model.visited.insert(index);
          break;
        }
        case 5: {  // fork: the child starts equal, then diverges
          if (lineages.size() >= 8) break;
          SymState child = state.Fork();
          RefState child_model = model;
          lineages.emplace_back(std::move(child), std::move(child_model));
          break;
        }
      }
    }
    for (size_t li = 0; li < lineages.size(); ++li) {
      ExpectMatchesModel(lineages[li].first, lineages[li].second, addrs,
                         "seed " + std::to_string(seed) + " lineage " +
                             std::to_string(li));
    }
  }
}

TEST(StateProperty, ForkIsolation) {
  // Writes after a fork stay invisible to the sibling, including
  // overlay entries committed to the shared trie at fork time.
  SymState parent = SymState::Entry(Arch::kDtArm);
  SymRef addr = SymAdd(SymExpr::Arg(0), 8);
  SymRef before = SymExpr::Const(7);
  parent.StoreMem(addr, before, 4);
  SymState child = parent.Fork();
  child.StoreMem(addr, SymExpr::Const(42), 4);
  child.SetReg(3, SymExpr::Const(42));
  SymRef parent_val = parent.PeekMem(addr);
  ASSERT_TRUE(parent_val);
  EXPECT_TRUE(SymExpr::Equal(parent_val, before))
      << "child store leaked into parent";
  parent.StoreMem(addr, SymExpr::Const(99), 4);
  SymRef child_val = child.PeekMem(addr);
  ASSERT_TRUE(child_val);
  EXPECT_TRUE(SymExpr::Equal(child_val, SymExpr::Const(42)))
      << "parent store leaked into child";
  EXPECT_FALSE(SymExpr::Equal(parent.Reg(3), child.Reg(3)))
      << "register write leaked";
}

TEST(StateProperty, TaintMaskTracksTaintedStores) {
  SymState state = SymState::Entry(Arch::kDtArm);
  EXPECT_FALSE(state.MayHoldTaint());
  // Untainted store: mask stays clear.
  state.StoreMem(SymExpr::Arg(0), SymExpr::Const(1), 4);
  EXPECT_FALSE(state.MayHoldTaint());
  // Tainted store through arg1: mask sets the arg-class bit.
  state.StoreMem(SymAdd(SymExpr::Arg(1), 4), SymExpr::Taint(0x100, "recv"),
                 4);
  EXPECT_TRUE(state.MayHoldTaint());
  EXPECT_NE(state.taint_mask() & (kTaintClassArg0 << 1), 0u);
  // The mask is monotone: overwriting does not clear it.
  state.StoreMem(SymAdd(SymExpr::Arg(1), 4), SymExpr::Const(0), 4);
  EXPECT_TRUE(state.MayHoldTaint());
  // Forks inherit the mask.
  SymState child = state.Fork();
  EXPECT_EQ(child.taint_mask(), state.taint_mask());
}

TEST(StateProperty, OverlaySpillKeepsLoadsExact) {
  // Far more distinct addresses than the overlay holds: every store
  // must stay retrievable after the forced spills to the trie, and
  // overwrites must replace, not duplicate.
  SymState state = SymState::Entry(Arch::kDtArm);
  RefState model(Arch::kDtArm);
  std::vector<SymRef> addrs;
  for (int i = 0; i < 64; ++i) {
    addrs.push_back(SymAdd(SymExpr::Arg(i % 4), 8 * i));
  }
  for (int i = 0; i < 64; ++i) {
    SymRef value = SymExpr::Const(static_cast<uint32_t>(i));
    state.StoreMem(addrs[i], value, 4);
    model.Store(addrs[i], value, 4);
  }
  state.StoreMem(addrs[0], SymExpr::Const(0xff), 4);
  model.Store(addrs[0], SymExpr::Const(0xff), 4);
  ExpectMatchesModel(state, model, addrs, "after spills");
  EXPECT_GT(state.arena()->stats.overlay_spills, 0u);
}

// ---------- block memoization against exact re-execution ----------------------

/// 20 synthesized binaries (10 seeds x 2 architectures).
std::vector<Binary> BuildCorpus() {
  return testing_util::PlantCorpus("sfw", 900, 10, 12);
}

using testing_util::NormalizedJson;

/// Analyzes `binary` and adds the block-memo replays it made to
/// `*memo_hits`.
std::string AnalyzeNormalized(const Binary& binary, bool memo,
                              AliasMode alias_mode, uint64_t* memo_hits) {
  obs::Counter& hits =
      obs::MetricsRegistry::Global().counter("engine.block_memo_hits");
  uint64_t hits_before = hits.Value();
  DTaintConfig config;
  config.interproc.alias_mode = alias_mode;
  // A step ceiling no function comes near: nothing is degraded, but
  // the budget is limited, which switches block memoization off.
  if (!memo) config.interproc.budget.max_steps = uint64_t{1} << 40;
  auto report = DTaint(config).Analyze(binary);
  *memo_hits += hits.Value() - hits_before;
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return std::string();
  EXPECT_TRUE(report->complete) << "the generous budget degraded a function";
  return NormalizedJson(*report);
}

TEST(StateDifferential, BlockMemoIsInvisibleInReports) {
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_EQ(corpus.size(), 20u);
  uint64_t exact_hits = 0;
  uint64_t memo_hits = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (AliasMode mode : {AliasMode::kEager, AliasMode::kOnDemandSSE}) {
      std::string exact =
          AnalyzeNormalized(corpus[i], /*memo=*/false, mode, &exact_hits);
      ASSERT_FALSE(exact.empty());
      EXPECT_EQ(AnalyzeNormalized(corpus[i], /*memo=*/true, mode, &memo_hits),
                exact)
          << "memoized run diverged on corpus[" << i << "] in alias mode "
          << static_cast<int>(mode);
    }
  }
  // Both sides of the comparison are what they claim to be.
  EXPECT_EQ(exact_hits, 0u);
  EXPECT_GT(memo_hits, 0u);
}

TEST(StateDifferential, BlockMemoIsInvisibleInSummaryCodecBytes) {
  // Summaries carry far more than reports surface (every def pair,
  // call event and constraint trail), so the codec bytes of each
  // function summary are the sharper comparison.
  std::vector<Binary> corpus = BuildCorpus();
  ASSERT_EQ(corpus.size(), 20u);
  for (size_t i = 0; i < corpus.size(); ++i) {
    CfgBuilder builder(corpus[i]);
    auto program = builder.BuildProgram();
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    SymEngine engine(corpus[i]);
    CallGraph graph = CallGraph::Build(*program);
    InterprocConfig exact_config;
    exact_config.budget.max_steps = uint64_t{1} << 40;
    ProgramAnalysis exact = RunBottomUp(*program, graph, engine, exact_config);
    ProgramAnalysis memo = RunBottomUp(*program, graph, engine);
    ASSERT_EQ(memo.summaries.size(), exact.summaries.size());
    for (const auto& [name, summary] : exact.summaries) {
      auto it = memo.summaries.find(name);
      ASSERT_NE(it, memo.summaries.end()) << name;
      EXPECT_EQ(EncodeSummary(it->second), EncodeSummary(summary))
          << "corpus[" << i << "] " << name
          << ": memoized summary encodes differently";
    }
  }
}

}  // namespace
}  // namespace dtaint

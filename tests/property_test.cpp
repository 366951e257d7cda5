// Property-based tests (parameterized sweeps) over the core invariants
// listed in DESIGN.md.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "src/binary/loader.h"
#include "src/binary/writer.h"
#include "src/cfg/cfg_builder.h"
#include "src/cfg/loops.h"
#include "src/core/alias_ondemand.h"
#include "src/core/interproc.h"
#include "src/core/structsim.h"
#include "src/firmware/extractor.h"
#include "src/firmware/packer.h"
#include "src/synth/firmware_synth.h"
#include "src/isa/asm_builder.h"
#include "src/isa/decode.h"
#include "src/lifter/lifter.h"
#include "src/symexec/prune.h"
#include "src/util/rng.h"
#include "tests/testing/random_insn.h"

namespace dtaint {
namespace {

using testing_util::RandomInsnForOp;

// ---------- encoder/decoder round trip --------------------------------------

const Op kAllOps[] = {
    Op::kMovR, Op::kMovI, Op::kMovHi, Op::kAddR, Op::kAddI, Op::kSubR,
    Op::kSubI, Op::kMulR, Op::kAndR, Op::kAndI, Op::kOrrR, Op::kOrrI,
    Op::kXorR, Op::kXorI, Op::kLslI, Op::kLsrI, Op::kLdrW, Op::kStrW,
    Op::kLdrB, Op::kStrB, Op::kLdrWR, Op::kStrWR, Op::kLdrBR, Op::kStrBR,
    Op::kCmpR, Op::kCmpI, Op::kB, Op::kBeq, Op::kBne, Op::kBlt,
    Op::kBge, Op::kBle, Op::kBgt, Op::kBl, Op::kBlr, Op::kRet,
    Op::kNop, Op::kSvc};

class EncodeRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(EncodeRoundTrip, DecodeOfEncodeIsIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  for (int i = 0; i < 200; ++i) {
    Insn insn = RandomInsnForOp(GetParam(), rng);
    auto word = Encode(insn);
    ASSERT_TRUE(word.ok()) << insn.ToString(Arch::kDtArm);
    auto back = Decode(*word);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, insn) << insn.ToString(Arch::kDtArm);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodeRoundTrip,
                         ::testing::ValuesIn(kAllOps));

// ---------- differential lifter test -----------------------------------------
//
// Machine-level reference interpreter vs. evaluation of the lifted IR,
// over random straight-line instruction sequences. Data memory is
// byte-addressed; multi-byte values use a fixed little-endian
// composition in both interpreters (the ISA's data endianness; only
// instruction *fetch* differs between the flavors).

struct ConcreteState {
  uint32_t regs[kNumIrRegs] = {};
  std::map<uint32_t, uint8_t> mem;

  uint32_t Read(uint32_t addr, int size) const {
    uint32_t v = 0;
    for (int i = size - 1; i >= 0; --i) {
      auto it = mem.find(addr + i);
      v = (v << 8) | (it == mem.end() ? 0 : it->second);
    }
    return v;
  }
  void Write(uint32_t addr, uint32_t value, int size) {
    for (int i = 0; i < size; ++i) {
      mem[addr + i] = static_cast<uint8_t>(value >> (8 * i));
    }
  }
  bool operator==(const ConcreteState& other) const {
    for (int r = 0; r < kNumIrRegs; ++r) {
      if (regs[r] != other.regs[r]) return false;
    }
    return mem == other.mem;
  }
};

/// Reference semantics, straight-line subset.
void StepMachine(const Insn& insn, ConcreteState& s) {
  auto alu = [&](uint32_t a, uint32_t b) -> uint32_t {
    switch (insn.op) {
      case Op::kAddR: case Op::kAddI: return a + b;
      case Op::kSubR: case Op::kSubI: return a - b;
      case Op::kMulR: return a * b;
      case Op::kAndR: case Op::kAndI: return a & b;
      case Op::kOrrR: case Op::kOrrI: return a | b;
      case Op::kXorR: case Op::kXorI: return a ^ b;
      case Op::kLslI: return static_cast<uint32_t>(insn.imm) >= 32
                                 ? 0 : a << insn.imm;
      case Op::kLsrI: return static_cast<uint32_t>(insn.imm) >= 32
                                 ? 0 : a >> insn.imm;
      default: return 0;
    }
  };
  uint32_t imm = static_cast<uint32_t>(insn.imm);
  switch (insn.op) {
    case Op::kMovR: s.regs[insn.rd] = s.regs[insn.rm]; break;
    case Op::kMovI: s.regs[insn.rd] = imm; break;
    case Op::kMovHi:
      s.regs[insn.rd] = (s.regs[insn.rd] & 0xFFFF) | (imm << 16);
      break;
    case Op::kAddR: case Op::kSubR: case Op::kMulR: case Op::kAndR:
    case Op::kOrrR: case Op::kXorR:
      s.regs[insn.rd] = alu(s.regs[insn.rn], s.regs[insn.rm]);
      break;
    case Op::kAddI: case Op::kSubI: case Op::kAndI: case Op::kOrrI:
    case Op::kXorI: case Op::kLslI: case Op::kLsrI:
      s.regs[insn.rd] = alu(s.regs[insn.rn], imm);
      break;
    case Op::kLdrW:
      s.regs[insn.rd] = s.Read(s.regs[insn.rn] + imm, 4);
      break;
    case Op::kLdrB:
      s.regs[insn.rd] = s.Read(s.regs[insn.rn] + imm, 1);
      break;
    case Op::kStrW:
      s.Write(s.regs[insn.rn] + imm, s.regs[insn.rd], 4);
      break;
    case Op::kStrB:
      s.Write(s.regs[insn.rn] + imm, s.regs[insn.rd], 1);
      break;
    case Op::kLdrWR:
      s.regs[insn.rd] = s.Read(s.regs[insn.rn] + s.regs[insn.rm], 4);
      break;
    case Op::kLdrBR:
      s.regs[insn.rd] = s.Read(s.regs[insn.rn] + s.regs[insn.rm], 1);
      break;
    case Op::kStrWR:
      s.Write(s.regs[insn.rn] + s.regs[insn.rm], s.regs[insn.rd], 4);
      break;
    case Op::kStrBR:
      s.Write(s.regs[insn.rn] + s.regs[insn.rm], s.regs[insn.rd], 1);
      break;
    case Op::kCmpR:
      s.regs[kFlagLhs] = s.regs[insn.rn];
      s.regs[kFlagRhs] = s.regs[insn.rm];
      break;
    case Op::kCmpI:
      s.regs[kFlagLhs] = s.regs[insn.rn];
      s.regs[kFlagRhs] = imm;
      break;
    default:
      break;
  }
}

uint32_t EvalIrExpr(ExprRef e, const ConcreteState& s) {
  switch (e->kind()) {
    case ExprKind::kConst: return e->const_value();
    case ExprKind::kGet: return s.regs[e->reg()];
    case ExprKind::kLoad:
      return s.Read(EvalIrExpr(e->lhs(), s), e->load_size());
    case ExprKind::kBinop: {
      uint32_t a = EvalIrExpr(e->lhs(), s);
      uint32_t b = EvalIrExpr(e->rhs(), s);
      switch (e->binop()) {
        case BinOp::kAdd: return a + b;
        case BinOp::kSub: return a - b;
        case BinOp::kMul: return a * b;
        case BinOp::kAnd: return a & b;
        case BinOp::kOr: return a | b;
        case BinOp::kXor: return a ^ b;
        case BinOp::kShl: return b >= 32 ? 0 : a << b;
        case BinOp::kShr: return b >= 32 ? 0 : a >> b;
        // Conditional branches compare signed, as the VM does.
        case BinOp::kCmpEq: return a == b;
        case BinOp::kCmpNe: return a != b;
        case BinOp::kCmpLt:
          return static_cast<int32_t>(a) < static_cast<int32_t>(b);
        case BinOp::kCmpGe:
          return static_cast<int32_t>(a) >= static_cast<int32_t>(b);
        case BinOp::kCmpLe:
          return static_cast<int32_t>(a) <= static_cast<int32_t>(b);
        case BinOp::kCmpGt:
          return static_cast<int32_t>(a) > static_cast<int32_t>(b);
      }
    }
  }
  return 0;
}

/// Runs a flat block: each statement evaluates its whole tree against
/// the state left by the statements before it. Returns whether the
/// block's last exit is taken (false when it has none).
bool RunIrBlock(const IRBlock& block, ConcreteState& s) {
  bool exit_taken = false;
  for (const Stmt& stmt : block.stmts) {
    switch (stmt.kind) {
      case StmtKind::kPut:
        s.regs[stmt.reg] = EvalIrExpr(stmt.expr, s);
        break;
      case StmtKind::kStore: {
        uint32_t addr = EvalIrExpr(stmt.addr_expr, s);
        uint32_t data = EvalIrExpr(stmt.data_expr, s);
        s.Write(addr, data, stmt.size);
        break;
      }
      case StmtKind::kExit:
        exit_taken = EvalIrExpr(stmt.expr, s) != 0;
        break;
    }
  }
  return exit_taken;
}

const Op kStraightLine[] = {
    Op::kMovR, Op::kMovI, Op::kMovHi, Op::kAddR, Op::kAddI, Op::kSubR,
    Op::kSubI, Op::kMulR, Op::kAndR, Op::kAndI, Op::kOrrR, Op::kOrrI,
    Op::kXorR, Op::kXorI, Op::kLslI, Op::kLsrI, Op::kLdrW, Op::kStrW,
    Op::kLdrB, Op::kStrB, Op::kLdrWR, Op::kStrWR, Op::kLdrBR,
    Op::kStrBR, Op::kCmpR, Op::kCmpI, Op::kNop};

/// Random guest register values that double as benign memory
/// addresses; the flag registers start at 0.
ConcreteState RandomState(Rng& rng) {
  ConcreteState state;
  for (int r = 0; r < kNumRegs; ++r) {
    state.regs[r] = 0x20000 + static_cast<uint32_t>(rng.Below(0x1000)) * 4;
  }
  return state;
}

class DifferentialLift
    : public ::testing::TestWithParam<std::tuple<Arch, int>> {};

TEST_P(DifferentialLift, IrEffectsMatchMachineSemantics) {
  const auto& [arch, seed] = GetParam();
  Rng rng(seed * 977 + 5);
  for (int trial = 0; trial < 40; ++trial) {
    // Random straight-line program.
    std::vector<Insn> insns;
    int length = static_cast<int>(rng.Range(1, 24));
    for (int i = 0; i < length; ++i) {
      Insn insn = RandomInsnForOp(
          kStraightLine[rng.Below(std::size(kStraightLine))], rng);
      // Avoid clobbering pc; keep addresses away from wrap-around.
      if (insn.rd == kRegPc) insn.rd = 4;
      insns.push_back(insn);
    }
    FnBuilder b("f");
    for (const Insn& insn : insns) b.Emit(insn);
    b.Ret();
    BinaryWriter writer(arch, "t");
    writer.AddFunction(std::move(b).Finish().value());
    Binary bin = writer.Build().value();

    // Common random initial state.
    ConcreteState init = RandomState(rng);

    ConcreteState machine = init;
    for (const Insn& insn : insns) StepMachine(insn, machine);

    ConcreteState ir = init;
    IRBlock block = Lifter(bin).LiftBlock(kTextBase).value();
    RunIrBlock(block, ir);
    // The ret block-end also reads lr; register effects only matter.
    EXPECT_EQ(machine, ir) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialLift,
    ::testing::Combine(::testing::Values(Arch::kDtArm, Arch::kDtMips),
                       ::testing::Range(0, 8)));

// ---------- faint-register pruning -------------------------------------------

class PruneDeadPutsProperty
    : public ::testing::TestWithParam<std::tuple<Arch, int>> {};

TEST_P(PruneDeadPutsProperty, PrunedBlockKeepsStoresExitAndLiveRegisters) {
  // A random block, ended by each kind of terminator, run before and
  // after the pass: the same stores, the same exit decision and the
  // same values in every register the terminator reads.
  const auto& [arch, seed] = GetParam();
  const CallingConvention& cc = ConventionFor(arch);
  Rng rng(seed * 613 + 29);
  for (int trial = 0; trial < 40; ++trial) {
    FnBuilder b("f");
    const int length = static_cast<int>(rng.Range(1, 32));
    for (int i = 0; i < length; ++i) {
      Insn insn = RandomInsnForOp(
          kStraightLine[rng.Below(std::size(kStraightLine))], rng);
      if (insn.rd == kRegPc) insn.rd = 4;
      b.Emit(insn);
    }
    switch (rng.Below(4)) {
      case 0:
        b.Ret();
        break;
      case 1:
        b.Beq("out");
        b.Label("out");
        b.Ret();
        break;
      case 2:
        b.Call("strcpy");
        b.Ret();
        break;
      default:
        b.CallReg(static_cast<int>(rng.Below(kNumRegs - 1)));
        b.Ret();
        break;
    }
    BinaryWriter writer(arch, "t");
    writer.AddImport("strcpy");
    writer.AddFunction(std::move(b).Finish().value());
    Binary bin = writer.Build().value();
    const uint32_t addr = bin.FindSymbol("f")->addr;

    IRBlock full = Lifter(bin).LiftBlock(addr).value();
    FunctionIR ir;
    ir.blocks.emplace_back(addr, Lifter(bin).LiftBlock(addr).value());
    const uint32_t dropped = PruneDeadPuts(ir, cc)[0];
    const IRBlock& pruned = ir.blocks[0].second;
    EXPECT_EQ(pruned.stmts.size() + dropped, full.stmts.size());

    const ConcreteState init = RandomState(rng);
    ConcreteState before = init;
    ConcreteState after = init;
    EXPECT_EQ(RunIrBlock(full, before), RunIrBlock(pruned, after))
        << "trial " << trial;
    EXPECT_EQ(before.mem, after.mem) << "trial " << trial;
    const RegMask live = BlockEndUses(pruned, cc);
    for (int r = 0; r < kNumIrRegs; ++r) {
      if (live & (RegMask{1} << r)) {
        EXPECT_EQ(before.regs[r], after.regs[r])
            << "trial " << trial << ", r" << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PruneDeadPutsProperty,
    ::testing::Combine(::testing::Values(Arch::kDtArm, Arch::kDtMips),
                       ::testing::Range(0, 8)));

// ---------- flat IR shape invariants -----------------------------------------

/// Adds every node of the tree under `e` to `seen`; false if one was
/// already there.
bool CollectNodes(ExprRef e, std::set<ExprRef>& seen) {
  if (!e) return true;
  if (!seen.insert(e).second) return false;
  return CollectNodes(e->lhs(), seen) && CollectNodes(e->rhs(), seen);
}

class FlatIr : public ::testing::TestWithParam<int> {};

TEST_P(FlatIr, StatementsShareNoNodeAndKeepGuestOrder) {
  Rng rng(GetParam() * 389 + 11);
  for (int trial = 0; trial < 20; ++trial) {
    FnBuilder b("f");
    const int length = static_cast<int>(rng.Range(1, 32));
    for (int i = 0; i < length; ++i) {
      b.Emit(RandomInsnForOp(kAllOps[rng.Below(std::size(kAllOps))], rng));
    }
    b.Ret();
    BinaryWriter writer(Arch::kDtArm, "t");
    writer.AddFunction(std::move(b).Finish().value());
    Binary bin = writer.Build().value();
    Lifter lifter(bin);
    // A block from every instruction: each one ends at its first
    // control transfer.
    for (int i = 0; i <= length; ++i) {
      auto block = lifter.LiftBlock(kTextBase + i * kInsnSize);
      if (!block.ok()) continue;
      std::set<ExprRef> seen;
      uint32_t last = block->addr;
      for (const Stmt& st : block->stmts) {
        EXPECT_TRUE(CollectNodes(st.expr, seen) &&
                    CollectNodes(st.addr_expr, seen) &&
                    CollectNodes(st.data_expr, seen))
            << "shared node in " << st.ToString();
        EXPECT_GE(st.addr, last) << st.ToString();
        EXPECT_GE(st.addr, block->addr);
        EXPECT_LT(st.addr, block->EndAddr());
        last = st.addr;
      }
      EXPECT_TRUE(CollectNodes(block->next, seen)) << "next shares a node";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlatIr, ::testing::Range(0, 8));

// ---------- firmware pack/extract round trip ---------------------------------

class FirmwareRoundTrip
    : public ::testing::TestWithParam<std::tuple<Packing, int>> {};

TEST_P(FirmwareRoundTrip, PreservesAllFiles) {
  const auto& [packing, seed] = GetParam();
  Rng rng(seed * 131 + 3);
  FirmwareImage image;
  image.vendor = "V" + std::to_string(seed);
  image.product = "P";
  image.version = "9.9";
  image.packing = packing;
  int files = static_cast<int>(rng.Range(1, 12));
  for (int i = 0; i < files; ++i) {
    FirmwareFile f;
    f.path = "/f" + std::to_string(i);
    size_t size = rng.Below(4096);
    f.bytes.resize(size);
    for (uint8_t& byte : f.bytes) {
      byte = static_cast<uint8_t>(rng.Below(256));
    }
    image.files.push_back(std::move(f));
  }
  auto out = FirmwareExtractor::Extract(FirmwarePacker::Pack(image));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->image.files.size(), image.files.size());
  for (size_t i = 0; i < image.files.size(); ++i) {
    EXPECT_EQ(out->image.files[i].path, image.files[i].path);
    EXPECT_EQ(out->image.files[i].bytes, image.files[i].bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FirmwareRoundTrip,
    ::testing::Combine(::testing::Values(Packing::kPlain, Packing::kXor),
                       ::testing::Range(0, 6)));

// ---------- layout similarity metric properties -------------------------------

StructLayout RandomLayout(Rng& rng) {
  static const char* kBases[] = {"R", "deref(R)", "deref(R+0x8)",
                                 "deref(R+0x10)"};
  StructLayout layout;
  layout.root = SymExpr::Arg(static_cast<int>(rng.Below(4)));
  int groups = static_cast<int>(rng.Range(1, 3));
  for (int g = 0; g < groups; ++g) {
    std::vector<StructField>& fields = layout.groups[kBases[rng.Below(4)]];
    // Offsets must be unique within a group: a real structure cannot
    // hold two conflicting fields at one offset.
    std::set<int64_t> offsets;
    int n = static_cast<int>(rng.Range(1, 6));
    for (int i = 0; i < n; ++i) {
      offsets.insert(static_cast<int64_t>(rng.Below(16)) * 4);
    }
    fields.clear();
    for (int64_t off : offsets) {
      fields.push_back({off, static_cast<ValueType>(rng.Below(5))});
    }
  }
  return layout;
}

class SimilarityProperties : public ::testing::TestWithParam<int> {};

TEST_P(SimilarityProperties, MetricAxioms) {
  Rng rng(GetParam() * 71 + 11);
  for (int i = 0; i < 50; ++i) {
    StructLayout a = RandomLayout(rng);
    StructLayout b = RandomLayout(rng);
    // Self-similarity equals the number of base groups.
    EXPECT_DOUBLE_EQ(LayoutSimilarity(a, a),
                     static_cast<double>(a.groups.size()));
    // Symmetry.
    EXPECT_DOUBLE_EQ(LayoutSimilarity(a, b), LayoutSimilarity(b, a));
    // Non-negativity and per-group boundedness.
    double sigma = LayoutSimilarity(a, b);
    EXPECT_GE(sigma, 0.0);
    EXPECT_LE(sigma,
              static_cast<double>(std::max(a.groups.size(),
                                           b.groups.size())));
    // Compatibility gate: incompatible implies zero.
    if (!LayoutsCompatible(a, b)) {
      EXPECT_DOUBLE_EQ(sigma, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimilarityProperties,
                         ::testing::Range(0, 5));

// ---------- symbolic expression normalization --------------------------------

class SymExprProperties : public ::testing::TestWithParam<int> {};

TEST_P(SymExprProperties, AddChainsNormalizeToBasePlusOffset) {
  Rng rng(GetParam() * 13 + 1);
  for (int i = 0; i < 100; ++i) {
    SymRef base = rng.Chance(0.5)
                      ? SymExpr::Arg(static_cast<int>(rng.Below(4)))
                      : SymExpr::Sp0();
    int64_t total = 0;
    SymRef expr = base;
    int steps = static_cast<int>(rng.Range(1, 8));
    for (int k = 0; k < steps; ++k) {
      int64_t delta = rng.Range(-64, 64);
      expr = SymAdd(expr, delta);
      total += delta;
    }
    auto split = SymExpr::SplitBaseOffset(expr);
    if (total == 0) {
      EXPECT_TRUE(SymExpr::Equal(expr, base));
    } else {
      ASSERT_TRUE(split.base);
      EXPECT_TRUE(SymExpr::Equal(split.base, base));
      EXPECT_EQ(split.offset, total);
    }
  }
}

TEST_P(SymExprProperties, ReplaceRemovesNeedle) {
  Rng rng(GetParam() * 17 + 2);
  for (int i = 0; i < 50; ++i) {
    SymRef needle = SymExpr::Arg(static_cast<int>(rng.Below(3)));
    SymRef expr = SymExpr::Deref(
        SymAdd(needle, static_cast<int64_t>(rng.Below(64))));
    SymRef to = SymExpr::Heap(rng.Next());
    SymRef out = SymExpr::Replace(expr, needle, to);
    EXPECT_FALSE(out->Contains(needle));
    EXPECT_TRUE(out->Contains(to));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SymExprProperties, ::testing::Range(0, 4));

// ---------- on-demand alias oracle properties --------------------------------
//
// The oracle's MayAlias must behave like an equivalence test over
// canonicalized SSEs: reflexive, symmetric, and exactly "canonical
// forms are Equal" — and its per-function memo must give the same
// answers no matter how many threads race the first query.

FunctionSummary MakeAliasSummary(Rng& rng, std::vector<SymRef>* alias_locs) {
  FunctionSummary s;
  s.name = "f";
  int facts = 1 + static_cast<int>(rng.Below(3));
  for (int i = 0; i < facts; ++i) {
    // Alias-creating store: deref(argI + off) = Sp0 + c.
    DefPair p;
    p.d = SymExpr::Deref(
        SymAdd(SymExpr::Arg(i), static_cast<int64_t>(rng.Below(8)) * 8));
    p.u = SymAdd(SymExpr::Sp0(),
                 0x40 + static_cast<int64_t>(rng.Below(8)) * 0x10);
    alias_locs->push_back(p.d);
    s.def_pairs.push_back(std::move(p));
  }
  // A store that yields no fact (tainted value, not a pointer).
  DefPair t;
  t.d = SymExpr::Deref(SymAdd(SymExpr::Sp0(), 0x170));
  t.u = SymExpr::Taint(1, "recv");
  s.def_pairs.push_back(std::move(t));
  return s;
}

SymRef RandomSse(Rng& rng, const std::vector<SymRef>& alias_locs) {
  SymRef expr = nullptr;
  switch (rng.Below(3)) {
    case 0:
      expr = SymExpr::Arg(static_cast<int>(rng.Below(4)));
      break;
    case 1:
      expr = SymExpr::Sp0();
      break;
    default:
      expr = alias_locs[rng.Below(alias_locs.size())];
      break;
  }
  int derefs = static_cast<int>(rng.Below(3));
  for (int i = 0; i < derefs; ++i) {
    expr = SymExpr::Deref(
        SymAdd(expr, static_cast<int64_t>(rng.Below(16)) * 4));
  }
  return expr;
}

class AliasOracleProperties : public ::testing::TestWithParam<int> {};

TEST_P(AliasOracleProperties, MayAliasIsCanonicalSseEquality) {
  Rng rng(GetParam() * 137 + 19);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<SymRef> alias_locs;
    FunctionSummary summary = MakeAliasSummary(rng, &alias_locs);
    OnDemandAliasOracle oracle;
    for (int i = 0; i < 25; ++i) {
      SymRef a = RandomSse(rng, alias_locs);
      SymRef b = RandomSse(rng, alias_locs);
      // Reflexivity.
      EXPECT_TRUE(oracle.MayAlias(summary, a, a)) << a->ToString();
      // Symmetry.
      bool ab = oracle.MayAlias(summary, a, b);
      EXPECT_EQ(oracle.MayAlias(summary, b, a), ab)
          << a->ToString() << " vs " << b->ToString();
      // Canonicalization invariance: a aliases b exactly when the
      // canonical SSEs are Equal (interned: pointer identity).
      EXPECT_EQ(ab, SymExpr::Equal(oracle.CanonicalSse(summary, a),
                                   oracle.CanonicalSse(summary, b)))
          << a->ToString() << " vs " << b->ToString();
      // Canonicalization is idempotent (a reached fixpoint).
      SymRef canon = oracle.CanonicalSse(summary, a);
      EXPECT_TRUE(
          SymExpr::Equal(oracle.CanonicalSse(summary, canon), canon))
          << a->ToString();
    }
  }
}

TEST_P(AliasOracleProperties, RewriteThroughFactAliasesItsTwinName) {
  Rng rng(GetParam() * 241 + 23);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<SymRef> alias_locs;
    FunctionSummary summary = MakeAliasSummary(rng, &alias_locs);
    OnDemandAliasOracle oracle;
    const std::vector<AliasFact>& facts = oracle.FactsFor(summary);
    ASSERT_EQ(facts.size(), alias_locs.size());
    for (const AliasFact& fact : facts) {
      // *(alias_loc)+k and *(base+offset)+k name the same cell.
      int64_t k = static_cast<int64_t>(rng.Below(16)) * 4;
      SymRef via_alias = SymExpr::Deref(SymAdd(fact.alias_loc, k));
      SymRef via_base =
          SymExpr::Deref(SymAdd(SymAdd(fact.base, fact.offset), k));
      EXPECT_TRUE(oracle.MayAlias(summary, via_alias, via_base))
          << via_alias->ToString() << " vs " << via_base->ToString();
    }
  }
}

TEST_P(AliasOracleProperties, MemoIsDeterministicAcrossThreadCounts) {
  // Build linked summaries from a real synthesized program, then race
  // the oracle's first queries from many threads: the memoized twins
  // must match a single-threaded oracle's, function for function.
  ProgramSpec spec;
  spec.name = "memo";
  spec.arch = GetParam() % 2 ? Arch::kDtMips : Arch::kDtArm;
  spec.seed = 900 + static_cast<uint64_t>(GetParam());
  spec.filler_functions = 10;
  PlantSpec p;
  p.id = "v";
  p.pattern = VulnPattern::kCrossCallAlias;
  p.source = "recv";
  p.sink = "memcpy";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  CfgBuilder builder(out->binary);
  auto program = builder.BuildProgram();
  ASSERT_TRUE(program.ok());
  SymEngine engine(out->binary);
  CallGraph graph = CallGraph::Build(*program);
  ProgramAnalysis analysis = RunBottomUp(*program, graph, engine);
  ASSERT_TRUE(analysis.alias_oracle);

  std::vector<const FunctionSummary*> summaries;
  for (const auto& [_, summary] : analysis.summaries) {
    summaries.push_back(&summary);
  }
  auto twin_strings = [](const std::vector<DefPair>& twins) {
    std::vector<std::string> out;
    for (const DefPair& dp : twins) {
      out.push_back(dp.d->ToString() + " = " + dp.u->ToString());
    }
    return out;
  };
  OnDemandAliasOracle reference;
  std::map<std::string, std::vector<std::string>> expected;
  for (const FunctionSummary* s : summaries) {
    expected[s->name] = twin_strings(reference.TwinsFor(*s));
  }

  for (int threads : {2, 8}) {
    OnDemandAliasOracle racing;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Rng order(static_cast<uint64_t>(t) * 71 + 5);
        for (size_t i = 0; i < summaries.size(); ++i) {
          racing.TwinsFor(*summaries[order.Below(summaries.size())]);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (const FunctionSummary* s : summaries) {
      EXPECT_EQ(twin_strings(racing.TwinsFor(*s)), expected[s->name])
          << s->name << " at " << threads << " threads";
    }
    EXPECT_EQ(racing.memo_pairs(), reference.memo_pairs());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AliasOracleProperties,
                         ::testing::Range(0, 4));

// ---------- synthesized programs are well-formed ------------------------------

class SynthWellFormed
    : public ::testing::TestWithParam<std::tuple<Arch, int>> {};

TEST_P(SynthWellFormed, RoundTripsAndBuildsCfg) {
  const auto& [arch, seed] = GetParam();
  ProgramSpec spec;
  spec.name = "p";
  spec.arch = arch;
  spec.seed = seed;
  spec.filler_functions = 25;
  PlantSpec p;
  p.id = "v";
  p.pattern = static_cast<VulnPattern>(seed % 5);
  p.source = (p.pattern == VulnPattern::kDispatch ||
              p.pattern == VulnPattern::kLoopCopy ||
              p.pattern == VulnPattern::kAliasChain)
                 ? "recv"
                 : "getenv";
  p.sink = p.pattern == VulnPattern::kLoopCopy
               ? "loop"
               : (p.pattern == VulnPattern::kDispatch ? "memcpy"
                                                      : "system");
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Serialize -> load -> CFG: all stages must accept the program.
  std::vector<uint8_t> bytes = BinaryWriter::Serialize(out->binary);
  auto loaded = BinaryLoader::Load(bytes);
  ASSERT_TRUE(loaded.ok());
  CfgBuilder builder(*loaded);
  auto program = builder.BuildProgram();
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  // Loop invariants: every back edge's endpoints are inside the loop.
  for (const auto& [name, fn] : program->functions) {
    LoopInfo loops = FindLoops(fn);
    for (const auto& [tail, header] : loops.back_edges) {
      ASSERT_TRUE(loops.loops.count(header));
      EXPECT_TRUE(loops.loops.at(header).count(tail));
      EXPECT_TRUE(loops.loops.at(header).count(header));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SynthWellFormed,
    ::testing::Combine(::testing::Values(Arch::kDtArm, Arch::kDtMips),
                       ::testing::Range(0, 10)));

}  // namespace
}  // namespace dtaint

// ---------- robustness: mutated inputs never crash the parsers ---------------
//
// Loader and extractor face hostile bytes in real deployments (that is
// the whole point of the tool); any mutation of a valid image must
// produce a clean Status, never UB. (Appended separately to keep the
// main suite readable.)

namespace dtaint {
namespace {

class MutationRobustness : public ::testing::TestWithParam<int> {};

TEST_P(MutationRobustness, LoaderSurvivesBitFlipsAndTruncation) {
  Rng rng(GetParam() * 313 + 17);
  BinaryWriter writer(Arch::kDtArm, "fuzzed");
  writer.AddImport("recv");
  FnBuilder b("f");
  b.MovI(0, 1);
  b.Call("recv");
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  writer.AddRodata({1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<uint8_t> pristine =
      BinaryWriter::Serialize(writer.Build().value());

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    int mutations = static_cast<int>(rng.Range(1, 8));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.Below(3)) {
        case 0:  // bit flip
          bytes[rng.Below(bytes.size())] ^=
              static_cast<uint8_t>(1u << rng.Below(8));
          break;
        case 1:  // byte splice
          bytes[rng.Below(bytes.size())] =
              static_cast<uint8_t>(rng.Below(256));
          break;
        default:  // truncate
          bytes.resize(1 + rng.Below(bytes.size()));
          break;
      }
    }
    auto result = BinaryLoader::Load(bytes);  // must not crash
    if (result.ok()) {
      // If it still parses (mutation in dead space would break the
      // checksum, so this should be rare-to-impossible), the result
      // must be structurally sane.
      EXPECT_NE(result->FindSection(".text"), nullptr);
    }
  }
}

TEST_P(MutationRobustness, ExtractorSurvivesBitFlipsAndTruncation) {
  Rng rng(GetParam() * 733 + 29);
  FirmwareImage image;
  image.vendor = "F";
  image.product = "Z";
  image.files.push_back({"/bin/a", std::vector<uint8_t>(128, 0xAB)});
  image.files.push_back({"/etc/b", std::vector<uint8_t>(64, 0xCD)});
  std::vector<uint8_t> pristine = FirmwarePacker::Pack(image);

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    int mutations = static_cast<int>(rng.Range(1, 8));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.Below(3)) {
        case 0:
          bytes[rng.Below(bytes.size())] ^=
              static_cast<uint8_t>(1u << rng.Below(8));
          break;
        case 1:
          bytes[rng.Below(bytes.size())] =
              static_cast<uint8_t>(rng.Below(256));
          break;
        default:
          bytes.resize(1 + rng.Below(bytes.size()));
          break;
      }
    }
    auto result = FirmwareExtractor::Extract(bytes);  // must not crash
    (void)result;
  }
}

TEST_P(MutationRobustness, RandomBytesNeverParse) {
  Rng rng(GetParam() * 53 + 41);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> junk(rng.Below(2048));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.Below(256));
    EXPECT_FALSE(BinaryLoader::Load(junk).ok());
    // The extractor may spuriously find the 4-byte magic in noise but
    // must then fail cleanly on the garbage that follows.
    auto result = FirmwareExtractor::Extract(junk);
    EXPECT_FALSE(result.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MutationRobustness, ::testing::Range(0, 4));

}  // namespace
}  // namespace dtaint

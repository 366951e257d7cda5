#include "src/lifter/lifter.h"

#include "src/isa/decode.h"
#include "src/obs/metrics.h"

namespace dtaint {

namespace {

/// Per-block lifting context: allocates temporaries and appends stmts,
/// building every expression in the block's arena.
class BlockCtx {
 public:
  explicit BlockCtx(IRBlock& block) : block_(block), arena_(*block.arena) {}

  ExprRef Tmp(ExprRef value) {
    int t = block_.next_tmp++;
    block_.stmts.push_back(Stmt::WrTmp(t, value));
    return Expr::MakeRdTmp(arena_, t);
  }
  void Put(int reg, ExprRef value) {
    block_.stmts.push_back(Stmt::Put(reg, value));
  }
  void Store(ExprRef addr, ExprRef data, uint8_t size) {
    block_.stmts.push_back(Stmt::Store(addr, data, size));
  }
  void Exit(ExprRef guard, uint32_t target) {
    block_.stmts.push_back(Stmt::Exit(guard, target));
  }
  ExprRef Get(int reg) { return Tmp(Expr::MakeGet(arena_, reg)); }
  ExprRef Const(uint32_t v) { return Expr::MakeConst(arena_, v); }
  ExprRef Bin(BinOp op, ExprRef a, ExprRef b) {
    return Tmp(Expr::MakeBinop(arena_, op, a, b));
  }
  ExprRef Load(ExprRef addr, uint8_t size) {
    return Tmp(Expr::MakeLoad(arena_, addr, size));
  }

 private:
  IRBlock& block_;
  BumpArena& arena_;
};

BinOp AluOp(Op op) {
  switch (op) {
    case Op::kAddR:
    case Op::kAddI:
      return BinOp::kAdd;
    case Op::kSubR:
    case Op::kSubI:
      return BinOp::kSub;
    case Op::kMulR:
      return BinOp::kMul;
    case Op::kAndR:
    case Op::kAndI:
      return BinOp::kAnd;
    case Op::kOrrR:
    case Op::kOrrI:
      return BinOp::kOr;
    case Op::kXorR:
    case Op::kXorI:
      return BinOp::kXor;
    case Op::kLslI:
      return BinOp::kShl;
    case Op::kLsrI:
      return BinOp::kShr;
    default:
      return BinOp::kAdd;
  }
}

BinOp CondOp(Op op) {
  switch (op) {
    case Op::kBeq:
      return BinOp::kCmpEq;
    case Op::kBne:
      return BinOp::kCmpNe;
    case Op::kBlt:
      return BinOp::kCmpLt;
    case Op::kBge:
      return BinOp::kCmpGe;
    case Op::kBle:
      return BinOp::kCmpLe;
    case Op::kBgt:
      return BinOp::kCmpGt;
    default:
      return BinOp::kCmpEq;
  }
}

/// LiftBlock, reading words through `words` and counting each word it
/// decodes in `decoded`.
Result<IRBlock> LiftBlockFrom(WordReader& words, uint32_t addr,
                              uint32_t stop_before, uint64_t& decoded) {
  // Keep in step with CfgBuilder::BuildFunction, which must bound every
  // block where this loop ends it and fail wherever it fails.
  if (addr % kInsnSize != 0) {
    return InvalidArgument("unaligned block address");
  }
  IRBlock block;
  block.addr = addr;
  BlockCtx ctx(block);

  uint32_t pc = addr;
  for (;;) {
    if (stop_before != 0 && pc >= stop_before && pc != addr) break;
    uint32_t word = 0;
    if (!words.Read(pc, word)) {
      return CorruptData("block runs off mapped memory at " +
                         std::to_string(pc));
    }
    auto insn_or = Decode(word);
    ++decoded;
    if (!insn_or.ok()) return insn_or.status();
    const Insn& insn = *insn_or;
    uint32_t next_pc = pc + kInsnSize;
    block.stmts.push_back(Stmt::IMark(pc));

    switch (insn.op) {
      case Op::kMovR:
        ctx.Put(insn.rd, ctx.Get(insn.rm));
        break;
      case Op::kMovI:
        ctx.Put(insn.rd, ctx.Const(static_cast<uint32_t>(insn.imm)));
        break;
      case Op::kMovHi: {
        ExprRef low = ctx.Bin(BinOp::kAnd, ctx.Get(insn.rd),
                              ctx.Const(0xFFFF));
        ExprRef combined = ctx.Bin(
            BinOp::kOr, low,
            ctx.Const(static_cast<uint32_t>(insn.imm) << 16));
        ctx.Put(insn.rd, combined);
        break;
      }
      case Op::kAddR:
      case Op::kSubR:
      case Op::kMulR:
      case Op::kAndR:
      case Op::kOrrR:
      case Op::kXorR:
        ctx.Put(insn.rd,
                ctx.Bin(AluOp(insn.op), ctx.Get(insn.rn), ctx.Get(insn.rm)));
        break;
      case Op::kAddI:
      case Op::kSubI:
      case Op::kAndI:
      case Op::kOrrI:
      case Op::kXorI:
      case Op::kLslI:
      case Op::kLsrI:
        ctx.Put(insn.rd,
                ctx.Bin(AluOp(insn.op), ctx.Get(insn.rn),
                        ctx.Const(static_cast<uint32_t>(insn.imm))));
        break;
      case Op::kLdrW:
      case Op::kLdrB: {
        ExprRef ea = ctx.Bin(BinOp::kAdd, ctx.Get(insn.rn),
                             ctx.Const(static_cast<uint32_t>(insn.imm)));
        ctx.Put(insn.rd, ctx.Load(ea, insn.op == Op::kLdrW ? 4 : 1));
        break;
      }
      case Op::kStrW:
      case Op::kStrB: {
        ExprRef ea = ctx.Bin(BinOp::kAdd, ctx.Get(insn.rn),
                             ctx.Const(static_cast<uint32_t>(insn.imm)));
        ctx.Store(ea, ctx.Get(insn.rd), insn.op == Op::kStrW ? 4 : 1);
        break;
      }
      case Op::kLdrWR:
      case Op::kLdrBR: {
        ExprRef ea =
            ctx.Bin(BinOp::kAdd, ctx.Get(insn.rn), ctx.Get(insn.rm));
        ctx.Put(insn.rd, ctx.Load(ea, insn.op == Op::kLdrWR ? 4 : 1));
        break;
      }
      case Op::kStrWR:
      case Op::kStrBR: {
        ExprRef ea =
            ctx.Bin(BinOp::kAdd, ctx.Get(insn.rn), ctx.Get(insn.rm));
        ctx.Store(ea, ctx.Get(insn.rd), insn.op == Op::kStrWR ? 4 : 1);
        break;
      }
      case Op::kCmpR:
        ctx.Put(kFlagLhs, ctx.Get(insn.rn));
        ctx.Put(kFlagRhs, ctx.Get(insn.rm));
        break;
      case Op::kCmpI:
        ctx.Put(kFlagLhs, ctx.Get(insn.rn));
        ctx.Put(kFlagRhs, ctx.Const(static_cast<uint32_t>(insn.imm)));
        break;
      case Op::kB: {
        uint32_t target = next_pc + static_cast<uint32_t>(insn.imm * 4);
        block.size = next_pc - addr;
        block.next = ctx.Const(target);
        block.jumpkind = JumpKind::kBoring;
        return block;
      }
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBle:
      case Op::kBgt: {
        uint32_t target = next_pc + static_cast<uint32_t>(insn.imm * 4);
        // The guard stays an inline Binop (not a temp) so consumers can
        // read the compared operands directly off the Exit statement.
        BumpArena& arena = *block.arena;
        ExprRef guard = Expr::MakeBinop(arena, CondOp(insn.op),
                                        Expr::MakeGet(arena, kFlagLhs),
                                        Expr::MakeGet(arena, kFlagRhs));
        ctx.Exit(guard, target);
        block.size = next_pc - addr;
        block.next = ctx.Const(next_pc);
        block.jumpkind = JumpKind::kBoring;
        return block;
      }
      case Op::kBl: {
        uint32_t target = next_pc + static_cast<uint32_t>(insn.imm * 4);
        ctx.Put(kRegLr, ctx.Const(next_pc));
        block.size = next_pc - addr;
        block.next = ctx.Const(target);
        block.jumpkind = JumpKind::kCall;
        block.return_addr = next_pc;
        return block;
      }
      case Op::kBlr: {
        ExprRef target = ctx.Get(insn.rm);
        ctx.Put(kRegLr, ctx.Const(next_pc));
        block.size = next_pc - addr;
        block.next = target;
        block.jumpkind = JumpKind::kIndirectCall;
        block.return_addr = next_pc;
        return block;
      }
      case Op::kRet: {
        block.size = next_pc - addr;
        block.next = ctx.Get(kRegLr);
        block.jumpkind = JumpKind::kRet;
        return block;
      }
      case Op::kNop:
      case Op::kSvc:
        break;
      case Op::kInvalid:
        return CorruptData("invalid opcode while lifting");
    }
    pc = next_pc;
  }

  // Fell through to stop_before: straight-line block ending in an
  // implicit fallthrough edge.
  block.size = pc - addr;
  block.next = ctx.Const(pc);
  block.jumpkind = JumpKind::kBoring;
  return block;
}

}  // namespace

Result<IRBlock> Lifter::LiftBlock(uint32_t addr, uint32_t stop_before) const {
  WordReader words(binary_);
  uint64_t decoded = 0;
  return LiftBlockFrom(words, addr, stop_before, decoded);
}

Result<FunctionIR> Lifter::LiftFunction(const Function& fn) const {
  static obs::Counter& lifted =
      obs::MetricsRegistry::Global().counter("lift.ir_functions");
  static obs::Counter& words_decoded =
      obs::MetricsRegistry::Global().counter("lift.words_decoded");
  lifted.Add();
  FunctionIR ir;
  WordReader words(binary_);
  uint64_t decoded = 0;
  for (const auto& [addr, info] : fn.blocks) {
    auto block = LiftBlockFrom(words, addr, info.EndAddr(), decoded);
    if (!block.ok()) return block.status();
    ir.blocks.emplace_hint(ir.blocks.end(), addr, std::move(*block));
  }
  words_decoded.Add(decoded);
  return ir;
}

}  // namespace dtaint

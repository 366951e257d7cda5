#include "src/lifter/lifter.h"

#include "src/isa/decode.h"
#include "src/obs/metrics.h"

namespace dtaint {

namespace {

/// Per-block lifting context: builds every expression in the block's
/// arena and appends each statement at the current instruction's
/// address.
class BlockCtx {
 public:
  explicit BlockCtx(IRBlock& block) : block_(block), arena_(*block.arena) {}

  void At(uint32_t pc) { pc_ = pc; }
  void Put(int reg, ExprRef value) {
    block_.stmts.push_back(Stmt::Put(pc_, reg, value));
  }
  void Store(ExprRef addr, ExprRef data, uint8_t size) {
    block_.stmts.push_back(Stmt::Store(pc_, addr, data, size));
  }
  void Exit(ExprRef guard, uint32_t target) {
    block_.stmts.push_back(Stmt::Exit(pc_, guard, target));
  }
  ExprRef Get(int reg) { return Expr::MakeGet(arena_, reg); }
  ExprRef Const(uint32_t v) { return Expr::MakeConst(arena_, v); }
  ExprRef Bin(BinOp op, ExprRef a, ExprRef b) {
    return Expr::MakeBinop(arena_, op, a, b);
  }
  ExprRef Load(ExprRef addr, uint8_t size) {
    return Expr::MakeLoad(arena_, addr, size);
  }
  /// The source operand: rm for a register-form insn, else its imm.
  ExprRef Operand(const Insn& insn) {
    return FormatOf(insn.op) == OpFormat::kR
               ? Get(insn.rm)
               : Const(static_cast<uint32_t>(insn.imm));
  }
  /// A load/store address: rn plus the source operand.
  ExprRef Address(const Insn& insn) {
    return Bin(BinOp::kAdd, Get(insn.rn), Operand(insn));
  }

 private:
  IRBlock& block_;
  BumpArena& arena_;
  uint32_t pc_ = 0;
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

/// Bytes a load or store moves.
uint8_t AccessSize(Op op) {
  return op == Op::kLdrW || op == Op::kStrW || op == Op::kLdrWR ||
                 op == Op::kStrWR
             ? 4
             : 1;
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

uint32_t BranchTarget(const Insn& insn, uint32_t next_pc) {
  return next_pc + static_cast<uint32_t>(insn.imm * 4);
}

/// Ends `block` just before `end` with its terminator.
IRBlock Close(IRBlock& block, uint32_t end, JumpKind kind, ExprRef next,
              uint32_t return_addr = 0) {
  block.size = end - block.addr;
  block.jumpkind = kind;
  block.next = next;
  block.return_addr = return_addr;
  return std::move(block);
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
  // About one statement per insn; +1 fits a `cmp; bcc` tail (three).
  if (stop_before > addr) {
    block.stmts.reserve((stop_before - addr) / kInsnSize + 1);
  }
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
    ctx.At(pc);

    switch (insn.op) {
      case Op::kMovR:
      case Op::kMovI:
        ctx.Put(insn.rd, ctx.Operand(insn));
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
      case Op::kAddI:
      case Op::kSubI:
      case Op::kAndI:
      case Op::kOrrI:
      case Op::kXorI:
      case Op::kLslI:
      case Op::kLsrI:
        ctx.Put(insn.rd,
                ctx.Bin(AluOp(insn.op), ctx.Get(insn.rn), ctx.Operand(insn)));
        break;
      case Op::kLdrW:
      case Op::kLdrB:
      case Op::kLdrWR:
      case Op::kLdrBR:
        ctx.Put(insn.rd, ctx.Load(ctx.Address(insn), AccessSize(insn.op)));
        break;
      case Op::kStrW:
      case Op::kStrB:
      case Op::kStrWR:
      case Op::kStrBR:
        ctx.Store(ctx.Address(insn), ctx.Get(insn.rd), AccessSize(insn.op));
        break;
      case Op::kCmpR:
      case Op::kCmpI:
        ctx.Put(kFlagLhs, ctx.Get(insn.rn));
        ctx.Put(kFlagRhs, ctx.Operand(insn));
        break;
      case Op::kB:
        return Close(block, next_pc, JumpKind::kBoring,
                     ctx.Const(BranchTarget(insn, next_pc)));
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBle:
      case Op::kBgt:
        // Consumers read the compared operands directly off the guard.
        ctx.Exit(ctx.Bin(CondOp(insn.op), ctx.Get(kFlagLhs),
                         ctx.Get(kFlagRhs)),
                 BranchTarget(insn, next_pc));
        return Close(block, next_pc, JumpKind::kBoring, ctx.Const(next_pc));
      case Op::kBl:
        return Close(block, next_pc, JumpKind::kCall,
                     ctx.Const(BranchTarget(insn, next_pc)), next_pc);
      case Op::kBlr:
        return Close(block, next_pc, JumpKind::kIndirectCall,
                     ctx.Get(insn.rm), next_pc);
      case Op::kRet:
        return Close(block, next_pc, JumpKind::kRet, ctx.Get(kRegLr));
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
  return Close(block, pc, JumpKind::kBoring, ctx.Const(pc));
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
  static obs::Counter& ir_stmts =
      obs::MetricsRegistry::Global().counter("lift.ir_stmts");
  lifted.Add();
  FunctionIR ir;
  ir.blocks.reserve(fn.blocks.size());
  WordReader words(binary_);
  uint64_t decoded = 0;
  uint64_t stmts = 0;
  for (const auto& [addr, info] : fn.blocks) {
    auto block = LiftBlockFrom(words, addr, info.EndAddr(), decoded);
    if (!block.ok()) return block.status();
    stmts += block->stmts.size();
    ir.blocks.emplace_back(addr, std::move(*block));
  }
  words_decoded.Add(decoded);
  ir_stmts.Add(stmts);
  return ir;
}

}  // namespace dtaint

#include "src/symexec/prune.h"

namespace dtaint {

namespace {

constexpr RegMask Bit(int reg) { return RegMask{1} << reg; }

/// The registers `e` reads; sets `*loads` when it contains a Load.
RegMask ExprUses(ExprRef e, bool* loads) {
  switch (e->kind()) {
    case ExprKind::kConst:
      return 0;
    case ExprKind::kGet:
      return Bit(e->reg());
    case ExprKind::kLoad:
      *loads = true;
      return ExprUses(e->lhs(), loads);
    case ExprKind::kBinop:
      return ExprUses(e->lhs(), loads) | ExprUses(e->rhs(), loads);
  }
  return 0;
}

/// One statement, reduced to what liveness needs. Computed once, so the
/// fixpoint never walks an expression again.
struct StmtFact {
  RegMask uses = 0;
  RegMask def = 0;     // the Put's register; empty for a Store or an Exit
  bool root = false;   // kept whatever is live after it
  bool kept = false;   // as of the block's last walk
};

/// One block, reduced likewise: its statements are
/// facts[first, first + count).
struct BlockFacts {
  uint32_t first = 0;
  uint32_t count = 0;
  RegMask end_uses = 0;
  RegMask kill = 0;  // written between the block's end and a successor
  int succ[2] = {-1, -1};
  RegMask walked_out = 0;  // live at the end as of the last walk
  uint32_t dropped = 0;    // as of the last walk
};

StmtFact FactOf(const Stmt& stmt) {
  StmtFact fact;
  bool loads = false;
  switch (stmt.kind) {
    case StmtKind::kPut:
      fact.uses = ExprUses(stmt.expr, &loads);
      fact.def = Bit(stmt.reg);
      if (stmt.reg == kFlagRhs) {
        // A constant operand types the register compared against it.
        fact.uses |= Bit(kFlagLhs);
        fact.root = true;
      }
      fact.root = fact.root || loads;
      break;
    case StmtKind::kStore:
      fact.uses = ExprUses(stmt.addr_expr, &loads) |
                  ExprUses(stmt.data_expr, &loads);
      fact.root = true;
      break;
    case StmtKind::kExit:
      fact.uses = ExprUses(stmt.expr, &loads);
      fact.root = true;
      break;
  }
  return fact;
}

/// Walks a block's facts backward from `live`, what is live at its end,
/// marks each statement kept or not, and returns what is live at its
/// start.
RegMask Walk(StmtFact* facts, BlockFacts& bf, RegMask live) {
  bf.walked_out = live;
  bf.dropped = 0;
  for (uint32_t i = bf.count; i-- > 0;) {
    StmtFact& fact = facts[bf.first + i];
    fact.kept = fact.root || (live & fact.def) != 0;
    if (fact.kept) {
      live = (live & ~fact.def) | fact.uses;
    } else {
      ++bf.dropped;
    }
  }
  return live;
}

/// The pass's working arrays, kept per thread: it runs once per
/// analysed function.
struct Scratch {
  std::vector<BlockFacts> blocks;
  std::vector<StmtFact> facts;
  std::vector<RegMask> live_in;
};

}  // namespace

RegMask BlockEndUses(const IRBlock& block, const CallingConvention& cc) {
  RegMask call_reads = Bit(kRegSp);
  for (int reg : cc.arg_regs) call_reads |= Bit(reg);
  bool loads = false;
  switch (block.jumpkind) {
    case JumpKind::kBoring:
      return 0;
    case JumpKind::kCall:
      return call_reads;
    case JumpKind::kIndirectCall:
      return call_reads | (block.next ? ExprUses(block.next, &loads) : 0);
    case JumpKind::kRet:
      return Bit(cc.ret_reg);
  }
  return 0;
}

std::vector<uint32_t> PruneDeadPuts(FunctionIR& ir,
                                    const CallingConvention& cc) {
  thread_local Scratch scratch;
  const size_t n = ir.blocks.size();
  std::vector<BlockFacts>& blocks = scratch.blocks;
  std::vector<StmtFact>& facts = scratch.facts;
  blocks.assign(n, BlockFacts{});
  facts.clear();
  for (size_t b = 0; b < n; ++b) {
    const IRBlock& block = ir.blocks[b].second;
    BlockFacts& bf = blocks[b];
    bf.first = static_cast<uint32_t>(facts.size());
    bf.count = static_cast<uint32_t>(block.stmts.size());
    const Stmt* last_exit = nullptr;
    for (const Stmt& stmt : block.stmts) {
      facts.push_back(FactOf(stmt));
      if (stmt.kind == StmtKind::kExit) last_exit = &stmt;
    }
    bf.end_uses = BlockEndUses(block, cc);
    switch (block.jumpkind) {
      case JumpKind::kBoring:
        // The engine takes the last exit, and a constant fallthrough.
        if (last_exit) bf.succ[0] = ir.IndexOf(last_exit->target);
        if (block.next && block.next->kind() == ExprKind::kConst) {
          bf.succ[1] = ir.IndexOf(block.next->const_value());
        }
        break;
      case JumpKind::kCall:
      case JumpKind::kIndirectCall:
        bf.succ[0] = ir.IndexOf(block.return_addr);
        bf.kill = Bit(kRegLr);
        break;
      case JumpKind::kRet:
        break;
    }
  }

  // Least fixpoint, so that a cycle of writes nothing else reads stays
  // dead. A block is walked again only when what is live at its end
  // changed, so its last walk marked what it keeps.
  std::vector<RegMask>& live_in = scratch.live_in;
  live_in.assign(n, 0);
  for (bool first = true, changed = true; changed; first = false) {
    changed = false;
    for (size_t b = n; b-- > 0;) {
      BlockFacts& bf = blocks[b];
      RegMask out = 0;
      for (int succ : bf.succ) {
        if (succ >= 0) out |= live_in[succ];
      }
      out = bf.end_uses | (out & ~bf.kill);
      if (!first && out == bf.walked_out) continue;
      const RegMask in = Walk(facts.data(), bf, out);
      if (in != live_in[b]) {
        live_in[b] = in;
        changed = true;
      }
    }
  }

  std::vector<uint32_t> dropped(n, 0);
  for (size_t b = 0; b < n; ++b) {
    const BlockFacts& bf = blocks[b];
    if (bf.dropped == 0) continue;
    std::vector<Stmt>& stmts = ir.blocks[b].second.stmts;
    size_t kept = 0;
    for (size_t i = 0; i < stmts.size(); ++i) {
      if (facts[bf.first + i].kept) stmts[kept++] = stmts[i];
    }
    stmts.resize(kept);
    dropped[b] = bf.dropped;
  }
  return dropped;
}

}  // namespace dtaint

#include "src/baseline/worklist_ddg.h"

#include <deque>

#include "src/isa/insn.h"
#include "src/isa/regs.h"
#include "src/lifter/lifter.h"
#include "src/obs/stopwatch.h"
#include "src/util/hash.h"

namespace dtaint {

namespace {

/// Reaching-definition state: for every variable (register or abstract
/// memory slot) the set of sites that may have defined it.
struct FlowState {
  // regs[r] = set of defining sites.
  std::map<int, std::set<uint32_t>> regs;
  // mem[slot-key] = set of defining sites. Slots are keyed by the
  // hash of the (base register, constant offset) address shape.
  std::map<uint64_t, std::set<uint32_t>> mem;

  bool MergeFrom(const FlowState& other) {
    bool changed = false;
    for (const auto& [r, defs] : other.regs) {
      auto& mine = regs[r];
      for (uint32_t d : defs) changed |= mine.insert(d).second;
    }
    for (const auto& [slot, defs] : other.mem) {
      auto& mine = mem[slot];
      for (uint32_t d : defs) changed |= mine.insert(d).second;
    }
    return changed;
  }
};

/// Abstract slot key for a memory operand expression: the pair of the
/// base register mentioned in the address and its constant offset.
uint64_t SlotKey(ExprRef addr) {
  // Address shapes from the lifter: Binop(Add, Get(base), Const) or
  // Binop(Add, Get(base), Get(index)); the address tree is whole, so
  // hash it structurally.
  uint64_t h = kFnvOffset;
  std::vector<ExprRef> stack{addr};
  while (!stack.empty()) {
    ExprRef e = stack.back();
    stack.pop_back();
    h = HashCombine(h, static_cast<uint64_t>(e->kind()));
    switch (e->kind()) {
      case ExprKind::kConst:
        h = HashCombine(h, e->const_value());
        break;
      case ExprKind::kGet:
        h = HashCombine(h, static_cast<uint64_t>(e->reg()));
        break;
      case ExprKind::kBinop:
        h = HashCombine(h, static_cast<uint64_t>(e->binop()));
        stack.push_back(e->lhs());
        stack.push_back(e->rhs());
        break;
      case ExprKind::kLoad:
        stack.push_back(e->lhs());
        break;
    }
  }
  return h;
}

class BaselineRun {
 public:
  BaselineRun(const Program& program, const BaselineConfig& config,
              BaselineStats& stats)
      : program_(program), config_(config), stats_(stats) {}

  void AnalyzeFunction(const std::string& name,
                       std::vector<uint32_t> context) {
    if (stats_.contexts_analyzed >=
        static_cast<size_t>(config_.max_contexts)) {
      stats_.budget_exhausted = true;
      return;
    }
    // Context key: function plus k-limited callsite chain. The same
    // function is re-analyzed for every distinct context — the cost
    // center the paper describes.
    uint64_t key = Fnv1a(name);
    for (uint32_t cs : context) key = HashCombine(key, cs);
    if (!visited_.insert(key).second) return;
    const Function* fn = program_.FindFunction(name);
    if (!fn || fn->blocks.empty()) return;
    const FunctionIR* ir = IrOf(*fn);
    if (!ir) return;
    ++stats_.contexts_analyzed;
    stats_.context_functions.push_back(name);

    // Iterative worklist over the CFG until fixpoint.
    std::map<uint32_t, FlowState> in_states;
    std::deque<uint32_t> worklist{fn->addr};
    std::map<uint32_t, int> iterations;
    while (!worklist.empty()) {
      uint32_t addr = worklist.front();
      worklist.pop_front();
      if (++iterations[addr] > config_.max_iterations) continue;
      const IRBlock* block = ir->BlockAt(addr);
      if (!block) continue;

      FlowState state = in_states[addr];
      ExecuteBlock(*block, state);
      ++stats_.block_executions;

      auto succs_it = fn->succs.find(addr);
      if (succs_it != fn->succs.end()) {
        for (uint32_t succ : succs_it->second) {
          if (in_states[succ].MergeFrom(state)) {
            worklist.push_back(succ);
          }
        }
      }
    }

    // Descend into every callee with the extended context.
    for (const CallSite& cs : fn->callsites) {
      std::vector<std::string> targets;
      if (cs.is_indirect) {
        targets = cs.resolved_targets;
      } else if (!cs.target_is_import && !cs.target_name.empty()) {
        targets.push_back(cs.target_name);
      }
      std::vector<uint32_t> child_context = context;
      child_context.push_back(cs.call_addr);
      if (static_cast<int>(child_context.size()) > config_.context_depth) {
        child_context.erase(child_context.begin());
      }
      for (const std::string& target : targets) {
        AnalyzeFunction(target, child_context);
      }
    }
  }

 private:
  /// The function's IR, lifted on its first context and kept for the
  /// rest (the baseline re-walks a function once per context).
  const FunctionIR* IrOf(const Function& fn) {
    auto it = ir_.find(fn.name);
    if (it == ir_.end()) {
      auto lifted = Lifter(*program_.binary).LiftFunction(fn);
      if (!lifted.ok()) return nullptr;
      it = ir_.emplace(fn.name, std::move(*lifted)).first;
    }
    return &it->second;
  }

  void ExecuteBlock(const IRBlock& block, FlowState& state) {
    for (const Stmt& stmt : block.stmts) {
      switch (stmt.kind) {
        case StmtKind::kPut:
          CountUses(stmt.expr, state);
          state.regs[stmt.reg] = {stmt.addr};
          break;
        case StmtKind::kStore:
          CountUses(stmt.addr_expr, state);
          CountUses(stmt.data_expr, state);
          state.mem[SlotKey(stmt.addr_expr)] = {stmt.addr};
          break;
        case StmtKind::kExit:
          CountUses(stmt.expr, state);
          break;
      }
    }
    // A call's link write, at the call instruction (src/ir/stmt.h).
    if (block.jumpkind == JumpKind::kCall ||
        block.jumpkind == JumpKind::kIndirectCall) {
      state.regs[kRegLr] = {block.EndAddr() - kInsnSize};
    }
  }

  /// Materializes def->use dependence edges for every variable read by
  /// the expression ("data dependence on every variable").
  void CountUses(ExprRef expr, FlowState& state) {
    if (!expr) return;
    switch (expr->kind()) {
      case ExprKind::kGet: {
        auto it = state.regs.find(expr->reg());
        if (it != state.regs.end()) {
          stats_.dependence_edges += it->second.size();
        }
        break;
      }
      case ExprKind::kLoad: {
        CountUses(expr->lhs(), state);
        auto it = state.mem.find(SlotKey(expr->lhs()));
        if (it != state.mem.end()) {
          stats_.dependence_edges += it->second.size();
        }
        break;
      }
      case ExprKind::kBinop:
        CountUses(expr->lhs(), state);
        CountUses(expr->rhs(), state);
        break;
      case ExprKind::kConst:
        break;
    }
  }

  const Program& program_;
  const BaselineConfig& config_;
  BaselineStats& stats_;
  std::set<uint64_t> visited_;
  std::map<std::string, FunctionIR> ir_;
};

}  // namespace

BaselineStats RunWorklistDdg(const Program& program,
                             const std::vector<std::string>& entries,
                             const BaselineConfig& config) {
  BaselineStats stats;
  obs::Stopwatch watch;
  BaselineRun run(program, config, stats);

  std::vector<std::string> roots = entries;
  if (roots.empty()) {
    // Roots: functions nobody calls directly. Fallback: everything.
    std::set<std::string> called;
    for (const auto& [_, fn] : program.functions) {
      for (const CallSite& cs : fn.callsites) {
        if (!cs.target_is_import && !cs.target_name.empty()) {
          called.insert(cs.target_name);
        }
        for (const std::string& t : cs.resolved_targets) called.insert(t);
      }
    }
    for (const auto& [name, _] : program.functions) {
      if (!called.count(name)) roots.push_back(name);
    }
    if (roots.empty()) {
      for (const auto& [name, _] : program.functions) roots.push_back(name);
    }
  }
  for (const std::string& root : roots) {
    run.AnalyzeFunction(root, {});
  }
  stats.seconds = watch.Seconds();
  return stats;
}

}  // namespace dtaint

#include "src/symexec/engine.h"

#include <memory>
#include <numeric>
#include <optional>

#include "src/lifter/lifter.h"
#include "src/symexec/intern.h"
#include "src/symexec/libmodels.h"
#include "src/symexec/prune.h"
#include "src/util/hash.h"

namespace dtaint {

namespace {

/// Fresh opaque symbol used when an expression is widened (depth cap)
/// or a value is unknowable; keyed so repeated widenings differ.
SymRef FreshUnknown(uint32_t salt) {
  return SymExpr::InitReg(static_cast<int>(kFreshInitBase + salt));
}

/// One in-flight exploration unit: a block about to be executed under a
/// path state.
struct Work {
  uint32_t block_addr;
  SymState state;
};

class Exploration {
 public:
  /// `pruned` holds, per block index, the statements PruneDeadPuts
  /// removed from `ir`.
  Exploration(const Binary& binary, const Function& fn, const FunctionIR& ir,
              const std::vector<uint32_t>& pruned, const EngineConfig& config,
              FunctionSummary& summary, BudgetTracker* budget)
      : binary_(binary), fn_(fn), ir_(ir), pruned_(pruned), config_(config),
        summary_(summary), budget_(budget), cc_(ConventionFor(binary.arch)) {}

  void Run() {
    // Each call block's callsite, resolved once: the last one that
    // matches the block's address and directness.
    callsite_of_.assign(ir_.blocks.size(), nullptr);
    for (const CallSite& c : fn_.callsites) {
      int index = ir_.IndexOf(c.block_addr);
      if (index >= 0 && c.is_indirect == (ir_.blocks[index].second.jumpkind ==
                                          JumpKind::kIndirectCall)) {
        callsite_of_[index] = &c;
      }
    }
    arena_ = std::make_shared<StateArena>();
    SymState init = SymState::Entry(binary_.arch, arena_);
    init.path_id = next_path_id_++;
    work_.push_back({fn_.addr, std::move(init)});
    while (!work_.empty()) {
      if (budget_ && budget_->exhausted()) break;
      if (summary_.paths_explored >= config_.max_paths ||
          block_visits_ >= config_.max_block_visits) {
        summary_.truncated = true;
        break;
      }
      Work work = std::move(work_.back());
      work_.pop_back();
      ExecuteBlock(work.block_addr, std::move(work.state));
    }
    summary_.engine_stats.cow_chunk_copies = arena_->stats.cow_chunk_copies;
    summary_.engine_stats.overlay_spills = arena_->stats.overlay_spills;
  }

 private:
  SymRef Widen(SymRef value) {
    if (value->Depth() <= config_.max_expr_depth) return value;
    return FreshUnknown(widen_counter_++);
  }

  SymRef EvalExpr(ExprRef e, SymState& state, uint32_t site) {
    switch (e->kind()) {
      case ExprKind::kConst:
        return SymExpr::Const(e->const_value());
      case ExprKind::kGet:
        return state.Reg(e->reg());
      case ExprKind::kLoad: {
        SymRef addr = EvalExpr(e->lhs(), state, site);
        auto split = SymExpr::SplitBaseOffset(addr);
        if (split.base) summary_.types.Observe(split.base, ValueType::kPtr);
        // Concrete addresses into .rodata/.data read the actual bytes —
        // string literals, dispatch tables (function pointers!).
        if (addr->kind() == SymKind::kConst && e->load_size() == 4) {
          auto word = binary_.ReadWordAt(addr->const_value());
          if (word.ok()) return SymExpr::Const(*word);
        }
        bool defined = false;
        SymRef value = state.LoadMem(addr, e->load_size(), &defined);
        if (!defined) {
          SymRef root = RootPointerOf(value);
          if (root && (root->kind() == SymKind::kArg ||
                       root->kind() == SymKind::kRet ||
                       root->kind() == SymKind::kHeap)) {
            summary_.undefined_uses.push_back({value, site, state.path_id});
          }
        }
        return value;
      }
      case ExprKind::kBinop: {
        SymRef lhs = EvalExpr(e->lhs(), state, site);
        SymRef rhs = EvalExpr(e->rhs(), state, site);
        return Widen(SymExpr::Bin(e->binop(), lhs, rhs));
      }
    }
    return FreshUnknown(widen_counter_++);
  }

  /// Collects call arguments arg0..arg{n-1} from the state.
  std::vector<SymRef> CollectArgs(SymState& state, int count) {
    std::vector<SymRef> args;
    args.reserve(count);  // held by the summary's call event: no slack
    for (int i = 0; i < count; ++i) {
      if (i < kNumRegArgs) {
        args.push_back(state.Reg(cc_.arg_regs[i]));
      } else {
        SymRef slot =
            SymAdd(state.Reg(kRegSp), (i - kNumRegArgs) * 4);
        args.push_back(state.LoadMem(slot, 4, nullptr));
      }
    }
    return args;
  }

  void RecordDef(SymState& state, SymRef location, SymRef value,
                 uint32_t site) {
    DefPair dp;
    dp.d = location;
    dp.u = value;
    dp.site = site;
    dp.path_id = state.path_id;
    dp.constraints = state.constraints();
    summary_.def_pairs.push_back(std::move(dp));
  }

  /// Applies a library model's memory/taint/return effects and its
  /// type evidence.
  void ApplyLibCall(const CallSite& cs, const LibFunction* model,
                    const std::string& name, std::vector<SymRef>& args,
                    SymState& state) {
    SymRef ret = SymExpr::Ret(cs.call_addr);
    if (model) {
      if (model->taints_pointee_of_arg >= 0 &&
          model->taints_pointee_of_arg < static_cast<int>(args.size())) {
        SymRef buf = args[model->taints_pointee_of_arg];
        SymRef taint = SymExpr::Taint(cs.call_addr, name);
        state.StoreMem(buf, taint, 4);
        RecordDef(state, SymExpr::Deref(buf), taint, cs.call_addr);
      }
      if (model->returns_tainted_buffer) {
        SymRef taint = SymExpr::Taint(cs.call_addr, name);
        state.StoreMem(ret, taint, 1);
        RecordDef(state, SymExpr::Deref(ret, 1), taint, cs.call_addr);
      }
      if (model->copy_dst_arg >= 0 && model->copy_src_arg >= 0 &&
          model->copy_dst_arg < static_cast<int>(args.size()) &&
          model->copy_src_arg < static_cast<int>(args.size())) {
        SymRef dst = args[model->copy_dst_arg];
        SymRef src = args[model->copy_src_arg];
        SymRef value = state.LoadMem(src, 4, nullptr);
        state.StoreMem(dst, value, 4);
        RecordDef(state, SymExpr::Deref(dst), value, cs.call_addr);
      }
      for (int dst_idx : model->extra_dst_args) {
        if (model->copy_src_arg < 0 ||
            dst_idx >= static_cast<int>(args.size())) {
          continue;
        }
        SymRef dst = args[dst_idx];
        SymRef value =
            state.LoadMem(args[model->copy_src_arg], 4, nullptr);
        state.StoreMem(dst, value, 4);
        RecordDef(state, SymExpr::Deref(dst), value, cs.call_addr);
      }
      if (model->allocates) {
        // Heap identity = hash of the callsite chain; intraprocedurally
        // the chain is just this callsite, and the interprocedural pass
        // extends the hash as summaries flow into callers (§III-E).
        ret = SymExpr::Heap(
            HashCombine(kFnvOffset, cs.call_addr));
      }
      if (model->returns_arg >= 0 &&
          model->returns_arg < static_cast<int>(args.size())) {
        ret = args[model->returns_arg];
      }
      if (model->returns_deref_of_arg >= 0 &&
          model->returns_deref_of_arg < static_cast<int>(args.size())) {
        ret = state.LoadMem(args[model->returns_deref_of_arg], 4, nullptr);
      }
      // Library-signature type evidence (paper: "the parameters are
      // specified data types").
      for (size_t i = 0; i < model->params.size() && i < args.size(); ++i) {
        summary_.types.Observe(args[i], model->params[i]);
      }
      summary_.types.Observe(ret, model->ret);
    }
    state.SetReg(cc_.ret_reg, ret);
  }

  bool InFunction(uint32_t addr) const {
    return addr >= fn_.addr && addr < fn_.addr + fn_.size;
  }

  void ExecuteBlock(uint32_t block_addr, SymState state) {
    // The block's position in the IR is its dense index in the function.
    const int block_idx = ir_.IndexOf(block_addr);
    if (block_idx < 0) {
      FinishPath(state);
      return;
    }
    const IRBlock* block = &ir_.blocks[block_idx].second;
    if (state.VisitedBlock(block_idx)) {
      // Loop heuristic: a block is analyzed once per path.
      FinishPath(state);
      return;
    }
    state.MarkVisited(block_idx);
    ++block_visits_;
    ++summary_.blocks_visited;

    // Pending symbolic conditional exit, if any (lifter emits at most
    // one, as the final statement before the block terminator).
    struct PendingExit {
      SymRef guard_lhs = nullptr, guard_rhs = nullptr;
      BinOp op;
      uint32_t target;
      uint32_t site;
      bool concrete = false;
      bool concrete_taken = false;
    };
    std::optional<PendingExit> pending_exit;

    // Cooperative watchdog: one budget step per IR statement, i.e. per
    // effect of a guest instruction, the pruned ones included. On
    // exhaustion abandon the block mid-way — the caller throws the
    // whole partial summary away and degrades.
    if (budget_ && pruned_[block_idx] != 0 &&
        budget_->ChargeSteps(pruned_[block_idx])) {
      return;
    }
    for (const Stmt& stmt : block->stmts) {
      if (budget_ && budget_->ChargeStep()) return;
      switch (stmt.kind) {
        case StmtKind::kPut: {
          SymRef value = EvalExpr(stmt.expr, state, stmt.addr);
          if (stmt.reg == kFlagRhs && value->kind() == SymKind::kConst) {
            // CMP rX, #imm marks rX's value as an integer.
            summary_.types.Observe(state.Reg(kFlagLhs), ValueType::kInt);
          }
          state.SetReg(stmt.reg, value);
          break;
        }
        case StmtKind::kStore: {
          SymRef addr = EvalExpr(stmt.addr_expr, state, stmt.addr);
          SymRef data = EvalExpr(stmt.data_expr, state, stmt.addr);
          auto split = SymExpr::SplitBaseOffset(addr);
          if (split.base) summary_.types.Observe(split.base, ValueType::kPtr);
          state.StoreMem(addr, data, stmt.size);
          RecordDef(state, SymExpr::Deref(addr, stmt.size), data, stmt.addr);
          break;
        }
        case StmtKind::kExit: {
          // Guard is Binop(cmp, flagL, flagR); evaluate its operands so
          // the constraint names program values, not flag registers.
          SymRef lhs = EvalExpr(stmt.expr->lhs(), state, stmt.addr);
          SymRef rhs = EvalExpr(stmt.expr->rhs(), state, stmt.addr);
          PendingExit px;
          px.op = stmt.expr->binop();
          px.guard_lhs = lhs;
          px.guard_rhs = rhs;
          px.target = stmt.target;
          px.site = stmt.addr;
          SymRef folded = SymExpr::Bin(px.op, lhs, rhs);
          if (folded->kind() == SymKind::kConst) {
            px.concrete = true;
            px.concrete_taken = folded->const_value() != 0;
          }
          pending_exit = std::move(px);
          break;
        }
      }
    }

    // Decide successors.
    switch (block->jumpkind) {
      case JumpKind::kBoring: {
        uint32_t fallthrough = 0;
        bool has_fallthrough = false;
        if (block->next && block->next->kind() == ExprKind::kConst) {
          fallthrough = block->next->const_value();
          has_fallthrough = InFunction(fallthrough);
        }
        if (pending_exit && !pending_exit->concrete) {
          // Symbolic: explore both directions (paper: "DTaint explores
          // both directions of each conditional branch").
          const PendingExit& px = *pending_exit;
          ++summary_.engine_stats.state_forks;
          SymState taken = state.Fork();
          taken.path_id = next_path_id_++;
          taken.PushConstraint(
              {px.op, px.guard_lhs, px.guard_rhs, true, px.site});
          Continue(px.target, std::move(taken));
          if (has_fallthrough) {
            state.PushConstraint(
                {px.op, px.guard_lhs, px.guard_rhs, false, px.site});
            Continue(fallthrough, std::move(state));
          } else {
            FinishPath(state);
          }
        } else if (pending_exit && pending_exit->concrete_taken) {
          // Deterministic branch: follow only the feasible side.
          Continue(pending_exit->target, std::move(state));
        } else if (has_fallthrough) {
          Continue(fallthrough, std::move(state));
        } else {
          FinishPath(state);
        }
        return;
      }
      case JumpKind::kCall: {
        state.SetReg(kRegLr, SymExpr::Const(block->return_addr));
        if (const CallSite* cs = callsite_of_[block_idx]) {
          HandleDirectCall(*cs, state);
        }
        break;
      }
      case JumpKind::kIndirectCall: {
        const CallSite* cs = callsite_of_[block_idx];
        // The target expression is the evaluated `next`, read before
        // the call's link write.
        SymRef target =
            cs ? EvalExpr(block->next, state, cs->call_addr) : nullptr;
        state.SetReg(kRegLr, SymExpr::Const(block->return_addr));
        if (cs) {
          CallEvent event;
          event.callsite = cs->call_addr;
          event.is_indirect = true;
          event.indirect_target = target;
          event.args = CollectArgs(state, kNumRegArgs + 2);
          event.constraints = state.constraints();
          event.path_id = state.path_id;
          summary_.calls.push_back(std::move(event));
          state.SetReg(cc_.ret_reg, SymExpr::Ret(cs->call_addr));
        }
        break;
      }
      case JumpKind::kRet:
        summary_.return_values.push_back(state.Reg(cc_.ret_reg));
        FinishPath(state);
        return;
    }
    // A call continues at its return address inside this function.
    if (InFunction(block->return_addr)) {
      Continue(block->return_addr, std::move(state));
    } else {
      FinishPath(state);
    }
  }

  void HandleDirectCall(const CallSite& cs, SymState& state) {
    const LibFunction* model =
        cs.target_is_import ? FindLibFunction(cs.target_name) : nullptr;
    const int arg_count =
        model ? static_cast<int>(model->params.size()) : kNumRegArgs + 2;
    CallEvent event;
    event.callsite = cs.call_addr;
    event.callee = cs.target_name;
    event.is_import = cs.target_is_import;
    event.args = CollectArgs(state, arg_count);
    event.constraints = state.constraints();
    event.path_id = state.path_id;

    if (cs.target_is_import) {
      ApplyLibCall(cs, model, cs.target_name, event.args, state);
    } else {
      // Local callee: the return value is the opaque ret_{callsite}
      // symbol; the interprocedural pass later substitutes the callee's
      // summary (Algorithm 2).
      state.SetReg(cc_.ret_reg, SymExpr::Ret(cs.call_addr));
    }
    summary_.calls.push_back(std::move(event));
  }

  void Continue(uint32_t block_addr, SymState state) {
    if (budget_) budget_->ChargeState();
    work_.push_back({block_addr, std::move(state)});
  }

  void FinishPath(const SymState& state) {
    if (state.MayHoldTaint()) ++summary_.engine_stats.tainted_paths;
    ++summary_.paths_explored;
  }

  const Binary& binary_;
  const Function& fn_;
  const FunctionIR& ir_;
  const std::vector<uint32_t>& pruned_;
  const EngineConfig& config_;
  FunctionSummary& summary_;
  BudgetTracker* budget_;
  const CallingConvention& cc_;

  std::vector<Work> work_;
  std::shared_ptr<StateArena> arena_;
  std::vector<const CallSite*> callsite_of_;  // by block index
  int next_path_id_ = 0;
  int block_visits_ = 0;
  uint32_t widen_counter_ = 0;
};

/// Replaces every expression and constraint list the summary carries
/// by its global twin, so nothing downstream ever sees a scratch node
/// or a trail cell. Records share their path's trail, and each trail
/// cell is published once. TypeMap needs no rewrite: it is keyed by the
/// structural hash, the same in both interners.
void PublishSummary(ScratchInterner& scratch, FunctionSummary& summary) {
  auto publish = [&scratch](auto& item) { item = scratch.Publish(item); };
  for (DefPair& dp : summary.def_pairs) {
    publish(dp.d);
    publish(dp.u);
    publish(dp.constraints);
  }
  for (UseRecord& use : summary.undefined_uses) publish(use.u);
  for (CallEvent& call : summary.calls) {
    publish(call.indirect_target);
    for (SymRef& arg : call.args) publish(arg);
    publish(call.constraints);
  }
  for (SymRef& value : summary.return_values) publish(value);
}

}  // namespace

FunctionSummary SymEngine::Analyze(const Function& fn,
                                   BudgetTracker* budget) const {
  // The IR lives exactly as long as this analysis: lifted here, freed on
  // return. The skeleton was built by the same decode, so lifting it
  // cannot fail unless the binary changed underneath; degrade then.
  auto ir = Lifter(binary_).LiftFunction(fn);
  if (!ir.ok()) return MakeDegradedSummary(fn);
  // Register writes that reach nothing the summary keeps are not
  // explored; their budget steps are still charged.
  const std::vector<uint32_t> pruned =
      PruneDeadPuts(*ir, ConventionFor(binary_.arch));
  FunctionSummary summary;
  summary.name = fn.name;
  summary.addr = fn.addr;
  summary.engine_stats.stmts_pruned =
      std::accumulate(pruned.begin(), pruned.end(), uint64_t{0});
  {
    // The exploration's expressions live in this thread's scratch
    // interner; only the finished summary's reach the global one.
    ScratchScope scope;
    Exploration exploration(binary_, fn, *ir, pruned, config_, summary,
                            budget);
    exploration.Run();
    if (!(budget && budget->exhausted())) {
      PublishSummary(scope.interner(), summary);
    }
  }
  // Built after the scope closes, so the stand-in's nodes are global.
  if (budget && budget->exhausted()) return MakeDegradedSummary(fn);
  return summary;
}

FunctionSummary MakeDegradedSummary(const Function& fn) {
  FunctionSummary summary;
  summary.name = fn.name;
  summary.addr = fn.addr;
  summary.degraded = true;
  summary.truncated = true;
  summary.paths_explored = 0;
  SymRef ret = nullptr;
  for (int i = 0; i < kNumRegArgs; ++i) {
    SymRef pointee = SymExpr::Deref(SymExpr::Arg(i));
    DefPair dp;
    dp.d = pointee;
    dp.u = pointee;
    dp.site = fn.addr;
    dp.path_id = 0;
    dp.degraded = true;
    summary.def_pairs.push_back(std::move(dp));
    summary.undefined_uses.push_back({pointee, fn.addr, 0});
    ret = ret ? SymExpr::Bin(BinOp::kOr, ret, pointee) : pointee;
  }
  summary.return_values.push_back(std::move(ret));
  return summary;
}

}  // namespace dtaint

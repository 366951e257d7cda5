#include "src/symexec/engine.h"

#include <deque>
#include <memory>
#include <unordered_map>

#include "src/lifter/lifter.h"
#include "src/util/hash.h"

namespace dtaint {

namespace {

/// Fresh opaque symbol used when an expression is widened (depth cap)
/// or a value is unknowable; keyed so repeated widenings differ.
SymRef FreshUnknown(uint32_t salt) {
  return SymExpr::InitReg(static_cast<int>(0x10000 + salt));
}

}  // namespace

const LibModel* FindLibModel(std::string_view name) {
  static const std::vector<LibModel> kModels = [] {
    std::vector<LibModel> models;
    auto taints_arg = [&models](const char* name, int arg, int ret_arg = -1) {
      LibModel m;
      m.name = name;
      m.taints_pointee_of_arg = arg;
      m.returns_arg = ret_arg;
      models.push_back(std::move(m));
    };
    auto taints_ret = [&models](const char* name) {
      LibModel m;
      m.name = name;
      m.returns_tainted_buffer = true;
      models.push_back(std::move(m));
    };
    auto copies = [&models](const char* name, int dst, int src,
                            int ret_arg = -1) {
      LibModel m;
      m.name = name;
      m.copy_dst_arg = dst;
      m.copy_src_arg = src;
      m.returns_arg = ret_arg;
      models.push_back(std::move(m));
    };
    // Sources: network/file reads write attacker bytes into a buffer arg.
    taints_arg("read", 1);
    taints_arg("recv", 1);
    taints_arg("recvfrom", 1);
    taints_arg("recvmsg", 1);
    taints_arg("fgets", 0, /*ret_arg=*/0);
    // Sources returning a pointer to attacker-controlled bytes.
    taints_ret("getenv");
    taints_ret("websGetVar");
    taints_ret("find_var");
    // Copies (sinks for overflow checking; also propagate data).
    copies("strcpy", 0, 1, /*ret_arg=*/0);
    copies("strncpy", 0, 1, /*ret_arg=*/0);
    copies("strcat", 0, 1, /*ret_arg=*/0);
    copies("memcpy", 0, 1, /*ret_arg=*/0);
    copies("sprintf", 0, 2);
    copies("snprintf", 0, 3);
    {
      LibModel m;
      m.name = "sscanf";
      m.copy_src_arg = 0;
      m.extra_dst_args = {2, 3, 4};
      models.push_back(std::move(m));
    }
    {
      LibModel m;
      m.name = "malloc";
      m.allocates = true;
      models.push_back(std::move(m));
    }
    // String interrogation: the result is a pure function of the buffer
    // contents, modeled as deref(arg) so `strlen(s) < 64` constrains
    // the same region the taint lives in.
    {
      LibModel m;
      m.name = "strlen";
      m.returns_deref_of_arg = 0;
      models.push_back(std::move(m));
    }
    {
      LibModel m;
      m.name = "atoi";
      m.returns_deref_of_arg = 0;
      models.push_back(std::move(m));
    }
    return models;
  }();
  for (const LibModel& m : kModels) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

/// One in-flight exploration unit: a block about to be executed under a
/// path state.
struct Work {
  uint32_t block_addr;
  SymState state;
};

// ---- block-transfer memoization --------------------------------------------
//
// A block's effect on a path state is a deterministic function of (a)
// the immutable block/binary and (b) the values the block actually
// reads out of the incoming state. Executing a block under a recording
// tape captures exactly those reads — registers and memory cells
// consulted before the block wrote them — as an ordered probe list,
// and every externally visible effect (state writes, def pairs,
// undefined uses, call events, type observations, the successor
// decision) as a replayable delta. A later visit whose state matches
// every probe (canonical pointer compare — exact, not a hash gamble)
// must produce the same effects, by induction over the probe order:
// probe k is a deterministic function of the block and probes 0..k-1.
// Replay substitutes the current path's id and constraint trail, which
// are the only path-dependent parts of the recorded effects
// (constraints never change mid-block — they are pushed at block
// exits). Blocks that widened (the fresh symbol draws from a global
// counter) are never memoized, and the whole machinery is off under a
// limited budget so degradation points stay bit-exact with
// per-statement charging. Memoization is invisible to analysis
// results (tests/golden_report_test pins this), so it is not part of
// the engine cache fingerprint.

/// The successor decision a block execution arrived at; shared by the
/// executed and replayed paths (Dispatch interprets it).
struct ExitDecision {
  enum Kind : uint8_t { kFinish, kGoto, kFork, kReturn } kind = kFinish;
  uint32_t target = 0;       // kGoto destination / kFork taken target
  uint32_t fallthrough = 0;  // kFork untaken side
  bool has_fallthrough = false;
  BinOp op = BinOp::kCmpEq;  // kFork guard
  SymRef guard_lhs, guard_rhs;
  uint32_t site = 0;
  SymRef ret_value;          // kReturn
};

struct MemoProbe {
  int reg = -1;  // >= 0: register probe; -1: memory probe at `addr`
  SymRef addr;
  SymRef value;  // expected value; nullptr = location undefined
};

struct MemoWrite {
  int reg = -1;
  SymRef addr;
  SymRef value;
  uint8_t size = 0;
};

struct MemoDef {
  SymRef d, u;
  uint32_t site = 0;
};

struct MemoUse {
  SymRef u;
  uint32_t site = 0;
};

struct BlockMemo {
  std::vector<MemoProbe> probes;
  std::vector<MemoWrite> writes;
  std::vector<MemoDef> defs;
  std::vector<MemoUse> uses;
  std::vector<CallEvent> calls;  // path_id/constraints filled at replay
  std::vector<std::pair<SymRef, ValueType>> types;
  uint32_t steps = 0;  // statements the recorded execution charged
  ExitDecision exit;
};

constexpr size_t kMaxMemoPerBlock = 4;  // distinct footprints kept per block
constexpr size_t kMaxMemoProbes = 32;   // beyond this, recording is abandoned
constexpr size_t kMaxMemoWrites = 128;

/// StateTape that builds a BlockMemo while a block executes. Reads of
/// locations the block already wrote are replay-internal and excluded
/// from the footprint; duplicate probes are collapsed (same state →
/// same value, so one check suffices).
class MemoRecorder : public StateTape {
 public:
  void Begin() {
    memo = BlockMemo{};
    written_regs_ = 0;
    probed_regs_ = 0;
    written_addrs_.clear();
    active = true;
  }

  void OnRegRead(int reg, const SymRef& value) override {
    if (!active) return;
    if (reg < 0 || reg >= 64) {
      active = false;
      return;
    }
    uint64_t bit = uint64_t{1} << reg;
    if ((written_regs_ | probed_regs_) & bit) return;
    probed_regs_ |= bit;
    memo.probes.push_back({reg, nullptr, value});
    if (memo.probes.size() > kMaxMemoProbes) active = false;
  }

  void OnRegWrite(int reg, const SymRef& value) override {
    if (!active) return;
    if (reg < 0 || reg >= 64) {
      active = false;
      return;
    }
    written_regs_ |= uint64_t{1} << reg;
    memo.writes.push_back({reg, nullptr, value, 0});
    if (memo.writes.size() > kMaxMemoWrites) active = false;
  }

  void OnMemRead(const SymRef& addr, const SymRef& value) override {
    if (!active) return;
    for (const SymRef& w : written_addrs_) {
      if (SymExpr::Equal(w, addr)) return;
    }
    for (const MemoProbe& p : memo.probes) {
      if (p.reg < 0 && SymExpr::Equal(p.addr, addr)) return;
    }
    memo.probes.push_back({-1, addr, value});
    if (memo.probes.size() > kMaxMemoProbes) active = false;
  }

  void OnMemWrite(const SymRef& addr, const SymRef& value,
                  uint8_t size) override {
    if (!active) return;
    written_addrs_.push_back(addr);
    memo.writes.push_back({-1, addr, value, size});
    if (memo.writes.size() > kMaxMemoWrites) active = false;
  }

  BlockMemo memo;
  bool active = false;

 private:
  uint64_t written_regs_ = 0;
  uint64_t probed_regs_ = 0;
  std::vector<SymRef> written_addrs_;
};

class Exploration {
 public:
  Exploration(const Binary& binary, const Function& fn, const FunctionIR& ir,
              const EngineConfig& config, FunctionSummary& summary,
              BudgetTracker* budget)
      : binary_(binary), fn_(fn), ir_(ir), config_(config), summary_(summary),
        budget_(budget), cc_(ConventionFor(binary.arch)) {}

  void Run() {
    // Dense per-function block numbering for the visited bitset (map
    // order = address order, deterministic).
    for (const auto& [addr, block] : fn_.blocks) {
      block_index_.emplace(addr, static_cast<int>(block_index_.size()));
    }
    // Memoization replays whole blocks; under a limited budget the
    // per-statement charge points ARE the observable behavior
    // (degradation must trip at the same statement), so it stays off.
    memo_enabled_ = !(budget_ && budget_->limits().limited());
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
    summary_.engine_stats.trie_nodes = arena_->stats.trie_nodes;
    summary_.engine_stats.arena_bytes = arena_->arena.bytes_reserved();
  }

 private:
  SymRef Widen(SymRef value) {
    if (value->Depth() <= config_.max_expr_depth) return value;
    return FreshUnknown(widen_counter_++);
  }

  SymRef EvalExpr(const ExprRef& e, std::vector<SymRef>& tmps,
                  SymState& state, uint32_t site) {
    switch (e->kind()) {
      case ExprKind::kConst:
        return SymExpr::Const(e->const_value());
      case ExprKind::kRdTmp:
        return tmps[e->tmp()];
      case ExprKind::kGet:
        return state.Reg(e->reg());
      case ExprKind::kLoad: {
        SymRef addr = EvalExpr(e->lhs(), tmps, state, site);
        if (config_.record_types) {
          auto split = SymExpr::SplitBaseOffset(addr);
          if (split.base) ObserveType(split.base, ValueType::kPtr);
        }
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
            RecordUndefinedUse(state, value, site);
          }
        }
        return value;
      }
      case ExprKind::kBinop: {
        SymRef lhs = EvalExpr(e->lhs(), tmps, state, site);
        SymRef rhs = EvalExpr(e->rhs(), tmps, state, site);
        return Widen(SymExpr::Bin(e->binop(), lhs, rhs));
      }
    }
    return FreshUnknown(widen_counter_++);
  }

  /// Collects call arguments arg0..arg{n-1} from the state.
  std::vector<SymRef> CollectArgs(SymState& state, int count) {
    std::vector<SymRef> args;
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

  // ---- effect funnels (observed by the memo recorder) ----------------------

  void RecordDef(SymState& state, SymRef location, SymRef value,
                 uint32_t site) {
    if (recorder_.active) {
      recorder_.memo.defs.push_back({location, value, site});
    }
    DefPair dp;
    dp.d = std::move(location);
    dp.u = std::move(value);
    dp.site = site;
    dp.path_id = state.path_id;
    dp.constraints = state.ConstraintsSnapshot();
    summary_.def_pairs.push_back(std::move(dp));
  }

  void RecordUndefinedUse(SymState& state, const SymRef& value,
                          uint32_t site) {
    if (recorder_.active) recorder_.memo.uses.push_back({value, site});
    summary_.undefined_uses.push_back({value, site, state.path_id});
  }

  void RecordCall(CallEvent event) {
    if (recorder_.active) {
      CallEvent proto = event;
      proto.constraints.clear();
      proto.path_id = 0;
      recorder_.memo.calls.push_back(std::move(proto));
    }
    summary_.calls.push_back(std::move(event));
  }

  void ObserveType(const SymRef& expr, ValueType type) {
    if (recorder_.active) recorder_.memo.types.push_back({expr, type});
    summary_.types.Observe(expr, type);
  }

  /// Applies a library model's memory/taint/return effects.
  void ApplyLibCall(const CallSite& cs, const LibModel* model,
                    const std::string& name, std::vector<SymRef>& args,
                    SymState& state) {
    SymRef ret = SymExpr::Ret(cs.call_addr);
    if (model) {
      if (model->taints_pointee_of_arg >= 0 &&
          model->taints_pointee_of_arg < static_cast<int>(args.size())) {
        const SymRef& buf = args[model->taints_pointee_of_arg];
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
        const SymRef& dst = args[model->copy_dst_arg];
        const SymRef& src = args[model->copy_src_arg];
        SymRef value = state.LoadMem(src, 4, nullptr);
        state.StoreMem(dst, value, 4);
        RecordDef(state, SymExpr::Deref(dst), value, cs.call_addr);
      }
      for (int dst_idx : model->extra_dst_args) {
        if (model->copy_src_arg < 0 ||
            dst_idx >= static_cast<int>(args.size())) {
          continue;
        }
        const SymRef& dst = args[dst_idx];
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
    }
    state.SetReg(cc_.ret_reg, ret);
    // Library-signature type evidence (paper: "the parameters are
    // specified data types").
    if (config_.record_types) {
      if (const LibSignature* sig = FindLibSignature(name)) {
        for (size_t i = 0; i < sig->params.size() && i < args.size(); ++i) {
          ObserveType(args[i], sig->params[i]);
        }
        ObserveType(ret, sig->ret);
      }
    }
  }

  int BlockIndexOf(uint32_t block_addr) const {
    auto it = block_index_.find(block_addr);
    return it == block_index_.end() ? 0 : it->second;
  }

  bool ProbesMatch(const BlockMemo& memo, const SymState& state) const {
    for (const MemoProbe& p : memo.probes) {
      if (p.reg >= 0) {
        if (!SymExpr::Equal(state.Reg(p.reg), p.value)) return false;
      } else {
        SymRef current = state.PeekMem(p.addr);
        if (!SymExpr::Equal(current, p.value)) return false;
      }
    }
    return true;
  }

  void ReplayMemo(const BlockMemo& memo, SymState state) {
    // Bulk step charge keeps the budget's effort counters identical to
    // the executed path (only reachable with an unlimited budget).
    if (budget_ && budget_->ChargeSteps(memo.steps)) return;
    for (const MemoWrite& w : memo.writes) {
      if (w.reg >= 0) {
        state.SetReg(w.reg, w.value);
      } else {
        state.StoreMem(w.addr, w.value, w.size);
      }
    }
    std::vector<PathConstraint> constraints;
    if (!memo.defs.empty() || !memo.calls.empty()) {
      constraints = state.ConstraintsSnapshot();
    }
    for (const MemoDef& d : memo.defs) {
      DefPair dp;
      dp.d = d.d;
      dp.u = d.u;
      dp.site = d.site;
      dp.path_id = state.path_id;
      dp.constraints = constraints;
      summary_.def_pairs.push_back(std::move(dp));
    }
    for (const MemoUse& u : memo.uses) {
      summary_.undefined_uses.push_back({u.u, u.site, state.path_id});
    }
    for (const CallEvent& proto : memo.calls) {
      CallEvent event = proto;
      event.constraints = constraints;
      event.path_id = state.path_id;
      summary_.calls.push_back(std::move(event));
    }
    for (const auto& [expr, type] : memo.types) {
      summary_.types.Observe(expr, type);
    }
    Dispatch(memo.exit, std::move(state));
  }

  void ExecuteBlock(uint32_t block_addr, SymState state) {
    const IRBlock* block = ir_.BlockAt(block_addr);
    if (!block) {
      FinishPath(state);
      return;
    }
    int block_idx = BlockIndexOf(block_addr);
    if (state.VisitedBlock(block_idx)) {
      // Loop heuristic: a block is analyzed once per path.
      FinishPath(state);
      return;
    }
    state.MarkVisited(block_idx);
    ++block_visits_;
    ++summary_.blocks_visited;

    bool recording = false;
    if (memo_enabled_) {
      ++summary_.engine_stats.memo_lookups;
      auto it = memo_.find(block_addr);
      if (it != memo_.end()) {
        for (const auto& entry : it->second) {
          if (ProbesMatch(*entry, state)) {
            ++summary_.engine_stats.memo_hits;
            ReplayMemo(*entry, std::move(state));
            return;
          }
        }
      }
      if (it == memo_.end() || it->second.size() < kMaxMemoPerBlock) {
        recorder_.Begin();
        state.AttachTape(&recorder_);
        recording = true;
      }
    }
    uint32_t widen_before = widen_counter_;
    uint32_t steps_in_block = 0;

    std::vector<SymRef> tmps(block->next_tmp);
    uint32_t cur_site = block_addr;

    // Pending symbolic conditional exit, if any (lifter emits at most
    // one, as the final statement before the block terminator).
    struct PendingExit {
      SymRef guard_lhs, guard_rhs;
      BinOp op;
      uint32_t target;
      uint32_t site;
      bool concrete = false;
      bool concrete_taken = false;
    };
    std::optional<PendingExit> pending_exit;

    for (const Stmt& stmt : block->stmts) {
      // Cooperative watchdog: one budget step per IR statement. On
      // exhaustion abandon the block mid-way — the caller throws the
      // whole partial summary away and degrades.
      ++steps_in_block;
      if (budget_ && budget_->ChargeStep()) {
        state.DetachTape();
        recorder_.active = false;
        return;
      }
      switch (stmt.kind) {
        case StmtKind::kIMark:
          cur_site = stmt.addr;
          break;
        case StmtKind::kWrTmp:
          tmps[stmt.tmp] = EvalExpr(stmt.expr, tmps, state, cur_site);
          break;
        case StmtKind::kPut: {
          SymRef value = EvalExpr(stmt.expr, tmps, state, cur_site);
          if (config_.record_types && stmt.reg == kFlagRhs &&
              value->kind() == SymKind::kConst) {
            // CMP rX, #imm marks rX's value as an integer.
            ObserveType(state.Reg(kFlagLhs), ValueType::kInt);
          }
          state.SetReg(stmt.reg, std::move(value));
          break;
        }
        case StmtKind::kStore: {
          SymRef addr = EvalExpr(stmt.addr_expr, tmps, state, cur_site);
          SymRef data = EvalExpr(stmt.data_expr, tmps, state, cur_site);
          if (config_.record_types) {
            auto split = SymExpr::SplitBaseOffset(addr);
            if (split.base) {
              ObserveType(split.base, ValueType::kPtr);
            }
          }
          state.StoreMem(addr, data, stmt.size);
          RecordDef(state, SymExpr::Deref(addr, stmt.size), data, cur_site);
          break;
        }
        case StmtKind::kExit: {
          // Guard is Binop(cmp, flagL, flagR); evaluate its operands so
          // the constraint names program values, not flag registers.
          SymRef lhs = EvalExpr(stmt.expr->lhs(), tmps, state, cur_site);
          SymRef rhs = EvalExpr(stmt.expr->rhs(), tmps, state, cur_site);
          PendingExit px;
          px.op = stmt.expr->binop();
          px.guard_lhs = lhs;
          px.guard_rhs = rhs;
          px.target = stmt.target;
          px.site = cur_site;
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
    ExitDecision exit;
    switch (block->jumpkind) {
      case JumpKind::kBoring: {
        uint32_t fallthrough = 0;
        bool has_fallthrough = false;
        if (block->next && block->next->kind() == ExprKind::kConst) {
          fallthrough = block->next->const_value();
          has_fallthrough =
              fallthrough >= fn_.addr && fallthrough < fn_.addr + fn_.size;
        }
        if (pending_exit) {
          const PendingExit& px = *pending_exit;
          if (px.concrete) {
            // Deterministic branch: follow only the feasible side.
            if (px.concrete_taken) {
              exit.kind = ExitDecision::kGoto;
              exit.target = px.target;
            } else if (has_fallthrough) {
              exit.kind = ExitDecision::kGoto;
              exit.target = fallthrough;
            }
          } else {
            // Symbolic: explore both directions (paper: "DTaint
            // explores both directions of each conditional branch").
            exit.kind = ExitDecision::kFork;
            exit.target = px.target;
            exit.fallthrough = fallthrough;
            exit.has_fallthrough = has_fallthrough;
            exit.op = px.op;
            exit.guard_lhs = px.guard_lhs;
            exit.guard_rhs = px.guard_rhs;
            exit.site = px.site;
          }
        } else if (has_fallthrough) {
          exit.kind = ExitDecision::kGoto;
          exit.target = fallthrough;
        }
        break;
      }
      case JumpKind::kCall: {
        const CallSite* cs = nullptr;
        for (const CallSite& c : fn_.callsites) {
          if (c.block_addr == block_addr && !c.is_indirect) cs = &c;
        }
        if (cs) HandleDirectCall(*cs, state);
        if (block->return_addr >= fn_.addr &&
            block->return_addr < fn_.addr + fn_.size) {
          exit.kind = ExitDecision::kGoto;
          exit.target = block->return_addr;
        }
        break;
      }
      case JumpKind::kIndirectCall: {
        const CallSite* cs = nullptr;
        for (const CallSite& c : fn_.callsites) {
          if (c.block_addr == block_addr && c.is_indirect) cs = &c;
        }
        if (cs) {
          CallEvent event;
          event.callsite = cs->call_addr;
          event.is_indirect = true;
          // The target expression is the evaluated `next`.
          std::vector<SymRef> dummy_tmps = tmps;
          event.indirect_target =
              EvalExpr(block->next, dummy_tmps, state, cs->call_addr);
          event.args = CollectArgs(state, kNumRegArgs + 2);
          event.constraints = state.ConstraintsSnapshot();
          event.path_id = state.path_id;
          RecordCall(std::move(event));
          state.SetReg(cc_.ret_reg, SymExpr::Ret(cs->call_addr));
        }
        if (block->return_addr >= fn_.addr &&
            block->return_addr < fn_.addr + fn_.size) {
          exit.kind = ExitDecision::kGoto;
          exit.target = block->return_addr;
        }
        break;
      }
      case JumpKind::kRet: {
        exit.kind = ExitDecision::kReturn;
        exit.ret_value = state.Reg(cc_.ret_reg);
        break;
      }
    }

    if (recording) {
      state.DetachTape();
      // A widened block bakes a draw from the global fresh-symbol
      // counter into its delta; replaying it would desequence later
      // widenings. Never memoize those.
      if (recorder_.active && widen_counter_ == widen_before) {
        auto memo = std::make_unique<BlockMemo>(std::move(recorder_.memo));
        memo->steps = steps_in_block;
        memo->exit = exit;
        memo_[block_addr].push_back(std::move(memo));
      }
      recorder_.active = false;
    }
    Dispatch(exit, std::move(state));
  }

  void Dispatch(const ExitDecision& exit, SymState state) {
    switch (exit.kind) {
      case ExitDecision::kFinish:
        FinishPath(state);
        return;
      case ExitDecision::kGoto:
        Continue(exit.target, std::move(state));
        return;
      case ExitDecision::kReturn:
        summary_.return_values.push_back(exit.ret_value);
        FinishPath(state);
        return;
      case ExitDecision::kFork: {
        ++summary_.engine_stats.state_forks;
        SymState taken = state.Fork();
        taken.path_id = next_path_id_++;
        taken.PushConstraint(
            {exit.op, exit.guard_lhs, exit.guard_rhs, true, exit.site});
        Continue(exit.target, std::move(taken));
        if (exit.has_fallthrough) {
          state.PushConstraint(
              {exit.op, exit.guard_lhs, exit.guard_rhs, false, exit.site});
          Continue(exit.fallthrough, std::move(state));
        } else {
          FinishPath(state);
        }
        return;
      }
    }
  }

  void HandleDirectCall(const CallSite& cs, SymState& state) {
    const LibModel* model =
        cs.target_is_import ? FindLibModel(cs.target_name) : nullptr;
    int arg_count = kNumRegArgs + 2;
    if (cs.target_is_import) {
      if (const LibSignature* sig = FindLibSignature(cs.target_name)) {
        arg_count = static_cast<int>(sig->params.size());
      }
    }
    CallEvent event;
    event.callsite = cs.call_addr;
    event.callee = cs.target_name;
    event.is_import = cs.target_is_import;
    event.args = CollectArgs(state, arg_count);
    event.constraints = state.ConstraintsSnapshot();
    event.path_id = state.path_id;

    if (cs.target_is_import) {
      ApplyLibCall(cs, model, cs.target_name, event.args, state);
    } else {
      // Local callee: the return value is the opaque ret_{callsite}
      // symbol; the interprocedural pass later substitutes the callee's
      // summary (Algorithm 2).
      state.SetReg(cc_.ret_reg, SymExpr::Ret(cs.call_addr));
    }
    RecordCall(std::move(event));
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
  const EngineConfig& config_;
  FunctionSummary& summary_;
  BudgetTracker* budget_;
  const CallingConvention& cc_;

  std::vector<Work> work_;
  std::shared_ptr<StateArena> arena_;
  std::unordered_map<uint32_t, int> block_index_;
  std::unordered_map<uint32_t, std::vector<std::unique_ptr<BlockMemo>>> memo_;
  MemoRecorder recorder_;
  bool memo_enabled_ = false;
  int next_path_id_ = 0;
  int block_visits_ = 0;
  uint32_t widen_counter_ = 0;
};

}  // namespace

FunctionSummary SymEngine::Analyze(const Function& fn,
                                   BudgetTracker* budget) const {
  // The IR lives exactly as long as this analysis: lifted here, freed on
  // return. The skeleton was built by the same decode, so lifting it
  // cannot fail unless the binary changed underneath; degrade then.
  auto ir = Lifter(binary_).LiftFunction(fn);
  if (!ir.ok()) return MakeDegradedSummary(fn);
  FunctionSummary summary;
  summary.name = fn.name;
  summary.addr = fn.addr;
  Exploration exploration(binary_, fn, *ir, config_, summary, budget);
  exploration.Run();
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
  SymRef ret;
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

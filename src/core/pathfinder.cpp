#include "src/core/pathfinder.h"

#include <optional>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>

#include "src/cfg/loops.h"
#include "src/core/alias_ondemand.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace dtaint {

bool DefCoversUse(SymRef def_loc, SymRef use_expr) {
  if (!def_loc || !use_expr) return false;
  if (def_loc->kind() != SymKind::kDeref ||
      use_expr->kind() != SymKind::kDeref) {
    return false;
  }
  if (SymExpr::Equal(def_loc, use_expr)) return true;
  auto def_split = SymExpr::SplitBaseOffset(def_loc->lhs());
  auto use_split = SymExpr::SplitBaseOffset(use_expr->lhs());
  const SymRef def_base = def_split.base ? def_split.base : def_loc->lhs();
  const SymRef use_base = use_split.base ? use_split.base : use_expr->lhs();
  if (!SymExpr::Equal(def_base, use_base)) return false;
  // Same base: exact field match (sizes may differ: a byte view of a
  // word field still reads the defined bytes).
  return def_split.offset == use_split.offset;
}

namespace {

/// True when the def defines an entire buffer region that the use reads
/// a part of: def = deref(B) holding taint, use = deref(B + k). Source
/// models write whole buffers this way (recv taints deref(buf)).
bool RegionDefCoversUse(SymRef def_loc, SymRef def_val, SymRef use_expr) {
  if (!def_loc || !def_val || !use_expr) return false;
  if (!def_val->IsTainted()) return false;
  if (def_loc->kind() != SymKind::kDeref ||
      use_expr->kind() != SymKind::kDeref) {
    return false;
  }
  auto def_split = SymExpr::SplitBaseOffset(def_loc->lhs());
  auto use_split = SymExpr::SplitBaseOffset(use_expr->lhs());
  SymRef def_base = def_split.base ? def_split.base : def_loc->lhs();
  SymRef use_base = use_split.base ? use_split.base : use_expr->lhs();
  // Array walks read buf+i: strip the symbolic index so the region
  // base compares against the whole-buffer definition deref(buf).
  def_base = StripIndex(def_base);
  use_base = StripIndex(use_base);
  return SymExpr::Equal(def_base, use_base);
}

/// Open-addressed set of (function id, expression hash) pairs marking
/// walk nodes already explored for one trace start. One table serves a
/// whole FindAll run: Clear() starts a new generation, and a slot
/// stamped with an older generation reads as empty, so clearing costs
/// nothing however large an earlier trace grew the table.
class VisitedSet {
 public:
  VisitedSet() : slots_(kInitialCap) {}

  void Clear() {
    ++generation_;
    size_ = 0;
  }

  /// True when (fn_id, expr_hash) was not yet present (and is now).
  bool Insert(uint64_t fn_id, uint64_t expr_hash) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) Grow();
    size_t mask = slots_.size() - 1;
    size_t i = Mix(fn_id, expr_hash) & mask;
    while (slots_[i].generation == generation_) {
      if (slots_[i].fn_id == fn_id && slots_[i].expr_hash == expr_hash) {
        return false;
      }
      i = (i + 1) & mask;
    }
    slots_[i] = {fn_id, expr_hash, generation_};
    ++size_;
    return true;
  }

 private:
  struct Slot {
    uint64_t fn_id = 0;
    uint64_t expr_hash = 0;
    uint64_t generation = 0;  // live only when equal to generation_
  };
  static constexpr size_t kInitialCap = 64;  // power of two

  static size_t Mix(uint64_t a, uint64_t b) {
    uint64_t h = a * 0x9e3779b97f4a7c15ull ^ b;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.generation != generation_) continue;
      size_t i = Mix(slot.fn_id, slot.expr_hash) & mask;
      while (slots_[i].generation == generation_) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  uint64_t generation_ = 1;  // zeroed slots are generation 0: empty
  size_t size_ = 0;
};

/// The sink a trace starts from: what Emit copies into every path the
/// trace records. Views point into the summaries, which outlive FindAll.
struct SinkSeed {
  std::string_view function;
  uint32_t site = 0;
  std::string_view name;
  VulnClass vuln_class = VulnClass::kBufferOverflow;
  SymRef arg = nullptr;
  SymRef store_addr = nullptr;
  bool degraded = false;
};

class Backtracker {
 public:
  /// One summarized function: its name (a view of the summary map's
  /// key), its summary, and the call events that call it.
  struct FnNode {
    std::string_view name;
    const FunctionSummary* summary = nullptr;
    uint64_t id = 0;  // dense: the visited set keys on it
    std::vector<std::pair<const FnNode*, const CallEvent*>> callers;
  };

  /// One hop on the walk stack. Its note is rendered only when the walk
  /// records a path, so the steps that lead nowhere format nothing.
  struct Hop {
    enum class Kind { kSink, kLoopSink, kDef, kCall };
    Kind kind;
    const FnNode* fn;  // function the hop is in
    uint32_t site;
    SymRef a;  // sink argument, loop store location, defined location,
               // or the callee's formal argument
    SymRef b = nullptr;      // defined value, or the caller's actual
    std::string_view label;  // sink callee, or the called function
  };

  Backtracker(const Program& program, const ProgramAnalysis& analysis,
              const PathFinderConfig& config, std::vector<TaintPath>& out,
              PathFinderStats& stats)
      : analysis_(analysis), config_(config), out_(out), stats_(stats) {
    nodes_.reserve(analysis_.summaries.size());
    for (const auto& [name, summary] : analysis_.summaries) {
      nodes_.emplace(name, FnNode{name, &summary, nodes_.size(), {}});
    }
    // Reverse call-event index: each callee's node lists (caller node,
    // event). Events into functions with no summary are dropped: the
    // walk never enters such a function.
    auto add_caller = [this](std::string_view callee, const FnNode* caller,
                             const CallEvent* event) {
      auto it = nodes_.find(callee);
      if (it != nodes_.end()) it->second.callers.push_back({caller, event});
    };
    for (const auto& [name, summary] : analysis_.summaries) {
      const FnNode* caller = &nodes_.find(name)->second;
      const Function* fn = nullptr;
      bool fn_looked_up = false;
      for (const CallEvent& event : summary.calls) {
        if (event.is_import) continue;
        if (event.is_indirect) {
          if (!fn_looked_up) {
            fn = program.FindFunction(name);
            fn_looked_up = true;
          }
          if (!fn) continue;
          const CallSite* cs = fn->CallSiteAt(event.callsite);
          if (!cs) continue;
          for (const std::string& target : cs->resolved_targets) {
            add_caller(target, caller, &event);
          }
        } else if (!event.callee.empty()) {
          add_caller(event.callee, caller, &event);
        }
      }
    }
  }

  /// The node of a summarized function.
  const FnNode& Node(std::string_view fn) const { return nodes_.at(fn); }

  /// Launches a trace for one sink occurrence from each start
  /// expression in turn; `sink_hop` is the trace's first hop and
  /// `sink_constraints` the constraints active at the sink.
  void TraceSink(const FnNode& fn, const SinkSeed& sink, const Hop& sink_hop,
                 ConstraintList sink_constraints,
                 std::span<const SymRef> start_exprs) {
    ++stats_.sinks_visited;
    paths_found_for_sink_ = 0;
    sink_ = &sink;
    lists_.assign(1, sink_constraints);
    hops_.assign(1, sink_hop);
    for (SymRef expr : start_exprs) {
      if (paths_found_for_sink_ >= config_.max_paths_per_sink) break;
      visited_.Clear();
      Walk(fn, expr, config_.max_depth);
    }
  }

 private:
  static std::string HopNote(const Hop& hop) {
    switch (hop.kind) {
      case Hop::Kind::kSink:
        return "sink " + std::string(hop.label) + "(" + hop.a->ToString() +
               ")";
      case Hop::Kind::kLoopSink:
        return "loop copy " + hop.a->ToString();
      case Hop::Kind::kDef:
        return hop.a->ToString() + " = " + hop.b->ToString();
      case Hop::Kind::kCall:
        return "via call to " + std::string(hop.label) + " (" +
               hop.a->ToString() + " = " + hop.b->ToString() + ")";
    }
    return {};
  }

  /// Records the walk on the stacks as a path, unless its (sink,
  /// source) was recorded already. Only a recorded path gets its hop
  /// notes rendered and its constraints materialized: the sink's, then
  /// each crossed callsite's.
  void Emit(uint32_t taint_site, const std::string& taint_source) {
    auto key = std::make_tuple(sink_->site, taint_site,
                               std::string(sink_->name));
    if (!emitted_.insert(std::move(key)).second) return;
    TaintPath path;
    path.sink_function = sink_->function;
    path.sink_site = sink_->site;
    path.sink_name = sink_->name;
    path.vuln_class = sink_->vuln_class;
    path.sink_arg = sink_->arg;
    path.sink_store_addr = sink_->store_addr;
    path.source_name = taint_source;
    path.source_site = taint_site;
    path.hops.reserve(hops_.size());
    for (const Hop& hop : hops_) {
      path.hops.push_back({std::string(hop.fn->name), hop.site, HopNote(hop)});
    }
    path.traced_exprs = traced_;
    for (ConstraintList list : lists_) list.AppendTo(path.constraints);
    path.crossed_degraded = sink_->degraded || degraded_hops_ > 0;
    if (path.crossed_degraded) ++stats_.degraded_paths;
    out_.push_back(std::move(path));
    ++paths_found_for_sink_;
    ++stats_.paths_found;
  }

  void Walk(const FnNode& fn, SymRef expr, int depth) {
    if (!expr) return;
    if (depth <= 0) {
      ++stats_.pruned_by_depth;
      return;
    }
    if (paths_found_for_sink_ >= config_.max_paths_per_sink) return;
    if (!visited_.Insert(fn.id, expr->hash())) return;
    ++stats_.paths_explored;
    traced_.push_back(expr);

    // Found attacker data?
    if (auto taint = expr->FindTaint()) {
      Emit(taint->first, taint->second);
      traced_.pop_back();
      return;
    }

    // (a) Backward through definition pairs: any deref component of
    // the expression may have been defined elsewhere in the function
    // (or by a linked callee summary). Alias-renamed twins are not
    // materialized in the summary; the oracle supplies them here, at
    // the taint-transfer site — computed over the *linked* pairs, so
    // cross-call aliases participate. An expression with no deref part
    // matches no pair, so it asks the oracle nothing. The parts sit on
    // one shared stack; deeper steps push above this step's range and
    // pop back to it.
    const size_t parts_begin = parts_.size();
    SymExpr::CollectDerefs(expr, &parts_);
    const size_t parts_end = parts_.size();
    bool stop = false;
    if (parts_end > parts_begin) {
      const std::vector<DefPair>* twins = nullptr;
      if (analysis_.alias_oracle) {
        const std::vector<DefPair>& t =
            analysis_.alias_oracle->TwinsFor(*fn.summary);
        if (!t.empty()) twins = &t;
      }
      for (size_t i = parts_begin; i < parts_end && !stop; ++i) {
        SymRef part = parts_[i];
        stop = MatchDefs(fn.summary->def_pairs, fn, expr, part, depth);
        if (!stop && twins) stop = MatchDefs(*twins, fn, expr, part, depth);
      }
    }
    parts_.resize(parts_begin);
    if (stop) {
      traced_.pop_back();
      return;
    }

    // (b) Into callers: a value rooted at a formal argument flows from
    // every callsite's actual argument.
    SymRef root = RootPointerOf(expr);
    if (root && root->kind() == SymKind::kArg) {
      int idx = root->arg_index();
      for (const auto& [caller, event] : fn.callers) {
        if (idx < 0 || idx >= static_cast<int>(event->args.size()) ||
            !event->args[idx]) {
          continue;
        }
        SymRef lifted = SymExpr::Replace(expr, root, event->args[idx]);
        hops_.push_back({Hop::Kind::kCall, caller, event->callsite, root,
                         event->args[idx], fn.name});
        lists_.push_back(event->constraints);
        Walk(*caller, lifted, depth - 1);
        lists_.pop_back();
        hops_.pop_back();
        if (paths_found_for_sink_ >= config_.max_paths_per_sink) break;
      }
    }
    traced_.pop_back();
  }

  /// Matches one deref `part` of `expr` against a span of definition
  /// pairs (the summary's own, or the on-demand alias twins). Returns
  /// true when the per-sink path cap was hit and the walk should stop.
  bool MatchDefs(const std::vector<DefPair>& pairs, const FnNode& fn,
                 SymRef expr, SymRef part, int depth) {
    for (const DefPair& dp : pairs) {
      if (!dp.u || SymExpr::Equal(dp.u, expr)) continue;
      bool covers = DefCoversUse(dp.d, part);
      bool region = !covers && RegionDefCoversUse(dp.d, dp.u, part);
      if (!covers && !region) continue;
      hops_.push_back({Hop::Kind::kDef, &fn, dp.site, dp.d, dp.u, {}});
      // The defined value replaces the matched deref inside the
      // expression; for region matches the taint covers the part.
      SymRef next = region ? dp.u : SymExpr::Replace(expr, part, dp.u);
      if (dp.degraded) ++degraded_hops_;
      Walk(fn, next, depth - 1);
      if (dp.degraded) --degraded_hops_;
      hops_.pop_back();
      if (paths_found_for_sink_ >= config_.max_paths_per_sink) return true;
    }
    return false;
  }

  const ProgramAnalysis& analysis_;
  const PathFinderConfig& config_;
  std::vector<TaintPath>& out_;
  PathFinderStats& stats_;
  std::unordered_map<std::string_view, FnNode> nodes_;
  std::set<std::tuple<uint32_t, uint32_t, std::string>> emitted_;
  VisitedSet visited_;
  /// The current trace: its sink, the hops and expressions of the walk
  /// stack, the sink's constraint list then one per caller hop, and the
  /// deref parts of every step on the stack.
  const SinkSeed* sink_ = nullptr;
  std::vector<Hop> hops_;
  std::vector<SymRef> traced_;
  std::vector<ConstraintList> lists_;
  std::vector<SymRef> parts_;
  int paths_found_for_sink_ = 0;
  /// Degraded def pairs currently on the walk stack; any emit while
  /// nonzero marks the path crossed_degraded.
  int degraded_hops_ = 0;
};

}  // namespace

size_t PathFinder::SinkCount() const {
  size_t count = 0;
  for (const auto& [_, summary] : analysis_.summaries) {
    std::set<uint32_t> seen;
    for (const CallEvent& event : summary.calls) {
      if (!event.is_import) continue;
      const LibFunction* lib = FindLibFunction(event.callee);
      if (lib && lib->IsSink() && seen.insert(event.callsite).second) {
        ++count;
      }
    }
  }
  return count;
}

std::vector<TaintPath> PathFinder::FindAll() const {
  std::vector<TaintPath> paths;
  stats_ = PathFinderStats{};
  Backtracker backtracker(program_, analysis_, config_, paths, stats_);
  using Hop = Backtracker::Hop;
  size_t loop_functions = 0;

  for (const auto& [fn_name, summary] : analysis_.summaries) {
    const Backtracker::FnNode& node = backtracker.Node(fn_name);
    // Library-call sinks.
    std::set<uint32_t> seen_sites;
    for (const CallEvent& event : summary.calls) {
      if (!event.is_import) continue;
      const LibFunction* lib = FindLibFunction(event.callee);
      if (!lib || !lib->IsSink()) continue;
      if (!seen_sites.insert(event.callsite).second) continue;
      if (lib->sink_param >= static_cast<int>(event.args.size())) {
        continue;
      }
      SymRef arg = event.args[lib->sink_param];
      if (!arg) continue;

      SinkSeed sink{fn_name, event.callsite, event.callee, lib->vuln_class,
                    arg};
      // Trace the argument value itself (tainted lengths / pointers to
      // attacker buffers) and its pointee (tainted string contents).
      SymRef starts[2] = {arg, nullptr};
      size_t start_count = 1;
      if (arg->kind() != SymKind::kConst) {
        starts[start_count++] = SymExpr::Deref(arg);
      }
      backtracker.TraceSink(
          node, sink,
          {Hop::Kind::kSink, &node, event.callsite, arg, nullptr,
           event.callee},
          event.constraints, std::span(starts, start_count));
    }

    // Loop-copy sinks: stores inside a natural loop whose address has
    // a non-constant (per-iteration) component. Loops are computed
    // only for a function that has such a store.
    const Function* fn = nullptr;
    std::optional<LoopInfo> loops;
    std::set<uint32_t> emitted_sites;
    for (const DefPair& dp : summary.def_pairs) {
      if (!dp.d || dp.d->kind() != SymKind::kDeref) continue;
      // Address must vary per iteration: base+offset split leaves a
      // symbolic, non-argument residue (e.g. deref(buf + idx)).
      auto split = SymExpr::SplitBaseOffset(dp.d->lhs());
      if (!split.base || split.base->kind() != SymKind::kBin) continue;
      if (!loops) {
        fn = program_.FindFunction(fn_name);
        if (!fn) break;
        ++loop_functions;
        loops = FindLoops(*fn);
      }
      if (loops->loops.empty()) break;
      const BlockInfo* block = fn->BlockContaining(dp.site);
      if (!block || !loops->InAnyLoop(block->addr)) continue;
      if (!emitted_sites.insert(dp.site).second) continue;

      SinkSeed sink{fn_name,       dp.site,       "loop",
                    VulnClass::kBufferOverflow, dp.u, dp.d->lhs(),
                    dp.degraded};
      backtracker.TraceSink(
          node, sink, {Hop::Kind::kLoopSink, &node, dp.site, dp.d, nullptr, {}},
          dp.constraints, std::span(&dp.u, 1));
    }
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.counter("pathfind.sinks_visited").Add(stats_.sinks_visited);
  registry.counter("pathfind.paths_explored").Add(stats_.paths_explored);
  registry.counter("pathfind.pruned_by_depth").Add(stats_.pruned_by_depth);
  registry.counter("pathfind.paths_found").Add(stats_.paths_found);
  registry.counter("pathfind.loop_functions").Add(loop_functions);
  DTAINT_LOG(obs::LogLevel::kDebug, "pathfind",
             "%zu sinks visited, %zu steps, %zu depth-pruned, %zu paths",
             stats_.sinks_visited, stats_.paths_explored,
             stats_.pruned_by_depth, stats_.paths_found);
  return paths;
}

}  // namespace dtaint

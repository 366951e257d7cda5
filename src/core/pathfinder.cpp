#include "src/core/pathfinder.h"

#include <set>
#include <unordered_map>

#include "src/cfg/loops.h"
#include "src/core/alias_ondemand.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/util/arena.h"
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
/// walk nodes already explored for one trace start. Tables live in the
/// backtracker's bump arena — a FindAll run performs thousands of short
/// traces, and the former std::set cost a node allocation (plus a
/// function-name string copy) per visited node; here an insert is a
/// probe into a flat table and abandoned tables are reclaimed wholesale
/// when the backtracker is destroyed.
class VisitedSet {
 public:
  explicit VisitedSet(BumpArena& arena) : arena_(arena) {
    slots_ = arena_.NewArray<Slot>(kInitialCap);
    cap_ = kInitialCap;
  }

  /// True when (fn_id, expr_hash) was not yet present (and is now).
  bool Insert(uint64_t fn_id, uint64_t expr_hash) {
    if ((size_ + 1) * 4 >= cap_ * 3) Grow();
    // fn_id is offset by 1 on storage so a zeroed slot means empty.
    uint64_t key1 = fn_id + 1;
    size_t mask = cap_ - 1;
    size_t i = Mix(key1, expr_hash) & mask;
    while (slots_[i].key1 != 0) {
      if (slots_[i].key1 == key1 && slots_[i].key2 == expr_hash) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = {key1, expr_hash};
    ++size_;
    return true;
  }

 private:
  struct Slot {
    uint64_t key1 = 0;  // fn_id + 1; 0 = empty
    uint64_t key2 = 0;  // expression hash
  };
  static constexpr size_t kInitialCap = 64;  // power of two

  static size_t Mix(uint64_t a, uint64_t b) {
    uint64_t h = a * 0x9e3779b97f4a7c15ull ^ b;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }

  void Grow() {
    Slot* old = slots_;
    size_t old_cap = cap_;
    cap_ *= 2;
    slots_ = arena_.NewArray<Slot>(cap_);
    size_t mask = cap_ - 1;
    for (size_t j = 0; j < old_cap; ++j) {
      if (old[j].key1 == 0) continue;
      size_t i = Mix(old[j].key1, old[j].key2) & mask;
      while (slots_[i].key1 != 0) i = (i + 1) & mask;
      slots_[i] = old[j];
    }
    // `old` stays in the arena until the backtracker dies — deliberate.
  }

  BumpArena& arena_;
  Slot* slots_ = nullptr;
  size_t cap_ = 0;
  size_t size_ = 0;
};

class Backtracker {
 public:
  Backtracker(const Program& program, const ProgramAnalysis& analysis,
         const PathFinderConfig& config, std::vector<TaintPath>& out,
         PathFinderStats& stats)
      : program_(program), analysis_(analysis), config_(config), out_(out),
        stats_(stats) {
    // Reverse call-event index: callee name -> (caller, event).
    for (const auto& [caller, summary] : analysis_.summaries) {
      const Function* fn = program_.FindFunction(caller);
      for (const CallEvent& event : summary.calls) {
        if (event.is_import) continue;
        if (event.is_indirect) {
          if (!fn) continue;
          const CallSite* cs = fn->CallSiteAt(event.callsite);
          if (!cs) continue;
          for (const std::string& target : cs->resolved_targets) {
            callers_of_[target].push_back({caller, &event});
          }
        } else if (!event.callee.empty()) {
          callers_of_[event.callee].push_back({caller, &event});
        }
      }
    }
  }

  /// Launches a trace for one sink occurrence; `sink_constraints` are
  /// the constraints active at the sink.
  void TraceSink(const std::string& fn, const TaintPath& seed,
                 ConstraintList sink_constraints,
                 const std::vector<SymRef>& start_exprs) {
    ++stats_.sinks_visited;
    paths_found_for_sink_ = 0;
    lists_.assign(1, sink_constraints);
    for (SymRef expr : start_exprs) {
      if (paths_found_for_sink_ >= config_.max_paths_per_sink) break;
      TaintPath path = seed;
      VisitedSet visited(arena_);
      Walk(FnId(fn), fn, expr, path, visited, config_.max_depth);
    }
  }

 private:
  /// Dense id for a function name — the visited set compares ids, not
  /// strings, so its slots are two machine words.
  uint64_t FnId(const std::string& fn) {
    auto [it, added] = fn_ids_.emplace(fn, fn_ids_.size());
    return it->second;
  }

  /// Records the walk so far as a path, unless its (sink, source) was
  /// recorded already. Only a recorded path gets its constraints
  /// materialized: the sink's, then each crossed callsite's.
  void Emit(const TaintPath& walk, uint32_t taint_site,
            const std::string& taint_source) {
    auto key = std::make_tuple(walk.sink_site, taint_site, walk.sink_name);
    if (!emitted_.insert(key).second) return;
    TaintPath path = walk;
    path.source_name = taint_source;
    path.source_site = taint_site;
    if (degraded_hops_ > 0) path.crossed_degraded = true;
    for (ConstraintList list : lists_) list.AppendTo(path.constraints);
    if (path.crossed_degraded) ++stats_.degraded_paths;
    out_.push_back(std::move(path));
    ++paths_found_for_sink_;
    ++stats_.paths_found;
  }

  void Walk(uint64_t fn_id, const std::string& fn, SymRef expr,
            TaintPath& path, VisitedSet& visited, int depth) {
    if (!expr) return;
    if (depth <= 0) {
      ++stats_.pruned_by_depth;
      return;
    }
    if (paths_found_for_sink_ >= config_.max_paths_per_sink) return;
    if (!visited.Insert(fn_id, expr->hash())) return;
    ++stats_.paths_explored;
    path.traced_exprs.push_back(expr);

    // Found attacker data?
    if (auto taint = expr->FindTaint()) {
      Emit(path, taint->first, taint->second);
      path.traced_exprs.pop_back();
      return;
    }

    auto summary_it = analysis_.summaries.find(fn);
    if (summary_it == analysis_.summaries.end()) {
      path.traced_exprs.pop_back();
      return;
    }
    const FunctionSummary& summary = summary_it->second;

    // (a) Backward through definition pairs: any deref component of
    // the expression may have been defined elsewhere in the function
    // (or by a linked callee summary). Alias-renamed twins are not
    // materialized in the summary; the oracle supplies them here, at
    // the taint-transfer site — computed over the *linked* pairs, so
    // cross-call aliases participate.
    std::vector<SymRef> deref_parts;
    SymExpr::CollectDerefs(expr, &deref_parts);
    const std::vector<DefPair>* twins = nullptr;
    if (analysis_.alias_oracle) {
      const std::vector<DefPair>& t = analysis_.alias_oracle->TwinsFor(summary);
      if (!t.empty()) twins = &t;
    }
    for (SymRef part : deref_parts) {
      bool stop = MatchDefs(summary.def_pairs, fn_id, fn, expr, part, path,
                            visited, depth);
      if (!stop && twins) {
        stop = MatchDefs(*twins, fn_id, fn, expr, part, path, visited, depth);
      }
      if (stop) {
        path.traced_exprs.pop_back();
        return;
      }
    }

    // (b) Into callers: a value rooted at a formal argument flows from
    // every callsite's actual argument.
    SymRef root = RootPointerOf(expr);
    if (root && root->kind() == SymKind::kArg) {
      auto callers_it = callers_of_.find(fn);
      if (callers_it != callers_of_.end()) {
        for (const auto& [caller, event] : callers_it->second) {
          int idx = root->arg_index();
          if (idx < 0 || idx >= static_cast<int>(event->args.size()) ||
              !event->args[idx]) {
            continue;
          }
          SymRef lifted =
              SymExpr::Replace(expr, root, event->args[idx]);
          path.hops.push_back(
              {caller, event->callsite,
               "via call to " + fn + " (" + root->ToString() + " = " +
                   event->args[idx]->ToString() + ")"});
          lists_.push_back(event->constraints);
          Walk(FnId(caller), caller, lifted, path, visited, depth - 1);
          lists_.pop_back();
          path.hops.pop_back();
          if (paths_found_for_sink_ >= config_.max_paths_per_sink) {
            path.traced_exprs.pop_back();
            return;
          }
        }
      }
    }
    path.traced_exprs.pop_back();
  }

  /// Matches one deref `part` of `expr` against a span of definition
  /// pairs (the summary's own, or the on-demand alias twins). Returns
  /// true when the per-sink path cap was hit and the walk should stop.
  bool MatchDefs(const std::vector<DefPair>& pairs, uint64_t fn_id,
                 const std::string& fn, SymRef expr, SymRef part,
                 TaintPath& path, VisitedSet& visited, int depth) {
    for (const DefPair& dp : pairs) {
      if (!dp.u || SymExpr::Equal(dp.u, expr)) continue;
      bool covers = DefCoversUse(dp.d, part);
      bool region = !covers && RegionDefCoversUse(dp.d, dp.u, part);
      if (!covers && !region) continue;
      path.hops.push_back(
          {fn, dp.site, dp.d->ToString() + " = " + dp.u->ToString()});
      // The defined value replaces the matched deref inside the
      // expression; for region matches the taint covers the part.
      SymRef next = region ? dp.u : SymExpr::Replace(expr, part, dp.u);
      if (dp.degraded) ++degraded_hops_;
      Walk(fn_id, fn, next, path, visited, depth - 1);
      if (dp.degraded) --degraded_hops_;
      path.hops.pop_back();
      if (paths_found_for_sink_ >= config_.max_paths_per_sink) return true;
    }
    return false;
  }

  const Program& program_;
  const ProgramAnalysis& analysis_;
  const PathFinderConfig& config_;
  std::vector<TaintPath>& out_;
  std::map<std::string, std::vector<std::pair<std::string, const CallEvent*>>>
      callers_of_;
  std::set<std::tuple<uint32_t, uint32_t, std::string>> emitted_;
  PathFinderStats& stats_;
  /// Backs every VisitedSet table for the lifetime of one FindAll run.
  BumpArena arena_;
  std::unordered_map<std::string, uint64_t> fn_ids_;
  /// The sink's constraint list, then one per caller hop on the walk
  /// stack.
  std::vector<ConstraintList> lists_;
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

  for (const auto& [fn_name, summary] : analysis_.summaries) {
    // Library-call sinks.
    std::set<uint32_t> seen_sites;
    for (const CallEvent& event : summary.calls) {
      if (!event.is_import) continue;
      const LibFunction* sink = FindLibFunction(event.callee);
      if (!sink || !sink->IsSink()) continue;
      if (!seen_sites.insert(event.callsite).second) continue;
      if (sink->sink_param >= static_cast<int>(event.args.size())) {
        continue;
      }
      SymRef arg = event.args[sink->sink_param];
      if (!arg) continue;

      TaintPath seed;
      seed.sink_function = fn_name;
      seed.sink_site = event.callsite;
      seed.sink_name = event.callee;
      seed.vuln_class = sink->vuln_class;
      seed.sink_arg = arg;
      seed.hops.push_back({fn_name, event.callsite,
                           "sink " + event.callee + "(" + arg->ToString() +
                               ")"});
      // Trace the argument value itself (tainted lengths / pointers to
      // attacker buffers) and its pointee (tainted string contents).
      std::vector<SymRef> starts{arg};
      if (arg->kind() != SymKind::kConst) {
        starts.push_back(SymExpr::Deref(arg));
      }
      backtracker.TraceSink(fn_name, seed, event.constraints, starts);
    }

    // Loop-copy sinks: stores inside a natural loop whose address has
    // a non-constant (per-iteration) component.
    const Function* fn = program_.FindFunction(fn_name);
    if (!fn) continue;
    LoopInfo loops = FindLoops(*fn);
    if (loops.loops.empty()) continue;
    // Map def sites to blocks to test loop membership.
    std::set<uint32_t> emitted_sites;
    for (const DefPair& dp : summary.def_pairs) {
      if (!dp.d || dp.d->kind() != SymKind::kDeref) continue;
      // Address must vary per iteration: base+offset split leaves a
      // symbolic, non-argument residue (e.g. deref(buf + idx)).
      auto split = SymExpr::SplitBaseOffset(dp.d->lhs());
      if (!split.base || split.base->kind() != SymKind::kBin) continue;
      // Locate the block containing this site.
      uint32_t block_addr = 0;
      for (const auto& [addr, block] : fn->blocks) {
        if (dp.site >= addr && dp.site < addr + block.size) {
          block_addr = addr;
          break;
        }
      }
      if (!block_addr || !loops.InAnyLoop(block_addr)) continue;
      if (!emitted_sites.insert(dp.site).second) continue;

      TaintPath seed;
      seed.sink_function = fn_name;
      seed.sink_site = dp.site;
      seed.sink_name = "loop";
      seed.vuln_class = VulnClass::kBufferOverflow;
      seed.sink_arg = dp.u;
      seed.sink_store_addr = dp.d->lhs();
      seed.crossed_degraded = dp.degraded;
      seed.hops.push_back(
          {fn_name, dp.site, "loop copy " + dp.d->ToString()});
      backtracker.TraceSink(fn_name, seed, dp.constraints, {dp.u});
    }
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.counter("pathfind.sinks_visited").Add(stats_.sinks_visited);
  registry.counter("pathfind.paths_explored").Add(stats_.paths_explored);
  registry.counter("pathfind.pruned_by_depth").Add(stats_.pruned_by_depth);
  registry.counter("pathfind.paths_found").Add(stats_.paths_found);
  DTAINT_LOG(obs::LogLevel::kDebug, "pathfind",
             "%zu sinks visited, %zu steps, %zu depth-pruned, %zu paths",
             stats_.sinks_visited, stats_.paths_explored,
             stats_.pruned_by_depth, stats_.paths_found);
  return paths;
}

}  // namespace dtaint

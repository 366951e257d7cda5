#include "src/core/interproc.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <thread>
#include <unordered_map>

#include "src/cache/summary_cache.h"
#include "src/core/alias_ondemand.h"
#include "src/resilience/fault.h"
#include "src/symexec/intern.h"
#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/stopwatch.h"
#include "src/util/hash.h"

namespace dtaint {

namespace {

/// Replaces every formal-argument symbol arg_i occurring in `expr`
/// with the i-th actual argument of the callsite (Algorithm 2's
/// ReplaceFormalArgs). Unmapped formals stay as-is.
SymRef ReplaceFormalArgs(SymRef expr, const std::vector<SymRef>& actual_args) {
  // O(1) bail-out for the common case: nothing argument-rooted inside.
  if (!expr->ContainsKind(SymKind::kArg)) return expr;
  SymRef result = expr;
  for (int i = 0; i < kMaxModeledArgs; ++i) {
    SymRef formal = SymExpr::Arg(i);
    if (!result->Contains(formal)) continue;
    if (i < static_cast<int>(actual_args.size()) && actual_args[i]) {
      result = SymExpr::Replace(result, formal, actual_args[i]);
    }
  }
  return result;
}

/// Re-keys Heap identities with the callsite: the callee's heap object
/// hash is extended by the caller's callsite address, so two calls to
/// the same allocating callee produce distinct objects (Listing 1's
/// "hash value of the callsite chain").
SymRef RehashHeap(SymRef expr, uint32_t callsite) {
  // The kind bitmask proves heap-freeness without walking the tree.
  if (!expr->ContainsKind(SymKind::kHeap)) return expr;
  if (expr->kind() == SymKind::kHeap) {
    return SymExpr::Heap(HashCombine(expr->heap_id(), callsite));
  }
  if (!expr->lhs() && !expr->rhs()) return expr;
  SymRef lhs = expr->lhs() ? RehashHeap(expr->lhs(), callsite) : nullptr;
  SymRef rhs = expr->rhs() ? RehashHeap(expr->rhs(), callsite) : nullptr;
  if (lhs == expr->lhs() && rhs == expr->rhs()) {
    return expr;
  }
  if (expr->kind() == SymKind::kDeref) {
    return SymExpr::Deref(lhs, expr->deref_size());
  }
  if (expr->kind() == SymKind::kBin) {
    return SymExpr::Bin(expr->binop(), lhs, rhs);
  }
  return expr;
}

/// Picks the callee's representative return value: prefer a value that
/// carries structure (argument passthrough, heap pointer, tainted
/// expression) over opaque unknowns.
SymRef RepresentativeReturn(const FunctionSummary& callee) {
  SymRef best = nullptr;
  for (SymRef ret : callee.return_values) {
    if (!ret) continue;
    if (!best) best = ret;
    switch (RootPointerOf(ret)->kind()) {
      case SymKind::kArg:
      case SymKind::kHeap:
      case SymKind::kTaint:
      case SymKind::kRet:
        return ret;
      default:
        break;
    }
    if (ret->IsTainted()) return ret;
  }
  return best;
}

/// A summary Link has finished, as its callers consume it.
struct LinkedCallee {
  const FunctionSummary* summary;
  std::vector<const DefPair*> escaping_defs;  // summary->EscapingDefs()
};

/// Where ret_{cs} symbols occur in the caller being linked: the
/// ascending indices of its def pairs and of its return values that
/// mention ret_{cs}. A superset of the items that still do once a
/// rewrite has replaced the symbol.
struct RetUses {
  std::vector<size_t> def_pairs;
  std::vector<size_t> return_values;
};
using RetIndex = std::unordered_map<uint32_t, RetUses>;

/// Calls `visit(cs)` for every ret_{cs} leaf of `expr`, entering only
/// subtrees whose kind bitmask holds a ret.
template <typename Visit>
void ForEachRetSite(SymRef expr, Visit&& visit) {
  if (!expr || !expr->ContainsKind(SymKind::kRet)) return;
  if (expr->kind() == SymKind::kRet) {
    visit(expr->ret_site());
    return;
  }
  ForEachRetSite(expr->lhs(), visit);
  ForEachRetSite(expr->rhs(), visit);
}

/// Adds `k` to the ascending, duplicate-free `list`.
void InsertSorted(std::vector<size_t>& list, size_t k) {
  auto it = std::lower_bound(list.begin(), list.end(), k);
  if (it == list.end() || *it != k) list.insert(it, k);
}

/// Lists def pair `k` under every ret_{cs} its d or u mentions.
void IndexDefPair(const DefPair& dp, size_t k, RetIndex& index) {
  auto add = [&](uint32_t cs) { InsertSorted(index[cs].def_pairs, k); };
  ForEachRetSite(dp.d, add);
  ForEachRetSite(dp.u, add);
}

/// Lists return value `k` under every ret_{cs} it mentions.
void IndexReturnValue(SymRef rv, size_t k, RetIndex& index) {
  ForEachRetSite(rv, [&](uint32_t cs) {
    InsertSorted(index[cs].return_values, k);
  });
}

}  // namespace

SummarySet Summarize(const Program& program, const CallGraph& graph,
                     const SymEngine& engine, const InterprocConfig& config) {
  SummarySet result;
  InterprocStats& stats = result.stats;
  const std::vector<std::string> order = graph.BottomUpOrder();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::EventStream& events = obs::EventStream::Global();
  // Live progress gauge the heartbeat thread reads: bumped on EVERY
  // analyze_one entry — cache hit or miss — so the rate tracks work
  // retired, and so event-off and event-on runs stay byte-identical
  // (the differential oracles compare cold vs warm reports).
  obs::Counter& fns_done = registry.counter("summary.functions_done");
  // Fork, CoW-state, tainted-path and pruned-statement counts, folded
  // out of each summary's ExplorationStats here (the symexec layer
  // stays obs-free). Cache-served summaries carry zeros, so the
  // counters reflect work actually performed this run.
  obs::Counter& m_state_forks = registry.counter("engine.state_forks");
  obs::Counter& m_cow_copies = registry.counter("engine.cow_copies");
  obs::Counter& m_overlay_spills = registry.counter("engine.overlay_spills");
  obs::Counter& m_tainted_paths = registry.counter("engine.tainted_paths");
  obs::Counter& m_stmts_pruned = registry.counter("engine.stmts_pruned");

  // Intraprocedural static symbolic analysis — exactly once per
  // function (and, with a summary cache configured, once per function
  // *content* across runs). The analyses are independent of each
  // other, so with num_threads > 1 they run on a worker pool; results
  // land in a pre-sized slot vector so no synchronization beyond the
  // work-index counter (and the cache's internal lock) is needed. Only
  // a function the engine executes (a cache miss, or no cache) has its
  // IR lifted, and only for the duration of its analysis.
  std::vector<FunctionSummary> base(order.size());
  // Per-function cost accounting for the hot-function profile and the
  // "summary.function_micros" histogram; slot-per-function, so the
  // worker pool writes without synchronization.
  std::vector<double> fn_seconds(order.size(), 0.0);
  std::vector<uint8_t> fn_cached(order.size(), 0);
  // Budget counters per degraded slot, turned into Incident records
  // after the pool joins (cause kNone = not degraded).
  std::vector<BudgetCounters> fn_budget(order.size());
  SummaryCache* cache = config.cache;
  Hash128 engine_fp;
  uint64_t cache_hits_before = 0;
  uint64_t cache_misses_before = 0;
  if (cache) {
    engine_fp = EngineFingerprint(engine.binary(), engine.config());
    cache_hits_before = registry.counter("cache.hits").Value();
    cache_misses_before = registry.counter("cache.misses").Value();
  }

  auto produce = [&](const Function& fn, BudgetTracker& tracker) {
    if (FaultPlan::Global().ShouldFail(FaultSite::kSummary, fn.name)) {
      tracker.MarkInjected();
    }
    return engine.Analyze(fn, &tracker);
  };
  auto analyze_one = [&](size_t i) {
    const Function* fn = program.FindFunction(order[i]);
    if (!fn) return;
    fns_done.Add();
    if (events.enabled()) {
      events.Emit(obs::Event("function_begin").Str("function", order[i]));
    }
    obs::Stopwatch watch;
    BudgetTracker tracker(config.budget);
    bool from_cache = false;
    if (cache) {
      Hash128 key = FunctionKey(*fn, engine_fp);
      if (auto cached = cache->Lookup(key)) {
        base[i] = std::move(*cached);
        fn_cached[i] = 1;
        from_cache = true;
      } else {
        base[i] = produce(*fn, tracker);
        // Degraded summaries are budget artifacts, not function
        // content — never persist them, so a rerun with a larger
        // budget (or the fault removed) re-analyzes at full effort.
        if (!base[i].degraded) cache->Store(key, base[i]);
      }
    } else {
      base[i] = produce(*fn, tracker);
    }
    if (!from_cache && base[i].degraded) fn_budget[i] = tracker.counters();
    fn_seconds[i] = watch.Seconds();
    const ExplorationStats& es = base[i].engine_stats;
    m_state_forks.Add(es.state_forks);
    m_cow_copies.Add(es.cow_chunk_copies);
    m_overlay_spills.Add(es.overlay_spills);
    m_tainted_paths.Add(es.tainted_paths);
    m_stmts_pruned.Add(es.stmts_pruned);
    if (events.enabled()) {
      events.Emit(obs::Event("function_end")
                      .Str("function", order[i])
                      .Num(
                          "micros",
                          static_cast<uint64_t>(fn_seconds[i] * 1e6))
                      .Bool("cached", from_cache)
                      .Bool("degraded", base[i].degraded)
                      .Num("forks", es.state_forks));
    }
  };

  // Clamp the pool to the number of work items: spawning thousands of
  // idle threads for a small binary wastes resources, and an oversized
  // request (`--threads 10000`) could otherwise die with
  // std::system_error at thread creation.
  int threads = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(1, config.num_threads)),
      std::max<size_t>(1, order.size())));
  if (threads == 1) {
    for (size_t i = 0; i < order.size(); ++i) analyze_one(i);
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= order.size()) return;
        analyze_one(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  // Everything this pass stored goes to disk as one pack file.
  if (cache) cache->Flush();
  for (size_t i = 0; i < order.size(); ++i) {
    if (fn_budget[i].exhausted_by == BudgetExhaustion::kNone) continue;
    Incident incident;
    incident.binary = engine.binary().soname;
    incident.phase = "summary";
    incident.detail = order[i];
    incident.status = OutOfRange(
        "analysis budget exhausted (" +
        std::string(BudgetExhaustionName(fn_budget[i].exhausted_by)) +
        "); degraded summary substituted");
    incident.budget = fn_budget[i];
    stats.incidents.push_back(std::move(incident));
  }
  {
    obs::Histogram& fn_micros = registry.histogram("summary.function_micros");
    for (double s : fn_seconds) {
      fn_micros.Observe(static_cast<uint64_t>(s * 1e6));
    }
  }
  {
    std::vector<size_t> by_cost(order.size());
    std::iota(by_cost.begin(), by_cost.end(), size_t{0});
    size_t keep = std::min(kHotFunctionCount, by_cost.size());
    std::partial_sort(by_cost.begin(), by_cost.begin() + keep, by_cost.end(),
                      [&](size_t a, size_t b) {
                        return fn_seconds[a] > fn_seconds[b];
                      });
    stats.hot_functions.reserve(keep);
    for (size_t k = 0; k < keep; ++k) {
      size_t i = by_cost[k];
      stats.hot_functions.push_back(
          {order[i], fn_seconds[i], fn_cached[i] != 0});
    }
  }
  if (cache) {
    // Compatibility view: the cache mirrors its counters into the
    // global registry as it goes; read the pass's deltas back out
    // instead of snapshotting CacheStats (proven equal in obs_test).
    stats.cache_hits =
        registry.counter("cache.hits").Value() - cache_hits_before;
    stats.cache_misses =
        registry.counter("cache.misses").Value() - cache_misses_before;
  }
  for (size_t i = 0; i < order.size(); ++i) {
    if (!program.FindFunction(order[i])) continue;
    ++stats.functions_processed;
    if (base[i].degraded) ++stats.degraded_functions;
    if (base[i].truncated) ++stats.truncated_functions;
    result.summaries.emplace(order[i], std::move(base[i]));
  }
  registry.counter("summary.functions").Add(stats.functions_processed);
  registry.counter("summary.degraded").Add(stats.degraded_functions);
  DTAINT_LOG(obs::LogLevel::kDebug, "interproc",
             "summaries done: %zu functions, cache %zu/%zu hit/miss",
             stats.functions_processed, stats.cache_hits, stats.cache_misses);
  return result;
}

ProgramAnalysis Link(const Program& program, const CallGraph& graph,
                     SummarySet phase1, const InterprocConfig& config) {
  ProgramAnalysis analysis;
  analysis.stats = std::move(phase1.stats);
  // Every summary linked so far, with its escaping definitions listed
  // once: the summary is final when it enters analysis.summaries, and
  // every call edge into it reuses the list.
  std::unordered_map<std::string, LinkedCallee> linked_callees;
  RetIndex ret_index;
  // Sequential in bottom-up order: each caller needs its callees'
  // already-linked summaries.
  for (const std::string& name : graph.BottomUpOrder()) {
    const Function* fn = program.FindFunction(name);
    if (!fn) continue;
    auto base_it = phase1.summaries.find(name);
    if (base_it == phase1.summaries.end()) continue;
    FunctionSummary summary = std::move(base_it->second);
    LinkUndo& undo = analysis.link_undo[name];
    undo.own_def_pairs = summary.def_pairs.size();
    undo.own_undefined_uses = summary.undefined_uses.size();
    undo.own_return_values = summary.return_values;
    undo.own_ret_degraded = summary.ret_degraded;
    std::vector<bool> saved;  // def pairs already in the undo record

    // Where each ret_{cs} occurs, so ReplaceRetVariable visits only
    // the items that mention its callsite. Imports are appended after
    // the call loop, so the index covers every item a rewrite touches.
    ret_index.clear();
    for (size_t k = 0; k < summary.def_pairs.size(); ++k) {
      IndexDefPair(summary.def_pairs[k], k, ret_index);
    }
    for (size_t k = 0; k < summary.return_values.size(); ++k) {
      IndexReturnValue(summary.return_values[k], k, ret_index);
    }

    // Step 3: link against already-processed callees (Algorithm 2).
    std::vector<DefPair> imported_defs;
    std::vector<UseRecord> imported_uses;
    for (const CallEvent& call : summary.calls) {
      // Indirect calls may have several similarity-resolved targets.
      std::span<const std::string> targets;
      if (call.is_indirect) {
        const CallSite* cs = fn->CallSiteAt(call.callsite);
        if (cs) targets = cs->resolved_targets;
      } else if (!call.is_import && !call.callee.empty()) {
        targets = {&call.callee, 1};
      }
      for (const std::string& target : targets) {
        auto callee_it = linked_callees.find(target);
        if (callee_it == linked_callees.end()) continue;  // SCC member
        const FunctionSummary& callee = *callee_it->second.summary;

        // -- ReplaceRetVariable: resolve ret_{cs} in the caller --------
        // A return value minted by a degraded callee (directly, or
        // transitively via its own callees) is an over-approximation:
        // taint the substituted pairs with the degraded flag and mark
        // the caller's returns contaminated, so the path finder can
        // suppress flows built on guessed data.
        auto uses_it = ret_index.find(call.callsite);
        SymRef ret_value = uses_it == ret_index.end()
                               ? nullptr
                               : RepresentativeReturn(callee);
        if (ret_value) {
          // By reference: inserting a new callsite may rehash the
          // index, which moves no element but invalidates `uses_it`.
          RetUses& uses = uses_it->second;
          bool callee_ret_degraded = callee.degraded || callee.ret_degraded;
          SymRef ret_sym = SymExpr::Ret(call.callsite);
          ret_value = ReplaceFormalArgs(ret_value, call.args);
          ret_value = RehashHeap(ret_value, call.callsite);
          // The index lists may outgrow what still matches, so re-test
          // before rewriting. A rewritten item joins the list of every
          // ret_{cs'} the substitute carried in from the call's
          // arguments; a later event at cs' must still find it. That
          // never grows the list being walked: the item is on it.
          for (size_t k : uses.def_pairs) {
            DefPair& dp = summary.def_pairs[k];
            bool in_d = dp.d && dp.d->Contains(ret_sym);
            bool in_u = dp.u && dp.u->Contains(ret_sym);
            if (!in_d && !in_u) continue;
            if (saved.empty()) saved.resize(summary.def_pairs.size());
            if (!saved[k]) {
              saved[k] = true;
              undo.rewritten_def_pairs.emplace_back(k, dp);
            }
            if (in_d) dp.d = SymExpr::Replace(dp.d, ret_sym, ret_value);
            if (in_u) dp.u = SymExpr::Replace(dp.u, ret_sym, ret_value);
            ++analysis.stats.rets_replaced;
            if (callee_ret_degraded) dp.degraded = true;
            IndexDefPair(dp, k, ret_index);
          }
          for (size_t k : uses.return_values) {
            SymRef& rv = summary.return_values[k];
            if (!rv || !rv->Contains(ret_sym)) continue;
            rv = SymExpr::Replace(rv, ret_sym, ret_value);
            ++analysis.stats.rets_replaced;
            if (callee_ret_degraded) summary.ret_degraded = true;
            IndexReturnValue(rv, k, ret_index);
          }
        }

        // -- UpdateDefPairs: import callee's escaping definitions ------
        size_t imported = 0;
        for (const DefPair* dp : callee_it->second.escaping_defs) {
          if (imported >= config.max_imported_per_callsite) break;
          DefPair linked;
          linked.d = ReplaceFormalArgs(dp->d, call.args);
          linked.u = ReplaceFormalArgs(dp->u, call.args);
          linked.d = RehashHeap(linked.d, call.callsite);
          linked.u = RehashHeap(linked.u, call.callsite);
          linked.site = dp->site;        // original defining site
          linked.path_id = call.path_id; // caller's path context
          linked.degraded = dp->degraded || callee.degraded;
          imported_defs.push_back(std::move(linked));
          ++imported;
          ++analysis.stats.defs_propagated;
        }

        // -- ForwardUndefinedUse: lift unresolved uses into the caller -
        size_t forwarded = 0;
        for (const UseRecord& use : callee.undefined_uses) {
          if (forwarded >= config.max_imported_per_callsite) break;
          SymRef root = RootPointerOf(use.u);
          if (!root || root->kind() != SymKind::kArg) continue;
          UseRecord lifted;
          lifted.u = ReplaceFormalArgs(use.u, call.args);
          lifted.site = use.site;
          lifted.path_id = call.path_id;
          imported_uses.push_back(std::move(lifted));
          ++forwarded;
          ++analysis.stats.uses_forwarded;
        }
      }
    }
    summary.def_pairs.insert(summary.def_pairs.end(),
                             std::make_move_iterator(imported_defs.begin()),
                             std::make_move_iterator(imported_defs.end()));
    summary.undefined_uses.insert(
        summary.undefined_uses.end(),
        std::make_move_iterator(imported_uses.begin()),
        std::make_move_iterator(imported_uses.end()));

    auto [it, inserted] =
        analysis.summaries.emplace(name, std::move(summary));
    if (inserted) {
      linked_callees.emplace(
          name, LinkedCallee{&it->second, it->second.EscapingDefs()});
    }
  }

  if (config.apply_alias) {
    analysis.alias_oracle =
        std::make_shared<OnDemandAliasOracle>(config.budget);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.counter("link.defs_propagated").Add(analysis.stats.defs_propagated);
  registry.counter("link.uses_forwarded").Add(analysis.stats.uses_forwarded);
  registry.counter("link.rets_replaced").Add(analysis.stats.rets_replaced);
  // Expression-interner counters cover the factory traffic so far
  // (the summary worker pool included) once published.
  ExprInterner::Global().PublishMetrics();
  DTAINT_LOG(obs::LogLevel::kDebug, "interproc",
             "link done: %zu functions, %zu defs propagated, "
             "%zu uses forwarded, %zu rets replaced",
             analysis.stats.functions_processed,
             analysis.stats.defs_propagated, analysis.stats.uses_forwarded,
             analysis.stats.rets_replaced);
  return analysis;
}

SummarySet Unlink(ProgramAnalysis analysis) {
  for (auto& [name, summary] : analysis.summaries) {
    LinkUndo& undo = analysis.link_undo.at(name);
    summary.def_pairs.resize(undo.own_def_pairs);
    for (auto& [k, dp] : undo.rewritten_def_pairs) {
      summary.def_pairs[k] = std::move(dp);
    }
    summary.undefined_uses.resize(undo.own_undefined_uses);
    summary.return_values = std::move(undo.own_return_values);
    summary.ret_degraded = undo.own_ret_degraded;
  }
  SummarySet phase1;
  phase1.summaries = std::move(analysis.summaries);
  phase1.stats = std::move(analysis.stats);
  phase1.stats.defs_propagated = 0;
  phase1.stats.uses_forwarded = 0;
  phase1.stats.rets_replaced = 0;
  return phase1;
}

ProgramAnalysis RunBottomUp(const Program& program, const CallGraph& graph,
                            const SymEngine& engine,
                            const InterprocConfig& config) {
  return Link(program, graph, Summarize(program, graph, engine, config),
              config);
}

}  // namespace dtaint

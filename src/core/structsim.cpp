#include "src/core/structsim.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "src/core/alias_ondemand.h"
#include "src/core/pathfinder.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"

namespace dtaint {

namespace {

/// Can two field types denote the same field? Unknown is a wildcard.
bool TypesUnify(ValueType a, ValueType b) {
  if (a == ValueType::kUnknown || b == ValueType::kUnknown) return true;
  if (a == b) return true;
  // ptr and char* unify (char* is a refinement).
  return IsPointerType(a) && IsPointerType(b);
}

/// Normalized base-path key: the root pointer becomes "R".
std::string NormalizedBaseKey(SymRef base, SymRef root) {
  std::string base_str = base->ToString();
  std::string root_str = root->ToString();
  std::string out;
  size_t pos = 0;
  while (true) {
    size_t hit = base_str.find(root_str, pos);
    if (hit == std::string::npos) {
      out += base_str.substr(pos);
      break;
    }
    out += base_str.substr(pos, hit - pos);
    out += "R";
    pos = hit + root_str.size();
  }
  return out;
}

/// Collects (base, offset) pairs of every deref inside `expr`.
void CollectAccesses(SymRef expr,
                     std::vector<std::pair<SymRef, int64_t>>* out) {
  std::vector<SymRef> derefs;
  SymExpr::CollectDerefs(expr, &derefs);
  for (SymRef d : derefs) {
    auto split = SymExpr::SplitBaseOffset(d->lhs());
    if (!split.base) continue;  // constant address: not a structure
    out->push_back({split.base, split.offset});
  }
}

bool IsLayoutRoot(SymRef root) {
  switch (root->kind()) {
    case SymKind::kArg:
    case SymKind::kHeap:
    case SymKind::kSp0:
    case SymKind::kRet:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<StructLayout> ExtractLayouts(const FunctionSummary& summary) {
  // Gather every base+offset access in the function. Summaries repeat
  // the same (canonical, so pointer-identical) expressions across many
  // def pairs and calls; a node walked once contributes the same
  // accesses to the same std::set groups every time, so the pointer
  // dedup is output-invariant and skips the repeated deref walks.
  std::vector<std::pair<SymRef, int64_t>> accesses;
  std::unordered_set<const SymExpr*> walked;
  auto collect_once = [&](SymRef e) {
    if (!e) return;
    if (!walked.insert(e).second) return;
    CollectAccesses(e, &accesses);
  };
  for (const DefPair& dp : summary.def_pairs) {
    collect_once(dp.d);
    collect_once(dp.u);
  }
  for (const UseRecord& use : summary.undefined_uses) {
    collect_once(use.u);
  }
  for (const CallEvent& call : summary.calls) {
    for (SymRef arg : call.args) {
      collect_once(arg);
    }
    collect_once(call.indirect_target);
  }

  // Group by root pointer.
  struct Builder {
    SymRef root = nullptr;
    std::map<std::string, std::set<StructField>> groups;
  };
  std::map<uint64_t, Builder> builders;
  for (const auto& [base, offset] : accesses) {
    SymRef root = RootPointerOf(base);
    if (!root || !IsLayoutRoot(root)) continue;
    Builder& b = builders[root->hash()];
    if (!b.root) b.root = root;
    std::string key = NormalizedBaseKey(base, root);
    // Field type evidence: the type observed for deref(base+offset).
    SymRef field_expr = SymExpr::Deref(SymAdd(base, offset));
    ValueType type = summary.types.TypeOf(field_expr);
    b.groups[key].insert({offset, type});
  }

  std::vector<StructLayout> layouts;
  for (auto& [_, b] : builders) {
    StructLayout layout;
    layout.root = b.root;
    for (auto& [key, fields] : b.groups) {
      layout.groups[key] =
          std::vector<StructField>(fields.begin(), fields.end());
    }
    if (!layout.empty()) layouts.push_back(std::move(layout));
  }
  return layouts;
}

bool LayoutsCompatible(const StructLayout& a, const StructLayout& b) {
  // Rule 1: base-set inclusion (either direction).
  auto keys_subset = [](const StructLayout& x, const StructLayout& y) {
    for (const auto& [key, _] : x.groups) {
      if (!y.groups.count(key)) return false;
    }
    return true;
  };
  if (!keys_subset(a, b) && !keys_subset(b, a)) return false;

  // Rule 2: fields at the same offset under the same base must agree
  // on type.
  for (const auto& [key, a_fields] : a.groups) {
    auto it = b.groups.find(key);
    if (it == b.groups.end()) continue;
    for (const StructField& fa : a_fields) {
      for (const StructField& fb : it->second) {
        if (fa.offset == fb.offset && !TypesUnify(fa.type, fb.type)) {
          return false;
        }
      }
    }
  }
  return true;
}

double LayoutSimilarity(const StructLayout& a, const StructLayout& b) {
  if (!LayoutsCompatible(a, b)) return 0.0;
  double sigma = 0.0;
  for (const auto& [key, a_fields] : a.groups) {
    auto it = b.groups.find(key);
    if (it == b.groups.end()) continue;
    // Offsets rule the field identity; types already passed the gate.
    std::set<int64_t> a_offsets, b_offsets, union_offsets;
    for (const StructField& f : a_fields) a_offsets.insert(f.offset);
    for (const StructField& f : it->second) b_offsets.insert(f.offset);
    union_offsets = a_offsets;
    union_offsets.insert(b_offsets.begin(), b_offsets.end());
    size_t intersect = 0;
    for (int64_t off : a_offsets) intersect += b_offsets.count(off);
    if (!union_offsets.empty()) {
      sigma += static_cast<double>(intersect) /
               static_cast<double>(union_offsets.size());
    }
  }
  return sigma;
}

std::vector<std::string> AddressTakenFunctions(const Program& program) {
  std::vector<std::string> result;
  if (!program.binary) return result;
  const Binary& bin = *program.binary;
  std::set<std::string> seen;
  for (const Section& sec : bin.sections) {
    if (sec.kind != SectionKind::kData && sec.kind != SectionKind::kRodata) {
      continue;
    }
    for (size_t off = 0; off + 4 <= sec.bytes.size(); off += 4) {
      uint32_t word = ReadWord(bin.arch, sec.bytes.data() + off);
      auto it = program.fn_by_addr.find(word);
      if (it != program.fn_by_addr.end() && seen.insert(it->second).second) {
        result.push_back(it->second);
      }
    }
  }
  return result;
}

std::vector<IndirectResolution> ResolveIndirectCalls(
    Program& program, const std::map<std::string, FunctionSummary>& summaries,
    OnDemandAliasOracle* sse_oracle) {
  std::vector<IndirectResolution> resolutions;

  // Candidate set: address-taken functions, with their parameter-rooted
  // layouts precomputed.
  std::vector<std::string> candidates = AddressTakenFunctions(program);
  std::map<std::string, std::vector<StructLayout>> candidate_layouts;
  for (const std::string& name : candidates) {
    auto it = summaries.find(name);
    if (it == summaries.end()) continue;
    std::vector<StructLayout> arg_layouts;
    for (StructLayout& layout : ExtractLayouts(it->second)) {
      if (layout.root->kind() == SymKind::kArg) {
        arg_layouts.push_back(std::move(layout));
      }
    }
    candidate_layouts[name] = std::move(arg_layouts);
  }

  for (auto& [caller_name, fn] : program.functions) {
    auto sum_it = summaries.find(caller_name);
    if (sum_it == summaries.end()) continue;
    const FunctionSummary& summary = sum_it->second;
    std::vector<StructLayout> caller_layouts = ExtractLayouts(summary);

    for (CallSite& cs : fn.callsites) {
      if (!cs.is_indirect || !cs.resolved_targets.empty()) continue;
      // Find the engine's view of this callsite.
      const CallEvent* event = nullptr;
      for (const CallEvent& call : summary.calls) {
        if (call.is_indirect && call.callsite == cs.call_addr) {
          event = &call;
          break;
        }
      }
      if (!event || !event->indirect_target) continue;

      IndirectResolution resolution;
      resolution.caller = caller_name;
      resolution.callsite = cs.call_addr;

      // Case 1: the engine concretized the target (dispatch-table load
      // from .rodata/.data).
      if (event->indirect_target->kind() == SymKind::kConst) {
        auto it =
            program.fn_by_addr.find(event->indirect_target->const_value());
        if (it != program.fn_by_addr.end()) {
          resolution.targets.push_back(it->second);
          resolution.similarity = kExactTarget;
          cs.resolved_targets = resolution.targets;
          resolutions.push_back(std::move(resolution));
        }
        continue;
      }

      // Case 1.5 (alias oracle): the symbolic target may read a
      // cell some *linked* definition pair stores a concrete function
      // address into — a registration store made in another function,
      // imported here by Algorithm 2. Match the target SSE against
      // every linked pair and its on-demand alias twins; a covering
      // pair whose value is a known function address resolves the call
      // exactly. Layout similarity never sees these: the registration
      // and the call use different names for the same storage.
      if (sse_oracle) {
        std::set<std::string> sse_targets;
        auto match_pair = [&](const DefPair& dp) {
          if (!dp.u || dp.u->kind() != SymKind::kConst) return;
          if (!dp.d || !DefCoversUse(dp.d, event->indirect_target)) return;
          auto fn_it = program.fn_by_addr.find(dp.u->const_value());
          if (fn_it != program.fn_by_addr.end()) {
            sse_targets.insert(fn_it->second);
          }
        };
        for (const DefPair& dp : summary.def_pairs) match_pair(dp);
        for (const DefPair& dp : sse_oracle->TwinsFor(summary)) {
          match_pair(dp);
        }
        if (!sse_targets.empty()) {
          resolution.targets.assign(sse_targets.begin(), sse_targets.end());
          resolution.similarity = kSseTarget;
          cs.resolved_targets = resolution.targets;
          obs::MetricsRegistry::Global()
              .counter("alias.ondemand.resolved_icalls")
              .Add(1);
          resolutions.push_back(std::move(resolution));
          continue;
        }
      }

      // Case 2: similarity matching. The structure at the callsite is
      // the one rooted where the target pointer (or the first call
      // argument) lives.
      std::vector<const StructLayout*> site_layouts;
      auto add_site_layout = [&](SymRef expr) {
        if (!expr) return;
        SymRef root = RootPointerOf(expr);
        if (!root) return;
        for (const StructLayout& layout : caller_layouts) {
          if (SymExpr::Equal(layout.root, root)) {
            site_layouts.push_back(&layout);
          }
        }
      };
      add_site_layout(event->indirect_target);
      if (!event->args.empty()) add_site_layout(event->args[0]);
      if (site_layouts.empty()) continue;

      double best = 0.0;
      std::vector<std::string> best_targets;
      for (const auto& [cand_name, layouts] : candidate_layouts) {
        if (cand_name == caller_name) continue;
        double cand_best = 0.0;
        for (const StructLayout* site : site_layouts) {
          for (const StructLayout& cand : layouts) {
            cand_best = std::max(cand_best, LayoutSimilarity(*site, cand));
          }
        }
        if (cand_best <= 0.0) continue;
        if (cand_best > best + 1e-9) {
          best = cand_best;
          best_targets = {cand_name};
        } else if (cand_best > best - 1e-9) {
          best_targets.push_back(cand_name);
        }
      }
      if (!best_targets.empty()) {
        resolution.targets = best_targets;
        resolution.similarity = best;
        cs.resolved_targets = std::move(best_targets);
        resolutions.push_back(std::move(resolution));
      }
    }
  }
  for (const IndirectResolution& r : resolutions) {
    DTAINT_LOG(obs::LogLevel::kDebug, "structsim",
               "%s @%#x -> %zu target(s), similarity %.3f", r.caller.c_str(),
               r.callsite, r.targets.size(), r.similarity);
  }
  return resolutions;
}

}  // namespace dtaint

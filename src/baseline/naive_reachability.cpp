#include "src/baseline/naive_reachability.h"

#include <map>
#include <set>

namespace dtaint {

namespace {

/// All functions reachable from `start` through direct and resolved
/// indirect call edges (inclusive).
std::set<std::string> ReachableFrom(const Program& program,
                                    const std::string& start) {
  std::set<std::string> seen;
  std::vector<std::string> work{start};
  while (!work.empty()) {
    std::string name = std::move(work.back());
    work.pop_back();
    if (!seen.insert(name).second) continue;
    const Function* fn = program.FindFunction(name);
    if (!fn) continue;
    for (const CallSite& cs : fn->callsites) {
      if (cs.is_indirect) {
        for (const std::string& t : cs.resolved_targets) work.push_back(t);
      } else if (!cs.target_is_import && !cs.target_name.empty()) {
        work.push_back(cs.target_name);
      }
    }
  }
  return seen;
}

}  // namespace

std::vector<NaiveFinding> NaiveReachabilityScan(const Program& program) {
  // Collect functions containing source calls and the per-function
  // source name (first one wins — naive tools don't track more).
  std::map<std::string, std::string> source_fns;
  for (const auto& [name, fn] : program.functions) {
    for (const CallSite& cs : fn.callsites) {
      if (!cs.target_is_import) continue;
      const LibFunction* lib = FindLibFunction(cs.target_name);
      if (lib && lib->IsSource()) {
        source_fns.emplace(name, cs.target_name);
        break;
      }
    }
  }

  // A source "reaches" a sink if the sink's function is reachable from
  // the source's function, or vice versa (data could flow through
  // return values), or they coincide.
  std::map<std::string, std::set<std::string>> reach_cache;
  auto reaches = [&](const std::string& from,
                     const std::string& to) -> bool {
    auto it = reach_cache.find(from);
    if (it == reach_cache.end()) {
      it = reach_cache.emplace(from, ReachableFrom(program, from)).first;
    }
    return it->second.count(to) > 0;
  };

  std::vector<NaiveFinding> findings;
  for (const auto& [name, fn] : program.functions) {
    for (const CallSite& cs : fn.callsites) {
      if (!cs.target_is_import) continue;
      const LibFunction* sink = FindLibFunction(cs.target_name);
      if (!sink || !sink->IsSink()) continue;
      for (const auto& [src_fn, src_name] : source_fns) {
        if (src_fn == name || reaches(src_fn, name) ||
            reaches(name, src_fn)) {
          NaiveFinding finding;
          finding.sink_function = name;
          finding.sink_site = cs.call_addr;
          finding.sink = cs.target_name;
          finding.source = src_name;
          finding.vuln_class = sink->vuln_class;
          findings.push_back(std::move(finding));
          break;  // one report per sink callsite
        }
      }
    }
  }
  return findings;
}

}  // namespace dtaint

#include "src/core/dtaint.h"

#include <algorithm>
#include <set>

#include "src/obs/events.h"
#include "src/obs/log.h"
#include "src/obs/phase.h"
#include "src/obs/stopwatch.h"
#include "src/resilience/fault.h"
#include "src/symexec/intern.h"
#include "src/util/strings.h"

namespace dtaint {

std::string Finding::Summary() const {
  std::string out(VulnClassName(path.vuln_class));
  out += ": " + path.source_name + " -> " + path.sink_name + " in " +
         path.sink_function + " @" + HexStr(path.sink_site) + " (" +
         std::to_string(path.hops.size()) + " hops)";
  return out;
}

Result<AnalysisReport> DTaint::Analyze(const Binary& binary) const {
  return AnalyzeFunctions(binary, {});
}

Result<AnalysisReport> DTaint::AnalyzeFunctions(
    const Binary& binary, const std::vector<std::string>& only) const {
  // The binary's clock starts before the pin: the first pin after a
  // finished image recycles that image's expressions, and that work
  // belongs to this binary. A Stopwatch holds no expressions.
  obs::Stopwatch t_total;
  obs::EventStream& events = obs::EventStream::Global();
  if (events.enabled()) {
    events.Emit(obs::Event("binary_begin")
                    .Str("binary", binary.soname)
                    .Str("arch", ArchName(binary.arch)));
  }
  // Taken before any other local so it is released after them: every
  // local below may hold expressions of this generation.
  InternPin pin = ExprInterner::Global().Pin();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  AnalysisReport report;
  report.binary_name = binary.soname;
  report.arch = binary.arch;
  obs::MetricsSnapshot metrics_before = registry.Snapshot();
  if (events.enabled()) {
    events.Emit(obs::Event("alias_mode")
                    .Str("mode", config_.enable_alias ? "ondemand" : "off"));
  }
  DTAINT_LOG(obs::LogLevel::kInfo, "dtaint", "analyzing %s",
             report.binary_name.c_str());

  // The phases below tile the binary (binary_begin to binary_end), one
  // obs::Phase each, in the order lift, filter, callgraph, summary,
  // link, structsim, relink, pathfind, sanitize, report. ssa_seconds
  // sums lift through link; ddg_seconds sums structsim through report.

  // 1. CFG skeleton of every function. No IR is lifted here: the
  // engine lifts a function only when it executes it (step 2).
  obs::Phase lift("lift");
  CfgBuilder builder(binary);
  auto program_or = builder.BuildProgram();
  if (!program_or.ok()) {
    DTAINT_LOG(obs::LogLevel::kError, "dtaint", "lift failed for %s: %s",
               report.binary_name.c_str(),
               program_or.status().ToString().c_str());
    return program_or.status();
  }
  Program program = std::move(*program_or);
  for (const auto& [fn_name, status] : program.lift_failures) {
    Incident incident;
    incident.binary = report.binary_name;
    incident.phase = "lift";
    incident.detail = fn_name;
    incident.status = status;
    if (events.enabled()) EmitIncident(events, incident);
    report.incidents.push_back(std::move(incident));
    DTAINT_LOG(obs::LogLevel::kWarn, "dtaint", "%s: lift skipped %s: %s",
               report.binary_name.c_str(), fn_name.c_str(),
               status.ToString().c_str());
  }

  report.functions = program.functions.size();
  report.blocks = program.TotalBlocks();
  registry.counter("lift.functions").Add(report.functions);
  registry.counter("lift.blocks").Add(report.blocks);
  report.ssa_seconds += lift.Finish([&](obs::Event& end) {
    end.Num("functions", report.functions)
        .Num("blocks", report.blocks)
        .Num("lift_failures", program.lift_failures.size());
  });

  // Optional focus filter: keep the named functions plus everything
  // transitively reachable from them.
  obs::Phase filter("filter");
  std::set<std::string> keep;
  if (!only.empty()) {
    // Seed + direct-call closure. Address-taken functions stay too:
    // they are potential indirect-call targets, and dropping them
    // would blind the structure-similarity resolution.
    std::vector<std::string> work(only.begin(), only.end());
    if (config_.enable_structsim) {
      for (const std::string& name : AddressTakenFunctions(program)) {
        work.push_back(name);
      }
    }
    while (!work.empty()) {
      std::string name = std::move(work.back());
      work.pop_back();
      if (!program.functions.count(name)) continue;
      if (!keep.insert(name).second) continue;
      for (const CallSite& cs : program.functions.at(name).callsites) {
        if (!cs.is_indirect && !cs.target_is_import &&
            !cs.target_name.empty()) {
          work.push_back(cs.target_name);
        }
      }
    }
    std::erase_if(program.functions,
                  [&](const auto& fn) { return !keep.count(fn.first); });
    std::erase_if(program.fn_by_addr,
                  [&](const auto& addr) { return !keep.count(addr.second); });
  }
  report.analyzed_functions = program.functions.size();
  report.ssa_seconds += filter.Finish();

  obs::Phase callgraph("callgraph");
  CallGraph graph = CallGraph::Build(program);
  report.ssa_seconds += callgraph.Finish();

  // 2. Intraprocedural symbolic analysis, bottom-up; alias recognition.
  // Every function is summarized once; the summaries are linked, and
  // unlinked and linked again once structure similarity resolves
  // indirect calls.
  obs::Phase summary("summary");
  SymEngine engine(binary, config_.engine);
  InterprocConfig interproc_config = config_.interproc;
  interproc_config.apply_alias = config_.enable_alias;
  SummarySet summaries = Summarize(program, graph, engine, interproc_config);
  summaries.stats.summary_seconds = summary.Finish([&](obs::Event& end) {
    end.Num("functions", program.functions.size())
        .Num("cache_hits", summaries.stats.cache_hits)
        .Num("cache_misses", summaries.stats.cache_misses);
  });
  report.ssa_seconds += summaries.stats.summary_seconds;

  ProgramAnalysis analysis;
  auto link_fields = [&analysis](obs::Event& end) {
    end.Num("defs_propagated", analysis.stats.defs_propagated)
        .Num("uses_forwarded", analysis.stats.uses_forwarded);
  };
  obs::Phase link("link");
  analysis = Link(program, graph, std::move(summaries), interproc_config);
  report.ssa_seconds += link.Finish(link_fields);

  // 3. Indirect-call resolution via structure-layout similarity, then
  // re-link so flows cross the resolved edges.
  if (config_.enable_structsim) {
    obs::Phase structsim("structsim");
    // With alias on, the oracle adds the SSE resolution tier: call-target
    // SSEs matched against linked function-pointer stores and their
    // alias twins.
    auto resolutions = ResolveIndirectCalls(program, analysis.summaries,
                                            analysis.alias_oracle.get());
    report.indirect_calls_resolved = resolutions.size();
    registry.counter("structsim.indirect_calls_resolved")
        .Add(report.indirect_calls_resolved);
    report.ddg_seconds += structsim.Finish([&](obs::Event& end) {
      end.Num("resolved", report.indirect_calls_resolved);
    });
    if (!resolutions.empty()) {
      obs::Phase relink("relink");
      analysis = Link(program, CallGraph::Build(program),
                      Unlink(std::move(analysis)), interproc_config);
      report.ddg_seconds += relink.Finish(link_fields);
    }
  }

  // 4. Sink-to-source path search + sanitization checks.
  obs::Phase pathfind("pathfind");
  if (FaultPlan::Global().ShouldFail(FaultSite::kPathfinder,
                                     report.binary_name)) {
    return Internal("injected pathfinder fault: " + report.binary_name);
  }
  PathFinder finder(program, analysis, config_.pathfinder);
  std::vector<TaintPath> paths = finder.FindAll();
  report.total_paths = paths.size();
  report.pathfinder_stats = finder.stats();
  report.sink_count = report.pathfinder_stats.sink_callsites;
  report.ddg_seconds += pathfind.Finish([&](obs::Event& end) {
    end.Num("paths", report.total_paths)
        .Num("sinks", report.sink_count);
  });

  obs::Phase sanitize("sanitize");
  std::vector<TaintPath> vulnerable = FilterVulnerable(std::move(paths));
  report.pathfinder_stats.sanitized_away =
      report.total_paths - vulnerable.size();
  report.ddg_seconds += sanitize.Finish([&](obs::Event& end) {
    end.Num("sanitized", report.pathfinder_stats.sanitized_away);
  });

  obs::Phase report_phase("report");
  report.interproc_stats = analysis.stats;
  report.call_graph_edges = program.CallEdgeCount();
  // Paths riding on degraded (over-approximated) flow are withheld:
  // reporting them would let a *smaller* budget produce *more*
  // findings. They count as suppressed and flip `complete` instead.
  size_t before_suppression = vulnerable.size();
  vulnerable.erase(std::remove_if(vulnerable.begin(), vulnerable.end(),
                                  [](const TaintPath& p) {
                                    return p.crossed_degraded;
                                  }),
                   vulnerable.end());
  report.suppressed_findings = before_suppression - vulnerable.size();
  report.vulnerable_paths = vulnerable.size();
  registry.counter("sanitize.paths_sanitized")
      .Add(report.pathfinder_stats.sanitized_away);
  registry.counter("resilience.findings_suppressed")
      .Add(report.suppressed_findings);
  for (TaintPath& path : vulnerable) {
    report.findings.push_back({std::move(path), pin});
  }
  if (events.enabled()) {
    for (const Finding& finding : report.findings) {
      const TaintPath& p = finding.path;
      events.Emit(obs::Event("finding")
                      .Str("class", VulnClassName(p.vuln_class))
                      .Str("source", p.source_name)
                      .Str("sink", p.sink_name)
                      .Str("sink_function", p.sink_function)
                      .Str("sink_site", HexStr(p.sink_site))
                      .Num("hops", p.hops.size())
                      .Num("constraints", p.constraints.size()));
    }
  }
  report.degraded_functions = report.interproc_stats.degraded_functions;
  for (const Incident& incident : report.interproc_stats.incidents) {
    if (events.enabled()) EmitIncident(events, incident);
    report.incidents.push_back(incident);
  }
  // Note: the engine's own max_paths truncation (FunctionSummary::
  // truncated) fires on nearly every real binary at default config and
  // is the normal bounded-exploration baseline, so it does NOT flip
  // `complete` — only the resilience machinery (lift failures, budget
  // degradation, finding suppression) and pathfinder depth pruning do.
  report.complete = report.incidents.empty() &&
                    report.suppressed_findings == 0 &&
                    report.degraded_functions == 0 &&
                    report.pathfinder_stats.pruned_by_depth == 0;
  // Fold the path-search/sanitization expression traffic into the
  // intern.* counters before the per-run delta is taken.
  ExprInterner::Global().PublishMetrics();
  // Tearing the analysis state down is work every call pays before it
  // returns: do it inside the phase, so the phases tile the binary.
  // `finder` is not used past this point.
  analysis = ProgramAnalysis();
  graph = CallGraph();
  program = Program();
  report.ddg_seconds += report_phase.Finish();
  report.metrics = registry.Snapshot().DeltaSince(metrics_before);
  report.total_seconds = t_total.Seconds();
  if (events.enabled()) {
    events.Emit(obs::Event("binary_end")
                    .Str("binary", report.binary_name)
                    .Num("functions", report.analyzed_functions)
                    .Num("findings", report.findings.size())
                    .Bool("complete", report.complete)
                    .Double("duration_ms", report.total_seconds * 1e3));
  }
  DTAINT_LOG(obs::LogLevel::kInfo, "dtaint",
             "%s: %zu findings (%zu paths, %zu sanitized) in %.3fs",
             report.binary_name.c_str(), report.findings.size(),
             report.total_paths, report.pathfinder_stats.sanitized_away,
             report.total_seconds);
  return report;
}

}  // namespace dtaint

#include "src/obs/benchdiff.h"

#include <cmath>
#include <cstdio>

#include "src/obs/bench.h"
#include "src/util/strings.h"

namespace dtaint::bench {

namespace {

const char* StatusName(DiffStatus status) {
  switch (status) {
    case DiffStatus::kOk: return "ok";
    case DiffStatus::kImproved: return "improved";
    case DiffStatus::kBelowFloor: return "below-floor";
    case DiffStatus::kInfo: return "info";
    case DiffStatus::kRegressed: return "REGRESSED";
    case DiffStatus::kChanged: return "CHANGED";
    case DiffStatus::kMissing: return "MISSING";
    case DiffStatus::kNew: return "new";
  }
  return "?";
}

bool Fails(DiffStatus status) {
  return status == DiffStatus::kRegressed ||
         status == DiffStatus::kChanged || status == DiffStatus::kMissing;
}

/// Integral values print as integers, everything else with enough
/// decimals for sub-millisecond times.
std::string FmtValue(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return FmtDouble(v, 6);
}

using Scalars = std::map<std::string, double, std::less<>>;

/// One run's comparable scalars: wall_seconds + the "values" object,
/// and the work counters of its "metrics" object.
struct RunScalars {
  Scalars values;
  Scalars counters;
};

Result<RunScalars> ParseRun(const JsonValue& run) {
  RunScalars scalars;
  const JsonValue* wall = run.Find("wall_seconds");
  if (!wall || !wall->is_number()) {
    return InvalidArgument("run is missing wall_seconds");
  }
  scalars.values["wall_seconds"] = wall->number();
  const JsonValue* values = run.Find("values");
  if (!values || !values->is_object()) {
    return InvalidArgument("run is missing the values object");
  }
  for (const auto& [name, value] : values->object()) {
    if (!value.is_number()) {
      return InvalidArgument("non-numeric value metric: " + name);
    }
    scalars.values[name] = value.number();
  }
  // Runs without a registry (external runs, older documents) carry no
  // counters; that is not an error.
  const JsonValue* metrics = run.Find("metrics");
  const JsonValue* counters =
      metrics && metrics->is_object() ? metrics->Find("counters") : nullptr;
  if (counters && counters->is_object()) {
    for (const auto& [name, value] : counters->object()) {
      if (!value.is_number()) {
        return InvalidArgument("non-numeric counter: " + name);
      }
      scalars.counters[name] = value.number();
    }
  }
  return scalars;
}

struct ParsedDoc {
  std::string bench;
  // run name -> scalars, in document order of runs.
  std::vector<std::pair<std::string, RunScalars>> runs;
};

Result<ParsedDoc> ParseDoc(const JsonValue& doc, const char* which) {
  if (!doc.is_object()) {
    return InvalidArgument(std::string(which) +
                           " document is not a JSON object");
  }
  const JsonValue* version = doc.Find("schema_version");
  if (!version || !version->is_number()) {
    return InvalidArgument(std::string(which) +
                           " document has no schema_version");
  }
  if (static_cast<int>(version->number()) != kBenchSchemaVersion) {
    return InvalidArgument(
        std::string(which) + " document has schema_version " +
        FmtValue(version->number()) + ", this build understands " +
        std::to_string(kBenchSchemaVersion));
  }
  const JsonValue* bench = doc.Find("bench");
  const JsonValue* runs = doc.Find("runs");
  if (!bench || !bench->is_string() || !runs || !runs->is_array()) {
    return InvalidArgument(std::string(which) +
                           " document is missing bench/runs");
  }
  ParsedDoc parsed;
  parsed.bench = bench->string();
  for (const JsonValue& run : runs->array()) {
    const JsonValue* name = run.Find("name");
    if (!name || !name->is_string()) {
      return InvalidArgument(std::string(which) + " run has no name");
    }
    auto scalars = ParseRun(run);
    if (!scalars.ok()) return scalars.status();
    parsed.runs.emplace_back(name->string(), std::move(*scalars));
  }
  return parsed;
}

}  // namespace

bool IsGatedCounter(std::string_view name) {
  for (std::string_view ungated : kUngatedCounters) {
    if (name == ungated) return false;
  }
  return true;
}

MetricClass ClassifyMetric(std::string_view name) {
  if (name.ends_with("_ratio") || name.ends_with("_speedup") ||
      name.ends_with("_pct") || name.ends_with("_mb")) {
    return MetricClass::kInformational;
  }
  if (name.ends_with("_seconds")) return MetricClass::kTimeSeconds;
  if (name.ends_with("_nanos")) return MetricClass::kTimeNanos;
  return MetricClass::kCount;
}

bool DiffReport::HasRegression() const {
  for (const MetricDelta& row : rows) {
    if (Fails(row.status)) return true;
  }
  return false;
}

std::string DiffReport::ToMarkdown(bool only_notable) const {
  std::string out =
      "| run | metric | baseline | current | ratio | status |\n"
      "|---|---|---:|---:|---:|---|\n";
  size_t shown = 0;
  for (const MetricDelta& row : rows) {
    if (only_notable && (row.status == DiffStatus::kOk ||
                         row.status == DiffStatus::kBelowFloor ||
                         row.status == DiffStatus::kInfo)) {
      continue;
    }
    ++shown;
    out += "| " + row.run + " | " + row.metric + " | " +
           FmtValue(row.baseline) + " | " + FmtValue(row.current) + " | " +
           (row.ratio > 0 ? FmtDouble(row.ratio, 2) + "x" : "-") + " | " +
           StatusName(row.status) + " |\n";
  }
  if (shown == 0) out += "| - | - | - | - | - | all ok |\n";
  return out;
}

Result<DiffReport> DiffBenchDocs(const JsonValue& baseline,
                                 const JsonValue& current,
                                 const DiffOptions& options) {
  auto base = ParseDoc(baseline, "baseline");
  if (!base.ok()) return base.status();
  auto cur = ParseDoc(current, "current");
  if (!cur.ok()) return cur.status();
  if (base->bench != cur->bench) {
    return InvalidArgument("bench name mismatch: baseline is '" +
                           base->bench + "', current is '" + cur->bench +
                           "'");
  }

  auto find_run = [](const ParsedDoc& doc,
                     const std::string& name) -> const RunScalars* {
    for (const auto& [run_name, scalars] : doc.runs) {
      if (run_name == name) return &scalars;
    }
    return nullptr;
  };

  DiffReport report;
  auto add = [&](const std::string& run, const std::string& metric,
                 double base_v, double cur_v, double ratio,
                 DiffStatus status) {
    report.rows.push_back(
        {cur->bench, run, metric, base_v, cur_v, ratio, status});
  };
  auto count_drifted = [&](double base_v, double cur_v) {
    double scale = std::max(std::fabs(base_v), 1e-12);
    return std::fabs(cur_v - base_v) / scale > options.value_rel_tol;
  };

  for (const auto& [run_name, base_run] : base->runs) {
    const RunScalars* cur_run = find_run(*cur, run_name);
    if (!cur_run) {
      if (!options.allow_missing) add(run_name, "*", 0, 0, 0,
                                      DiffStatus::kMissing);
      continue;
    }
    for (const auto& [metric, base_v] : base_run.values) {
      auto it = cur_run->values.find(metric);
      if (it == cur_run->values.end()) {
        if (!options.allow_missing) add(run_name, metric, base_v, 0, 0,
                                        DiffStatus::kMissing);
        continue;
      }
      double cur_v = it->second;
      double ratio = base_v != 0.0 ? cur_v / base_v : 0.0;
      DiffStatus status = DiffStatus::kOk;
      switch (ClassifyMetric(metric)) {
        case MetricClass::kInformational:
          status = DiffStatus::kInfo;
          break;
        case MetricClass::kTimeSeconds:
        case MetricClass::kTimeNanos: {
          double floor = ClassifyMetric(metric) == MetricClass::kTimeNanos
                             ? options.noise_floor_nanos
                             : options.noise_floor_seconds;
          if (base_v < floor && cur_v < floor) {
            status = DiffStatus::kBelowFloor;
          } else if (base_v == 0.0 ||
                     ratio > options.time_threshold) {
            status = DiffStatus::kRegressed;
          } else if (ratio < 1.0 / options.time_threshold) {
            status = DiffStatus::kImproved;
          }
          break;
        }
        case MetricClass::kCount:
          if (count_drifted(base_v, cur_v)) status = DiffStatus::kChanged;
          break;
      }
      add(run_name, metric, base_v, cur_v, ratio, status);
    }
    for (const auto& [metric, cur_v] : cur_run->values) {
      if (base_run.values.find(metric) == base_run.values.end()) {
        add(run_name, metric, 0, cur_v, 0, DiffStatus::kNew);
      }
    }
    // Work counters are counts whatever their name says: gated like
    // the counts in `values`, except the named scheduling-dependent
    // ones, which are reported only.
    for (const auto& [counter, base_v] : base_run.counters) {
      const std::string metric = std::string(kCounterPrefix) + counter;
      auto it = cur_run->counters.find(counter);
      if (it == cur_run->counters.end()) {
        if (!options.allow_missing) add(run_name, metric, base_v, 0, 0,
                                        DiffStatus::kMissing);
        continue;
      }
      double cur_v = it->second;
      DiffStatus status = DiffStatus::kOk;
      if (!IsGatedCounter(counter)) {
        status = DiffStatus::kInfo;
      } else if (count_drifted(base_v, cur_v)) {
        status = DiffStatus::kChanged;
      }
      add(run_name, metric, base_v, cur_v,
          base_v != 0.0 ? cur_v / base_v : 0.0, status);
    }
    for (const auto& [counter, cur_v] : cur_run->counters) {
      if (base_run.counters.find(counter) == base_run.counters.end()) {
        add(run_name, std::string(kCounterPrefix) + counter, 0, cur_v, 0,
            DiffStatus::kNew);
      }
    }
  }
  for (const auto& [run_name, scalars] : cur->runs) {
    if (!find_run(*base, run_name)) {
      add(run_name, "*", 0, 0, 0, DiffStatus::kNew);
    }
  }
  return report;
}

Result<DiffReport> DiffBenchJson(std::string_view baseline_text,
                                 std::string_view current_text,
                                 const DiffOptions& options) {
  auto base = ParseJson(baseline_text);
  if (!base.ok()) return base.status();
  auto cur = ParseJson(current_text);
  if (!cur.ok()) return cur.status();
  return DiffBenchDocs(*base, *cur, options);
}

}  // namespace dtaint::bench

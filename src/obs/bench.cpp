#include "src/obs/bench.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/stopwatch.h"
#include "src/util/json_writer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

namespace dtaint::bench {

namespace {

/// DTAINT_* variables whose presence changes what a bench measures;
/// captured into the env block so a diff across two documents can
/// explain itself.
constexpr const char* kCapturedEnvVars[] = {
    "DTAINT_BENCH_N", "DTAINT_BENCH_WARMUP", "DTAINT_FAULTS",
    "DTAINT_LOG",     "DTAINT_FUZZ_N",
};

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (!value || !*value) return fallback;
  return std::atoi(value);
}

}  // namespace

EnvBlock CaptureEnv() {
  EnvBlock env;
  if (const char* sha = std::getenv("GITHUB_SHA"); sha && *sha) {
    env.git_sha = sha;
  } else {
#ifdef DTAINT_GIT_SHA
    env.git_sha = DTAINT_GIT_SHA;
#else
    env.git_sha = "unknown";
#endif
  }
#if defined(__clang__)
  env.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  env.compiler = std::string("gcc ") + __VERSION__;
#else
  env.compiler = "unknown";
#endif
#ifdef DTAINT_CXX_FLAGS
  env.compiler_flags = DTAINT_CXX_FLAGS;
#endif
#ifdef DTAINT_BUILD_TYPE
  env.build_type = DTAINT_BUILD_TYPE;
#endif
#if defined(__unix__) || defined(__APPLE__)
  utsname uts{};
  if (uname(&uts) == 0) {
    env.os = std::string(uts.sysname) + " " + uts.machine;
  }
#endif
  if (env.os.empty()) env.os = "unknown";
  env.cpu_count = std::thread::hardware_concurrency();
  for (const char* name : kCapturedEnvVars) {
    if (const char* value = std::getenv(name)) env.env[name] = value;
  }
  return env;
}

void RecordPhaseSeconds(Rep& rep, const obs::MetricsSnapshot& metrics,
                        double total_seconds) {
  constexpr std::string_view kPrefix = "phase.", kSuffix = "_micros";
  double phases = 0.0;
  for (const auto& [name, histogram] : metrics.histograms) {
    std::string_view phase = name;
    if (histogram.count == 0 || !phase.starts_with(kPrefix) ||
        !phase.ends_with(kSuffix)) {
      continue;
    }
    phase = phase.substr(kPrefix.size(),
                         phase.size() - kPrefix.size() - kSuffix.size());
    double seconds = static_cast<double>(histogram.sum) * 1e-6;
    rep.Value(std::string(phase) + "_seconds", seconds);
    phases += seconds;
  }
  rep.Value("phase_coverage_ratio",
            total_seconds > 0 ? phases / total_seconds : 0.0);
}

Harness::Harness(std::string name, int argc, char** argv)
    : name_(std::move(name)),
      now_([] {
        static const obs::Stopwatch epoch;
        return epoch.Seconds();
      }),
      registry_(&obs::MetricsRegistry::Global()) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0) {
      json_out_ = argv[i + 1];
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps_override_ = std::atoi(argv[i + 1]);
    }
  }
  if (reps_override_ <= 0) reps_override_ = EnvInt("DTAINT_BENCH_N", 0);
  warmup_override_ = EnvInt("DTAINT_BENCH_WARMUP", -1);
}

int Harness::RepsFor(int default_reps) const {
  int reps = reps_override_ > 0 ? reps_override_ : default_reps;
  return std::max(reps, 1);
}

const RunResult& Harness::Run(std::string run_name, const RunOptions& opts,
                              const std::function<void(Rep&)>& body) {
  int reps = RepsFor(opts.reps);
  int warmup = warmup_override_ >= 0 ? warmup_override_ : opts.warmup;

  for (int i = 0; i < warmup; ++i) {
    Rep rep;
    body(rep);
  }

  struct Measured {
    double wall = 0.0;
    Rep rep;
    obs::MetricsSnapshot delta;
  };
  std::vector<Measured> measured(static_cast<size_t>(reps));
  for (Measured& m : measured) {
    obs::MetricsSnapshot before = registry_->Snapshot();
    double t0 = now_();
    body(m.rep);
    m.wall = now_() - t0;
    m.delta = registry_->Snapshot().DeltaSince(before);
  }

  // Median by the key metric; reps that didn't record it rank by wall
  // clock. Stable sort keeps rep order deterministic on ties (the fake
  // clock in the test suite produces exact ties on purpose).
  auto key = [&](const Measured& m) {
    auto it = m.rep.values_.find(opts.median_key);
    return it != m.rep.values_.end() ? it->second : m.wall;
  };
  std::vector<size_t> order(measured.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) {
                     return key(measured[a]) < key(measured[b]);
                   });
  const Measured& median = measured[order[order.size() / 2]];

  RunResult result;
  result.name = std::move(run_name);
  result.reps = reps;
  result.warmup = warmup;
  result.median_key = opts.median_key;
  result.wall_seconds = median.wall;
  result.wall_min = median.wall;
  result.wall_max = median.wall;
  for (const Measured& m : measured) {
    result.wall_min = std::min(result.wall_min, m.wall);
    result.wall_max = std::max(result.wall_max, m.wall);
  }
  result.values = median.rep.values_;
  result.metrics = median.delta;
  runs_.push_back(std::move(result));
  return runs_.back();
}

const RunResult& Harness::AddExternalRun(
    std::string run_name, double wall_seconds,
    std::map<std::string, double, std::less<>> values) {
  RunResult result;
  result.name = std::move(run_name);
  result.reps = 1;
  result.median_key = "wall_seconds";
  result.wall_seconds = wall_seconds;
  result.wall_min = wall_seconds;
  result.wall_max = wall_seconds;
  result.values = std::move(values);
  runs_.push_back(std::move(result));
  return runs_.back();
}

void Harness::Note(std::string note) { notes_.push_back(std::move(note)); }

std::string Harness::ToJson(bool ok) const {
  EnvBlock env = CaptureEnv();
  JsonBuilder json;
  json.BeginObject();
  json.Key("schema_version");
  json.Number(static_cast<uint64_t>(kBenchSchemaVersion));
  json.Key("bench");
  json.String(name_);
  json.Key("ok");
  json.Bool(ok);

  json.Key("env");
  json.BeginObject();
  json.Key("git_sha");
  json.String(env.git_sha);
  json.Key("compiler");
  json.String(env.compiler);
  json.Key("compiler_flags");
  json.String(env.compiler_flags);
  json.Key("build_type");
  json.String(env.build_type);
  json.Key("os");
  json.String(env.os);
  json.Key("cpu_count");
  json.Number(static_cast<uint64_t>(env.cpu_count));
  json.Key("env");
  json.BeginObject();
  for (const auto& [name, value] : env.env) {
    json.Key(name);
    json.String(value);
  }
  json.EndObject();
  json.EndObject();

  json.Key("notes");
  json.BeginArray();
  for (const std::string& note : notes_) json.String(note);
  json.EndArray();

  json.Key("runs");
  json.BeginArray();
  for (const RunResult& run : runs_) {
    json.BeginObject();
    json.Key("name");
    json.String(run.name);
    json.Key("reps");
    json.Number(static_cast<uint64_t>(run.reps));
    json.Key("warmup");
    json.Number(static_cast<uint64_t>(run.warmup));
    json.Key("median_key");
    json.String(run.median_key);
    json.Key("wall_seconds");
    json.Number(run.wall_seconds);
    json.Key("wall_min");
    json.Number(run.wall_min);
    json.Key("wall_max");
    json.Number(run.wall_max);
    json.Key("values");
    json.BeginObject();
    for (const auto& [name, value] : run.values) {
      json.Key(name);
      json.Number(value);
    }
    json.EndObject();
    json.Key("metrics");
    json.Raw(obs::MetricsSnapshotToJson(run.metrics));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return std::move(json).Take();
}

int Harness::Finish(bool ok) {
  int rc = ok ? 0 : 1;
  if (!json_out_.empty()) {
    std::ofstream out(json_out_, std::ios::trunc);
    out << ToJson(ok) << '\n';
    if (!out.good()) {
      DTAINT_LOG(obs::LogLevel::kError, "bench",
                 "cannot write bench json to %s", json_out_.c_str());
      rc = 2;
    } else {
      std::printf("bench json: %s\n", json_out_.c_str());
    }
  }
  return rc;
}

int Harness::Fail(std::string_view what, const Status& status) {
  std::printf("%.*s failed: %s\n", static_cast<int>(what.size()), what.data(),
              status.ToString().c_str());
  return Finish(false);
}

void Harness::SetClockForTest(std::function<double()> now_seconds) {
  now_ = std::move(now_seconds);
}

void Harness::SetRegistryForTest(obs::MetricsRegistry* registry) {
  registry_ = registry;
}

}  // namespace dtaint::bench

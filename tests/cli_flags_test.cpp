// Tests for the tools' shared flag parser (src/core/cli_flags.h):
// well-formed argv fills DTaintConfig and the cache/observability
// outputs; an unknown flag, a missing value, or a non-numeric,
// negative or trailing-garbage number is an error naming the flag —
// and corpus_scan, scan_report and bench_diff turn that error into
// exit code 2. dtaint_cli's scan exit codes (0 clean, 1 failed, 2
// usage, 3 findings, 4 incomplete under --fail-fast) are pinned too.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "src/core/cli_flags.h"
#include "src/obs/bench.h"
#include "src/util/json.h"

namespace dtaint {
namespace {

/// argv adapter: FlagSet::Parse takes char**, tests write string lists.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (std::string& arg : storage) ptrs.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

/// Parses `args` with the shared scan + observability flags plus one
/// CLI-specific switch and one CLI-specific integer.
struct Parsed {
  ScanFlags scan;
  ObsFlags obs;
  bool json = false;
  int workers = 1;
  std::vector<std::string> positional;
  std::string error;
  bool ok = false;
};

Parsed ParseArgs(std::vector<std::string> args) {
  Parsed out;
  FlagSet flags;
  AddScanFlags(flags, &out.scan);
  AddObsFlags(flags, &out.obs);
  flags.Switch("--json", &out.json);
  flags.Int("--workers", &out.workers);
  Argv argv(std::move(args));
  out.ok = flags.Parse(argv.argc(), argv.argv(), &out.positional, &out.error);
  return out;
}

TEST(CliFlags, DefaultsWithoutFlags) {
  Parsed p = ParseArgs({"image.dtfw"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.positional, std::vector<std::string>{"image.dtfw"});
  EXPECT_EQ(p.scan.config.interproc.num_threads, 1);
  EXPECT_TRUE(p.scan.config.enable_alias);
  EXPECT_FALSE(p.scan.config.interproc.budget.limited());
  EXPECT_TRUE(p.scan.cache_dir.empty());
  EXPECT_FALSE(p.obs.log_level.has_value());
  EXPECT_TRUE(p.obs.metrics_out.empty());
  EXPECT_FALSE(p.json);
}

TEST(CliFlags, SharedFlagsFillConfigAndOutputs) {
  Parsed p = ParseArgs(
      {"--threads", "8", "--cache-dir", "cdir",
       "--deadline-ms", "12.5", "--max-steps", "1000", "--max-states", "7",
       "--max-expr-nodes", "18446744073709551615", "--log-level", "debug",
       "--metrics-out", "m.json", "--events-out", "e.ndjson", "fw.dtfw",
       "--json", "--workers", "0"});
  ASSERT_TRUE(p.ok) << p.error;
  const InterprocConfig& ip = p.scan.config.interproc;
  EXPECT_EQ(ip.num_threads, 8);
  EXPECT_EQ(p.scan.cache_dir, "cdir");
  EXPECT_DOUBLE_EQ(ip.budget.deadline_ms, 12.5);
  EXPECT_EQ(ip.budget.max_steps, 1000u);
  EXPECT_EQ(ip.budget.max_states, 7u);
  EXPECT_EQ(ip.budget.max_expr_nodes, UINT64_MAX);
  ASSERT_TRUE(p.obs.log_level.has_value());
  EXPECT_EQ(*p.obs.log_level, obs::LogLevel::kDebug);
  EXPECT_EQ(p.obs.metrics_out, "m.json");
  EXPECT_EQ(p.obs.events_out, "e.ndjson");
  EXPECT_EQ(p.positional, std::vector<std::string>{"fw.dtfw"});
  EXPECT_TRUE(p.json);
  EXPECT_EQ(p.workers, 0);
}

TEST(CliFlags, ValueFlagTakesTheNextArgumentVerbatim) {
  // A path that looks like a flag is still the value, not a flag.
  Parsed p = ParseArgs({"--metrics-out", "--json"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.obs.metrics_out, "--json");
  EXPECT_FALSE(p.json);
}

TEST(CliFlags, BadValuesAreRejectedNamingTheFlag) {
  const std::vector<std::vector<std::string>> bad = {
      {"--threads", "abc"},        {"--threads", "-3"},
      {"--threads", "4x"},         {"--threads", ""},
      {"--threads", "99999999999"},  // beyond int
      {"--workers", "-3"},         {"--max-steps", "1e3"},
      {"--max-steps", "+5"},       {"--max-states", " 5"},
      {"--max-expr-nodes", "18446744073709551616"},  // beyond uint64
      {"--deadline-ms", "-1"},     {"--deadline-ms", "1.5ms"},
      {"--deadline-ms", "inf"},    {"--deadline-ms", "nan"},
      {"--log-level", "loud"},
  };
  for (const std::vector<std::string>& args : bad) {
    Parsed p = ParseArgs(args);
    EXPECT_FALSE(p.ok) << args[0] << " '" << args[1] << "' was accepted";
    EXPECT_NE(p.error.find(args[0]), std::string::npos) << p.error;
  }
}

/// A typo, and a flag that no longer exists (alias is on unless a CLI's
/// --no-alias turns it off).
const char* const kUnknownFlags[] = {"--theads", "--alias-mode"};

TEST(CliFlags, UnknownAndValuelessFlagsAreRejected) {
  for (const char* flag : kUnknownFlags) {
    Parsed unknown = ParseArgs({flag, "4"});
    EXPECT_FALSE(unknown.ok) << flag;
    EXPECT_NE(unknown.error.find(flag), std::string::npos) << unknown.error;
  }

  Parsed missing = ParseArgs({"image.dtfw", "--threads"});
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("--threads"), std::string::npos)
      << missing.error;
}

TEST(CliFlags, SwitchCanClearAFlag) {
  FlagSet flags;
  bool enabled = true;
  flags.Switch("--no-thing", &enabled, false);
  Argv argv({"--no-thing"});
  std::vector<std::string> positional;
  std::string error;
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv(), &positional, &error))
      << error;
  EXPECT_FALSE(enabled);
}

TEST(CliFlags, CorpusScanExitsTwoOnUnknownFlag) {
  const char* bin = std::getenv("DTAINT_CORPUS_SCAN_BIN");
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  for (const char* flag : kUnknownFlags) {
    std::string cmd = "\"";
    cmd += bin;
    cmd += "\" ";
    cmd += flag;
    cmd += " 4 > /dev/null 2>&1";
    int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << flag;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flag;
  }
}

/// Runs `command` through the shell; returns its exit code (-1 when it
/// did not exit normally) and sets *output to its stdout and stderr.
int RunTool(const std::string& command, std::string* output) {
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return -1;
  output->clear();
  char buf[256];
  while (size_t n = std::fread(buf, 1, sizeof(buf), pipe)) {
    output->append(buf, n);
  }
  int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliFlags, CorpusScanRefusesWorkerLimitsWithoutWorkers) {
  const char* bin = std::getenv("DTAINT_CORPUS_SCAN_BIN");
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  // The watchdog and the address-space cap act on forked workers; in
  // process (--workers 0, the default) nothing could enforce them.
  const struct {
    const char* args;
    const char* flag;
  } bad[] = {
      {"--workers -1", "--workers"},
      {"--image-timeout-ms 300", "--image-timeout-ms"},
      {"--workers 0 --mem-limit-mb 512", "--mem-limit-mb"},
  };
  std::string output;
  for (const auto& [args, flag] : bad) {
    EXPECT_EQ(RunTool(std::string("\"") + bin + "\" " + args, &output), 2)
        << args;
    EXPECT_NE(output.find(flag), std::string::npos) << args << ": " << output;
  }
}

TEST(CliFlags, CorpusScanResumeNeedsTheEventStream) {
  const char* bin = std::getenv("DTAINT_CORPUS_SCAN_BIN");
  if (!bin) GTEST_SKIP() << "DTAINT_CORPUS_SCAN_BIN not set";
  // The event stream is the one record a resume replays.
  std::string output;
  EXPECT_EQ(RunTool(std::string("\"") + bin + "\" --resume", &output), 2);
  EXPECT_NE(output.find("--events-out"), std::string::npos) << output;
}

TEST(CliFlags, ScanReportAndBenchDiffExitTwoNamingTheFlag) {
  const char* scan_report = std::getenv("DTAINT_SCAN_REPORT_BIN");
  const char* bench_diff = std::getenv("DTAINT_BENCH_DIFF_BIN");
  if (!scan_report || !bench_diff) {
    GTEST_SKIP() << "DTAINT_SCAN_REPORT_BIN/DTAINT_BENCH_DIFF_BIN not set";
  }
  // An event stream and a BENCH document the tools accept.
  const std::string events = "cli_flags_test_events.ndjson";
  std::ofstream(events) << "{\"v\":1,\"type\":\"stream_begin\",\"ts_ms\":0,"
                           "\"tid\":0}\n";
  const std::string doc = "cli_flags_test_BENCH.json";
  {
    bench::Harness harness("cli_flags_test");
    harness.Run("run", [](bench::Rep& rep) { rep.Value("items", 1); });
    std::ofstream(doc) << harness.ToJson(true) << '\n';
  }
  const std::string report = std::string("\"") + scan_report + "\" ";
  const std::string diff =
      std::string("\"") + bench_diff + "\" " + doc + " " + doc + " ";

  const struct {
    std::string command;
    std::string message;
  } bad[] = {
      {report + "--top", "--top needs a value"},
      {report + "--top abc " + events, "bad --top: 'abc'"},
      {report + "--chrome-trace", "--chrome-trace needs a value"},
      {report + "--frobnicate " + events, "unknown flag --frobnicate"},
      {diff + "--threshold", "--threshold needs a value"},
      {diff + "--threshold abc", "bad --threshold: 'abc'"},
      {diff + "--threshold 4x", "bad --threshold: '4x'"},
      {diff + "--noise-floor 0.1s", "bad --noise-floor: '0.1s'"},
      {diff + "--rel-tol -1", "bad --rel-tol: '-1'"},
      {diff + "--frobnicate", "unknown flag --frobnicate"},
  };
  std::string output;
  for (const auto& [command, message] : bad) {
    EXPECT_EQ(RunTool(command, &output), 2) << command;
    EXPECT_NE(output.find(message), std::string::npos)
        << command << ": " << output;
  }
  // Well-formed flags still parse, the CI bench gate's included.
  EXPECT_EQ(RunTool(report + "--top 3 " + events, &output), 0) << output;
  EXPECT_EQ(RunTool(diff + "--threshold 4.0 --noise-floor 0.1", &output), 0)
      << output;
  std::remove(events.c_str());
  std::remove(doc.c_str());
}

TEST(CliFlags, DtaintCliScanExitCodes) {
  const char* bin = std::getenv("DTAINT_CLI_BIN");
  if (!bin) GTEST_SKIP() << "DTAINT_CLI_BIN not set";
  const std::string cli = std::string("\"") + bin + "\" ";
  const std::string vulnerable = "cli_flags_test_vulnerable.dtfw";
  const std::string clean = "cli_flags_test_clean.dtfw";
  const std::string encrypted = "cli_flags_test_encrypted.dtfw";
  const std::string json = "cli_flags_test_report.json";
  std::string output;
  ASSERT_EQ(RunTool(cli + "synth " + vulnerable, &output), 0) << output;
  ASSERT_EQ(RunTool(cli + "synth " + clean + " --vulns 0 --safe 1", &output),
            0)
      << output;
  ASSERT_EQ(
      RunTool(cli + "synth " + encrypted + " --packing encrypted", &output), 0)
      << output;

  const struct {
    std::string args;
    int exit_code;
  } cases[] = {
      {"scan " + vulnerable, 3},
      {"scan " + clean, 0},
      {"scan " + encrypted, 1},
      {"scan cli_flags_test_missing.dtfw", 1},
      {"scan", 2},
      {"scan " + vulnerable + " --fail-fast --max-steps 1", 4},
  };
  for (const auto& [args, exit_code] : cases) {
    EXPECT_EQ(RunTool(cli + args, &output), exit_code) << args << ": "
                                                       << output;
  }

  // --json keeps stdout one parseable report.
  EXPECT_EQ(RunTool(cli + "scan " + vulnerable + " --json > " + json, &output),
            3)
      << output;
  std::ifstream in(json);
  std::string report((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  auto parsed = ParseJson(report);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << report;
  ASSERT_TRUE(parsed->is_object());
  EXPECT_NE(parsed->Find("findings"), nullptr);
  for (const std::string& file : {vulnerable, clean, encrypted, json}) {
    std::remove(file.c_str());
  }
}

}  // namespace
}  // namespace dtaint

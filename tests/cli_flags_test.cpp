// Tests for the scanners' shared flag parser (src/core/cli_flags.h):
// well-formed argv fills DTaintConfig and the cache/observability
// outputs; an unknown flag, a missing value, or a non-numeric,
// negative or trailing-garbage number is an error naming the flag —
// and corpus_scan turns that error into exit code 2.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "src/core/cli_flags.h"

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
  EXPECT_EQ(p.scan.config.interproc.alias_mode, AliasMode::kEager);
  EXPECT_FALSE(p.scan.config.interproc.budget.limited());
  EXPECT_TRUE(p.scan.cache_dir.empty());
  EXPECT_FALSE(p.obs.log_level.has_value());
  EXPECT_TRUE(p.obs.trace_out.empty());
  EXPECT_FALSE(p.json);
}

TEST(CliFlags, SharedFlagsFillConfigAndOutputs) {
  Parsed p = ParseArgs(
      {"--threads", "8", "--alias-mode", "ondemand", "--cache-dir", "cdir",
       "--deadline-ms", "12.5", "--max-steps", "1000", "--max-states", "7",
       "--max-expr-nodes", "18446744073709551615", "--log-level", "debug",
       "--trace-out", "t.json", "--metrics-out", "m.json", "--events-out",
       "e.ndjson", "fw.dtfw", "--json", "--workers", "0"});
  ASSERT_TRUE(p.ok) << p.error;
  const InterprocConfig& ip = p.scan.config.interproc;
  EXPECT_EQ(ip.num_threads, 8);
  EXPECT_EQ(ip.alias_mode, AliasMode::kOnDemandSSE);
  EXPECT_EQ(p.scan.cache_dir, "cdir");
  EXPECT_DOUBLE_EQ(ip.budget.deadline_ms, 12.5);
  EXPECT_EQ(ip.budget.max_steps, 1000u);
  EXPECT_EQ(ip.budget.max_states, 7u);
  EXPECT_EQ(ip.budget.max_expr_nodes, UINT64_MAX);
  ASSERT_TRUE(p.obs.log_level.has_value());
  EXPECT_EQ(*p.obs.log_level, obs::LogLevel::kDebug);
  EXPECT_EQ(p.obs.trace_out, "t.json");
  EXPECT_EQ(p.obs.metrics_out, "m.json");
  EXPECT_EQ(p.obs.events_out, "e.ndjson");
  EXPECT_EQ(p.positional, std::vector<std::string>{"fw.dtfw"});
  EXPECT_TRUE(p.json);
  EXPECT_EQ(p.workers, 0);
}

TEST(CliFlags, ValueFlagTakesTheNextArgumentVerbatim) {
  // A path that looks like a flag is still the value, not a flag.
  Parsed p = ParseArgs({"--trace-out", "--json"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.obs.trace_out, "--json");
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
      {"--alias-mode", "lazy"},    {"--log-level", "loud"},
  };
  for (const std::vector<std::string>& args : bad) {
    Parsed p = ParseArgs(args);
    EXPECT_FALSE(p.ok) << args[0] << " '" << args[1] << "' was accepted";
    EXPECT_NE(p.error.find(args[0]), std::string::npos) << p.error;
  }
}

TEST(CliFlags, UnknownAndValuelessFlagsAreRejected) {
  Parsed unknown = ParseArgs({"--theads", "4"});
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("--theads"), std::string::npos)
      << unknown.error;

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
  std::string cmd = "\"";
  cmd += bin;
  cmd += "\" --theads 4 > /dev/null 2>&1";
  int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

}  // namespace
}  // namespace dtaint

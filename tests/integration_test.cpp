// End-to-end pipeline tests: synthesize -> pack -> extract -> load ->
// analyze -> score against planted ground truth.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/binary/loader.h"
#include "src/binary/writer.h"
#include "src/core/dtaint.h"
#include "src/core/scan_image.h"
#include "src/firmware/extractor.h"
#include "src/firmware/packer.h"
#include "src/report/json.h"
#include "src/report/scoring.h"
#include "src/synth/firmware_synth.h"
#include "src/synth/paper_images.h"

namespace dtaint {
namespace {

/// Synthesizes a one-plant program and returns the analysis report.
struct PlantRun {
  AnalysisReport report;
  std::vector<PlantedVuln> ground_truth;
};

PlantRun RunPlant(PlantSpec plant, Arch arch = Arch::kDtArm,
                  DTaintConfig config = {}) {
  ProgramSpec spec;
  spec.name = "t";
  spec.arch = arch;
  spec.seed = 99;
  spec.filler_functions = 3;
  spec.plants = {std::move(plant)};
  auto out = SynthesizeBinary(spec);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  DTaint detector(config);
  auto report = detector.Analyze(out->binary);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return {std::move(*report), out->ground_truth};
}

PlantSpec MakePlant(const std::string& id, VulnPattern pattern,
                    const std::string& source, const std::string& sink,
                    bool sanitized = false, int extra = 0) {
  PlantSpec p;
  p.id = id;
  p.pattern = pattern;
  p.source = source;
  p.sink = sink;
  p.sanitized = sanitized;
  p.extra_callers = extra;
  return p;
}

void ExpectDetected(const PlantRun& run, const std::string& id) {
  DetectionScore score = ScoreFindings(run.report.findings,
                                       run.ground_truth);
  EXPECT_EQ(score.true_positives, 1u)
      << id << ": missed=" << (score.missed_ids.empty()
                                   ? "none"
                                   : score.missed_ids[0])
      << " findings=" << run.report.findings.size();
  EXPECT_EQ(score.safe_twin_hits, 0u) << id;
}

void ExpectClean(const PlantRun& run, const std::string& id) {
  DetectionScore score =
      ScoreFindings(run.report.findings, run.ground_truth);
  EXPECT_EQ(score.safe_twin_hits, 0u) << id << " (sanitized twin fired)";
  EXPECT_EQ(run.report.findings.size(), 0u) << id;
}

// ---- every pattern, vulnerable form, both architectures -------------------

struct PatternCase {
  VulnPattern pattern;
  const char* source;
  const char* sink;
};

class PatternDetection
    : public ::testing::TestWithParam<std::tuple<PatternCase, Arch>> {};

TEST_P(PatternDetection, VulnerableFormIsDetected) {
  const auto& [c, arch] = GetParam();
  PlantRun run =
      RunPlant(MakePlant("p1", c.pattern, c.source, c.sink), arch);
  ExpectDetected(run, std::string(c.source) + "->" + c.sink);
}

TEST_P(PatternDetection, SanitizedTwinIsSilent) {
  const auto& [c, arch] = GetParam();
  PlantRun run = RunPlant(
      MakePlant("p1", c.pattern, c.source, c.sink, /*sanitized=*/true),
      arch);
  ExpectClean(run, std::string(c.source) + "->" + c.sink + " (safe)");
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, PatternDetection,
    ::testing::Combine(
        ::testing::Values(
            PatternCase{VulnPattern::kDirect, "getenv", "system"},
            PatternCase{VulnPattern::kDirect, "getenv", "strcpy"},
            PatternCase{VulnPattern::kDirect, "getenv", "sprintf"},
            PatternCase{VulnPattern::kDirect, "recv", "memcpy"},
            PatternCase{VulnPattern::kDirect, "read", "strncpy"},
            PatternCase{VulnPattern::kDirect, "read", "sscanf"},
            PatternCase{VulnPattern::kDirect, "websGetVar", "system"},
            PatternCase{VulnPattern::kDirect, "find_var", "popen"},
            PatternCase{VulnPattern::kDirect, "fgets", "strcat"},
            PatternCase{VulnPattern::kWrapper, "recv", "strcpy"},
            PatternCase{VulnPattern::kWrapper, "getenv", "system"},
            PatternCase{VulnPattern::kWrapper, "read", "sscanf"},
            PatternCase{VulnPattern::kAliasChain, "recv", "strcpy"},
            PatternCase{VulnPattern::kAliasChain, "recv", "memcpy"},
            PatternCase{VulnPattern::kAliasChain, "recv", "system"},
            PatternCase{VulnPattern::kDispatch, "recv", "memcpy"},
            PatternCase{VulnPattern::kLoopCopy, "recv", "loop"},
            PatternCase{VulnPattern::kLoopCopy, "read", "loop"}),
        ::testing::Values(Arch::kDtArm, Arch::kDtMips)));

// ---- feature ablations -----------------------------------------------------

TEST(Ablation, DispatchNeedsStructSim) {
  DTaintConfig no_structsim;
  no_structsim.enable_structsim = false;
  PlantRun off = RunPlant(
      MakePlant("p1", VulnPattern::kDispatch, "recv", "memcpy"),
      Arch::kDtArm, no_structsim);
  DetectionScore score =
      ScoreFindings(off.report.findings, off.ground_truth);
  EXPECT_EQ(score.true_positives, 0u)
      << "dispatch plant should be invisible without structure "
         "similarity";
}

// ---- multiple paths --------------------------------------------------------

TEST(MultiPath, ExtraSourcesYieldExtraPaths) {
  PlantRun run = RunPlant(
      MakePlant("p1", VulnPattern::kWrapper, "getenv", "system", false,
                /*extra=*/2));
  ExpectDetected(run, "multi-path wrapper");
  // One vulnerability, several source->sink paths.
  EXPECT_GE(run.report.vulnerable_paths, 3u);
}

// ---- whole firmware round trip ---------------------------------------------

TEST(FirmwarePipeline, PackExtractAnalyze) {
  FirmwareSpec spec;
  spec.vendor = "TestVendor";
  spec.product = "TV-1";
  spec.binary_path = "/bin/cgi";
  spec.program.name = "cgi";
  spec.program.arch = Arch::kDtMips;
  spec.program.seed = 5;
  spec.program.filler_functions = 10;
  spec.program.plants = {
      MakePlant("fw1", VulnPattern::kDirect, "getenv", "system"),
      MakePlant("fw2", VulnPattern::kDirect, "getenv", "system", true),
  };
  auto fw = SynthesizeFirmware(spec);
  ASSERT_TRUE(fw.ok()) << fw.status().ToString();

  std::vector<uint8_t> blob = FirmwarePacker::Pack(fw->image);
  auto extracted = FirmwareExtractor::Extract(blob);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  // The only executable, /bin/cgi, is the one an empty path picks.
  EXPECT_EQ(std::ranges::count_if(extracted->image.files,
                                  [](const FirmwareFile& f) {
                                    return BinaryLoader::LooksLikeBinary(
                                        f.bytes);
                                  }),
            1);
  auto binary = LoadImageBinary(extracted->image, "", "fw");
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(binary->soname, "cgi");

  DTaint detector;
  auto report = detector.Analyze(*binary);
  ASSERT_TRUE(report.ok());
  DetectionScore score =
      ScoreFindings(report->findings, fw->ground_truth);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.safe_twin_hits, 0u);
}

// ---- the six paper images --------------------------------------------------

TEST(PaperImages, AllSixBuildAndDetectEverything) {
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    SCOPED_TRACE(spec.firmware.vendor + " " + spec.firmware.product);
    auto fw = BuildPaperImage(spec);
    ASSERT_TRUE(fw.ok()) << fw.status().ToString();
    const FirmwareFile* file =
        fw->image.FindFile(spec.firmware.binary_path);
    ASSERT_NE(file, nullptr);
    auto binary = BinaryLoader::Load(file->bytes);
    ASSERT_TRUE(binary.ok()) << binary.status().ToString();

    DTaint detector;
    auto report = detector.Analyze(*binary);
    ASSERT_TRUE(report.ok());
    DetectionScore score =
        ScoreFindings(report->findings, fw->ground_truth);
    size_t planted = 0;
    for (const PlantedVuln& v : fw->ground_truth) {
      if (!v.sanitized) ++planted;
    }
    EXPECT_EQ(score.true_positives, planted)
        << "missed: "
        << (score.missed_ids.empty() ? "none" : score.missed_ids[0]);
    EXPECT_EQ(score.safe_twin_hits, 0u);
    EXPECT_EQ(score.false_positives, 0u);
  }
}

}  // namespace
}  // namespace dtaint

// ---- paper-count consistency (appended) --------------------------------------

namespace dtaint {
namespace {

TEST(PaperImages, VulnerabilityCountsMatchTableThree) {
  // Table III's vulnerability column: 4, 2, 6, 2, 1, 6 (total 21);
  // Tables IV/V: 8 previously-known + 13 zero-days.
  const int expected[] = {4, 2, 6, 2, 1, 6};
  int idx = 0;
  int total = 0;
  for (const PaperImageSpec& spec : PaperImageSpecs()) {
    SCOPED_TRACE(spec.firmware.product);
    auto fw = BuildPaperImage(spec);
    ASSERT_TRUE(fw.ok());
    const FirmwareFile* file =
        fw->image.FindFile(spec.firmware.binary_path);
    auto binary = BinaryLoader::Load(file->bytes);
    DTaint detector;
    auto report = detector.AnalyzeFunctions(*binary, spec.focus);
    ASSERT_TRUE(report.ok());
    DetectionScore score =
        ScoreFindings(report->findings, fw->ground_truth);
    EXPECT_EQ(score.true_positives,
              static_cast<size_t>(expected[idx]));
    total += static_cast<int>(score.true_positives);
    ++idx;
  }
  EXPECT_EQ(total, 21);  // the paper's headline number
}

}  // namespace
}  // namespace dtaint

// ---- summarize once (appended) ----------------------------------------------

namespace dtaint {
namespace {

/// The facade's call sequence before summaries were reused: the whole
/// bottom-up pass (summarize + link) run again after structure
/// similarity resolves indirect calls. Returns the reported findings.
std::vector<Finding> TwoPassFindings(const Binary& binary,
                                     const std::vector<std::string>& focus) {
  Program program = CfgBuilder(binary).BuildProgram().value();
  std::set<std::string> keep;
  std::vector<std::string> work(focus.begin(), focus.end());
  for (const std::string& name : AddressTakenFunctions(program)) {
    work.push_back(name);
  }
  while (!work.empty()) {
    std::string name = std::move(work.back());
    work.pop_back();
    if (!program.functions.count(name) || !keep.insert(name).second) continue;
    for (const CallSite& cs : program.functions.at(name).callsites) {
      if (!cs.is_indirect && !cs.target_is_import && !cs.target_name.empty()) {
        work.push_back(cs.target_name);
      }
    }
  }
  std::erase_if(program.functions,
                [&](const auto& entry) { return !keep.count(entry.first); });
  SymEngine engine(binary);
  ProgramAnalysis analysis =
      RunBottomUp(program, CallGraph::Build(program), engine);
  EXPECT_FALSE(ResolveIndirectCalls(program, analysis.summaries).empty());
  analysis = RunBottomUp(program, CallGraph::Build(program), engine);
  PathFinder finder(program, analysis);
  std::vector<Finding> findings;
  for (TaintPath& path : FilterVulnerable(finder.FindAll())) {
    if (!path.crossed_degraded) findings.push_back({std::move(path)});
  }
  return findings;
}

TEST(PaperImages, HikvisionSummarizesEachAnalyzedFunctionOnce) {
  // The centaurus image is scanned by its focus list, and structure
  // similarity resolves indirect calls in it, so its summaries are
  // linked twice. Each analysed function is still summarized — and its
  // IR lifted — exactly once, and the out-of-focus ones never.
  PaperImageSpec spec = PaperImageSpecs().back();
  ASSERT_EQ(spec.firmware.vendor, "Hikvision");
  auto fw = BuildPaperImage(spec);
  ASSERT_TRUE(fw.ok());
  auto binary =
      BinaryLoader::Load(fw->image.FindFile(spec.firmware.binary_path)->bytes);
  ASSERT_TRUE(binary.ok());
  auto report = DTaint().AnalyzeFunctions(*binary, spec.focus);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->indirect_calls_resolved, 0u);
  EXPECT_EQ(report->analyzed_functions, 323u);
  EXPECT_GT(report->functions, report->analyzed_functions);
  EXPECT_EQ(report->interproc_stats.functions_processed,
            report->analyzed_functions);
  EXPECT_EQ(report->metrics.CounterValue("summary.functions"),
            report->analyzed_functions);
  EXPECT_EQ(report->metrics.CounterValue("lift.ir_functions"),
            report->analyzed_functions);
  EXPECT_EQ(FindingsToJson(report->findings),
            FindingsToJson(TwoPassFindings(*binary, spec.focus)));
}

}  // namespace
}  // namespace dtaint

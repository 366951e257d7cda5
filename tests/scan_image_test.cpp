// Tests for the image-scan entry point (src/core/scan_image.h): each
// kind of image maps to the status, row and incident corpus_scan
// reports, a bare DTBIN blob skips extraction, an empty binary path
// picks the first executable, and the event stream nests
// image > extract, load, binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/scan_image.h"
#include "src/firmware/packer.h"
#include "src/obs/events.h"
#include "src/resilience/fault.h"
#include "src/synth/firmware_synth.h"
#include "src/util/json.h"

namespace dtaint {
namespace {

namespace fs = std::filesystem;

constexpr const char* kLabel = "Acme RT-1";

FirmwareSpec SmallSpec(Packing packing = Packing::kPlain) {
  FirmwareSpec spec;
  spec.product = "RT-1";
  spec.packing = packing;
  spec.program.name = "httpd";
  spec.program.seed = 17;
  spec.program.filler_functions = 4;
  PlantSpec plant;
  plant.id = "p0";
  plant.pattern = VulnPattern::kDirect;
  plant.source = "getenv";
  plant.sink = "system";
  spec.program.plants = {plant};
  return spec;
}

FirmwareSynthOutput Synthesize(const FirmwareSpec& spec) {
  auto fw = SynthesizeFirmware(spec);
  EXPECT_TRUE(fw.ok()) << fw.status().ToString();
  return std::move(*fw);
}

std::vector<uint8_t> SmallBlob(Packing packing = Packing::kPlain) {
  return FirmwarePacker::Pack(Synthesize(SmallSpec(packing)).image);
}

ImageScan Scan(const std::vector<uint8_t>& blob,
               std::string_view binary_path = "/bin/httpd") {
  return ScanImage(blob, binary_path, kLabel, DTaintConfig{});
}

class ScanImageTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultPlan::Global().Clear(); }
};

TEST_F(ScanImageTest, RecoverablePackingsScanOk) {
  for (Packing packing : {Packing::kPlain, Packing::kXor}) {
    SCOPED_TRACE(std::string(PackingName(packing)));
    ImageScan scan = Scan(SmallBlob(packing));
    EXPECT_EQ(scan.outcome.status, "ok");
    EXPECT_EQ(scan.outcome.row, "ok");
    EXPECT_TRUE(scan.error.ok());
    ASSERT_TRUE(scan.report.has_value());
    EXPECT_EQ(scan.report->binary_name, "httpd");
    EXPECT_EQ(scan.report->findings.size(), 1u);
    EXPECT_EQ(scan.outcome.findings, 1u);
    EXPECT_EQ(scan.outcome.functions, scan.report->analyzed_functions);
    EXPECT_EQ(scan.outcome.complete, scan.report->complete);
  }
}

TEST_F(ScanImageTest, UnrecoverablePackingsAreUnextractableWithoutIncident) {
  for (Packing packing : {Packing::kEncrypted, Packing::kUnknown}) {
    SCOPED_TRACE(std::string(PackingName(packing)));
    ImageScan scan = Scan(SmallBlob(packing));
    EXPECT_EQ(scan.outcome.status, "unextractable");
    EXPECT_EQ(scan.outcome.row, "unextractable");
    EXPECT_EQ(scan.error.code(), StatusCode::kUnsupported);
    EXPECT_TRUE(scan.outcome.incidents.empty());
    EXPECT_FALSE(scan.report.has_value());
  }
}

TEST_F(ScanImageTest, FlippedPayloadByteIsAnExtractIncident) {
  std::vector<uint8_t> blob = SmallBlob();
  blob[blob.size() / 2] ^= 0x5A;
  ImageScan scan = Scan(blob);
  EXPECT_EQ(scan.outcome.status, "failed");
  EXPECT_EQ(scan.outcome.row, "FAILED: extract");
  ASSERT_EQ(scan.outcome.incidents.size(), 1u);
  EXPECT_EQ(scan.outcome.incidents[0].binary, kLabel);
  EXPECT_EQ(scan.outcome.incidents[0].phase, "extract");
  EXPECT_EQ(scan.outcome.incidents[0].detail, kLabel);
  EXPECT_EQ(scan.outcome.incidents[0].status.code(),
            StatusCode::kCorruptData);
  EXPECT_EQ(scan.error, scan.outcome.incidents[0].status);
}

TEST_F(ScanImageTest, MissingBinaryIsANotFoundLoadIncident) {
  ImageScan scan = Scan(SmallBlob(), "/bin/nope");
  EXPECT_EQ(scan.outcome.status, "failed");
  EXPECT_EQ(scan.outcome.row, "FAILED: no binary");
  ASSERT_EQ(scan.outcome.incidents.size(), 1u);
  EXPECT_EQ(scan.outcome.incidents[0].phase, "load");
  EXPECT_EQ(scan.outcome.incidents[0].detail, "/bin/nope");
  EXPECT_EQ(scan.outcome.incidents[0].status,
            NotFound("Acme RT-1: no /bin/nope in extracted image"));
}

TEST_F(ScanImageTest, InjectedFaultsFailTheirPhase) {
  const struct {
    std::string spec;
    std::string row;
    std::string phase;
  } cases[] = {
      {std::string("extract@") + kLabel, "FAILED: extract", "extract"},
      // The load site matches the origin, label + binary path.
      {"load@RT-1/bin/httpd", "FAILED: load", "load"},
  };
  for (const auto& [spec, row, phase] : cases) {
    SCOPED_TRACE(spec);
    ASSERT_TRUE(FaultPlan::Global().InstallSpec(spec).ok());
    ImageScan scan = Scan(SmallBlob());
    FaultPlan::Global().Clear();
    EXPECT_EQ(scan.outcome.status, "failed");
    EXPECT_EQ(scan.outcome.row, row);
    ASSERT_EQ(scan.outcome.incidents.size(), 1u);
    EXPECT_EQ(scan.outcome.incidents[0].phase, phase);
    EXPECT_EQ(scan.outcome.incidents[0].status.code(),
              StatusCode::kInternal);
  }
}

TEST_F(ScanImageTest, AnalysisIncidentsCarryTheImageLabel) {
  DTaintConfig config;
  config.interproc.budget.max_steps = 1;
  ImageScan scan =
      ScanImage(SmallBlob(), "/bin/httpd", kLabel, config);
  ASSERT_EQ(scan.outcome.status, "ok");
  ASSERT_FALSE(scan.outcome.incidents.empty());
  ASSERT_EQ(scan.outcome.incidents.size(), scan.report->incidents.size());
  for (size_t i = 0; i < scan.outcome.incidents.size(); ++i) {
    EXPECT_EQ(scan.outcome.incidents[i].binary, kLabel);
    // The report itself keeps the binary's own name.
    EXPECT_EQ(scan.report->incidents[i].binary, "httpd");
    EXPECT_EQ(scan.outcome.incidents[i].detail,
              scan.report->incidents[i].detail);
  }
}

TEST(LoadImageBinary, EmptyPathPicksTheFirstExecutable) {
  FirmwareSpec first = SmallSpec();
  FirmwareSpec second = SmallSpec();
  second.program.name = "second";
  second.binary_path = "/bin/second";
  FirmwareImage image = Synthesize(first).image;
  FirmwareImage other = Synthesize(second).image;
  // A non-executable file first, then httpd, then second.
  image.files.insert(image.files.begin(), {"/etc/motd", {'h', 'i'}});
  image.files.push_back(*other.FindFile("/bin/second"));

  auto binary = LoadImageBinary(image, "", "fw");
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(binary->soname, "httpd");
  auto named = LoadImageBinary(image, "/bin/second", "fw/bin/second");
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  EXPECT_EQ(named->soname, "second");

  EXPECT_EQ(LoadImageBinary(image, "/bin/nope", "fw").status(),
            NotFound("no /bin/nope in extracted image"));
  FirmwareImage empty;
  EXPECT_EQ(LoadImageBinary(empty, "", "fw").status(),
            NotFound("no executable in extracted image"));
}

// ----------------------------------------------------------- event stream

/// The stream's events as "type" or "type:phase" for phase events.
std::vector<std::string> ScanEvents(const std::vector<uint8_t>& blob,
                                    std::string_view binary_path,
                                    ImageScan* scan) {
  fs::create_directories("obs_artifacts");
  const std::string path = "obs_artifacts/scan_image_test.ndjson";
  obs::EventStream& events = obs::EventStream::Global();
  EXPECT_TRUE(events.Open(path, "scan_image_test"));
  *scan = ScanImage(blob, binary_path, kLabel, DTaintConfig{},
                    {{"vendor", "Acme"}, {"product", "RT-1"}});
  events.Close("ok");
  std::ifstream in(path);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    auto event = ParseJson(line);
    EXPECT_TRUE(event.ok()) << line;
    if (!event.ok()) continue;
    std::string type = event->Find("type")->string();
    if (type == "image_begin") {
      EXPECT_EQ(event->Find("image")->string(), kLabel);
      EXPECT_EQ(event->Find("vendor")->string(), "Acme");
      EXPECT_EQ(event->Find("product")->string(), "RT-1");
    }
    if (type.starts_with("phase_")) {
      type += ":" + event->Find("phase")->string();
    }
    out.push_back(std::move(type));
  }
  return out;
}

/// `events` restricted to the image, binary, extract and load events.
std::vector<std::string> ImageLevel(const std::vector<std::string>& events) {
  std::vector<std::string> out;
  for (const std::string& e : events) {
    if (e.starts_with("image_") || e.starts_with("binary_") ||
        e.ends_with(":extract") || e.ends_with(":load")) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(ScanImageEvents, ExtractAndLoadTileTheImageAroundTheBinary) {
  ImageScan scan;
  std::vector<std::string> events =
      ScanEvents(SmallBlob(), "/bin/httpd", &scan);
  EXPECT_EQ(scan.outcome.status, "ok");
  const std::vector<std::string> expected = {
      "image_begin",       "phase_begin:extract", "phase_end:extract",
      "phase_begin:load",  "phase_end:load",      "binary_begin",
      "binary_end",        "image_end"};
  EXPECT_EQ(ImageLevel(events), expected);
  // Every analysis event sits between binary_begin and binary_end.
  auto begin = std::find(events.begin(), events.end(), "binary_begin");
  auto end = std::find(events.begin(), events.end(), "binary_end");
  EXPECT_EQ(std::find(events.begin(), begin, "phase_begin:lift"), begin);
  EXPECT_NE(std::find(begin, end, "phase_begin:lift"), end);
}

TEST(ScanImageEvents, BareBinarySkipsExtract) {
  FirmwareSynthOutput fw = Synthesize(SmallSpec());
  const FirmwareFile* file = fw.image.FindFile("/bin/httpd");
  ASSERT_NE(file, nullptr);
  ImageScan scan;
  std::vector<std::string> events = ScanEvents(file->bytes, "", &scan);
  EXPECT_EQ(scan.outcome.status, "ok");
  ASSERT_TRUE(scan.report.has_value());
  EXPECT_EQ(scan.report->findings.size(), 1u);
  const std::vector<std::string> expected = {
      "image_begin", "phase_begin:load", "phase_end:load",
      "binary_begin", "binary_end",      "image_end"};
  EXPECT_EQ(ImageLevel(events), expected);
}

}  // namespace
}  // namespace dtaint

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/core/scan_image.h"
#include "src/firmware/extractor.h"
#include "src/firmware/packer.h"

namespace dtaint {
namespace {

FirmwareImage TestImage(Packing packing = Packing::kPlain) {
  FirmwareImage image;
  image.vendor = "Acme";
  image.product = "RT-1";
  image.version = "2.0";
  image.release_year = 2015;
  image.arch = Arch::kDtMips;
  image.packing = packing;
  image.files.push_back({"/etc/passwd", {'r', 'o', 'o', 't'}});
  image.files.push_back({"/bin/httpd", {'D', 'T', 'B', '1', 0, 0}});
  image.files.push_back({"/www/index.html", {'<', 'h', '1', '>'}});
  return image;
}

TEST(Packer, RoundTripPlain) {
  FirmwareImage image = TestImage();
  std::vector<uint8_t> blob = FirmwarePacker::Pack(image);
  auto out = FirmwareExtractor::Extract(blob);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->image.vendor, "Acme");
  EXPECT_EQ(out->image.product, "RT-1");
  EXPECT_EQ(out->image.release_year, 2015);
  EXPECT_EQ(out->image.arch, Arch::kDtMips);
  ASSERT_EQ(out->image.files.size(), 3u);
  EXPECT_EQ(out->image.files[0].path, "/etc/passwd");
  EXPECT_EQ(out->image.files[0].bytes, image.files[0].bytes);
}

TEST(Packer, RoundTripXor) {
  std::vector<uint8_t> blob = FirmwarePacker::Pack(TestImage(Packing::kXor));
  auto out = FirmwareExtractor::Extract(blob);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->image.files[2].bytes, TestImage().files[2].bytes);
}

TEST(Packer, XorActuallyObfuscates) {
  std::vector<uint8_t> plain = FirmwarePacker::Pack(TestImage());
  std::vector<uint8_t> xored =
      FirmwarePacker::Pack(TestImage(Packing::kXor));
  // Same sizes, different payload bytes.
  ASSERT_EQ(plain.size(), xored.size());
  EXPECT_NE(plain, xored);
}

TEST(Extractor, EncryptedRefused) {
  std::vector<uint8_t> blob =
      FirmwarePacker::Pack(TestImage(Packing::kEncrypted));
  auto out = FirmwareExtractor::Extract(blob);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsupported);
}

TEST(Extractor, UnknownFormatRefused) {
  std::vector<uint8_t> blob =
      FirmwarePacker::Pack(TestImage(Packing::kUnknown));
  EXPECT_FALSE(FirmwareExtractor::Extract(blob).ok());
}

TEST(Extractor, FindsMagicPastVendorHeader) {
  std::vector<uint8_t> blob = FirmwarePacker::Pack(TestImage());
  std::vector<uint8_t> wrapped(64, 0xEE);  // vendor header junk
  wrapped.insert(wrapped.end(), blob.begin(), blob.end());
  auto offset = FirmwareExtractor::FindMagic(wrapped);
  ASSERT_TRUE(offset.has_value());
  EXPECT_EQ(*offset, 64u);
  auto out = FirmwareExtractor::Extract(wrapped);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->image.files.size(), 3u);
}

TEST(Extractor, NoMagicIsNotFound) {
  std::vector<uint8_t> junk(256, 0x41);
  auto out = FirmwareExtractor::Extract(junk);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST(Extractor, PayloadCorruptionDetected) {
  std::vector<uint8_t> blob = FirmwarePacker::Pack(TestImage());
  blob[blob.size() - 3] ^= 0xFF;  // flip a payload byte
  auto out = FirmwareExtractor::Extract(blob);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
}

TEST(Extractor, TruncationDetected) {
  std::vector<uint8_t> blob = FirmwarePacker::Pack(TestImage());
  blob.resize(blob.size() / 3);
  EXPECT_FALSE(FirmwareExtractor::Extract(blob).ok());
}

TEST(Extractor, SpotsExecutables) {
  // /bin/httpd keeps its DTB1 magic through extraction, so it is the
  // file LoadImageBinary takes as the first executable: its truncated
  // body fails the loader, not the lookup. Without it there is none.
  std::vector<uint8_t> blob = FirmwarePacker::Pack(TestImage());
  auto out = FirmwareExtractor::Extract(blob);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(LoadImageBinary(out->image, "", "fw").status().code(),
            StatusCode::kCorruptData);
  std::erase_if(out->image.files, [](const FirmwareFile& f) {
    return f.path == "/bin/httpd";
  });
  EXPECT_EQ(LoadImageBinary(out->image, "", "fw").status().code(),
            StatusCode::kNotFound);
}

TEST(Image, Helpers) {
  FirmwareImage image = TestImage();
  EXPECT_EQ(image.Label(), "Acme RT-1_2.0");
  EXPECT_NE(image.FindFile("/etc/passwd"), nullptr);
  EXPECT_EQ(image.FindFile("/nope"), nullptr);
  EXPECT_EQ(image.TotalBytes(), 4u + 6u + 4u);
}

TEST(Image, PackingNames) {
  EXPECT_EQ(PackingName(Packing::kPlain), "plain");
  EXPECT_EQ(PackingName(Packing::kEncrypted), "encrypted");
}

TEST(Extractor, CrasherCorpusIsRejectedWithoutCrashing) {
  // Regression corpus: firmware blobs that exposed missing validation
  // during development (truncation inside the filesystem table). Each
  // must come back as a structured error, never a crash or an accept.
  namespace fs = std::filesystem;
  fs::path dir = fs::path(__FILE__).parent_path() / "testing" / "crashers";
  ASSERT_TRUE(fs::exists(dir));
  int replayed = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".dtfw") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty()) << entry.path();
    auto r = FirmwareExtractor::Extract(bytes,
                                        entry.path().filename().string());
    EXPECT_FALSE(r.ok()) << entry.path() << " extracted successfully";
    ++replayed;
  }
  EXPECT_GE(replayed, 1);
}

}  // namespace
}  // namespace dtaint

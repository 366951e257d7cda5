// Deterministic mutation fuzzing of the ingestion boundary (firmware
// extractor + binary loader). The pipeline's first two stages consume
// fully untrusted bytes; this suite proves that seeded byte flips,
// splices, truncations, and garbage extensions over valid images never
// crash, hang, or trip sanitizers — every outcome is a clean Status or
// a successfully parsed (and then loadable) image.
//
// Trial count defaults to 500 per corpus seed and can be dialed with
// DTAINT_FUZZ_N (CI smoke jobs run a reduced N; overnight runs can
// raise it — the mutation schedule is a pure function of the seed, so
// any failure reproduces from the trial number alone).
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <vector>

#include "src/binary/loader.h"
#include "src/binary/writer.h"
#include "src/cfg/cfg_builder.h"
#include "src/firmware/extractor.h"
#include "src/firmware/packer.h"
#include "src/synth/firmware_synth.h"
#include "src/util/rng.h"

namespace dtaint {
namespace {

int TrialCount() {
  if (const char* env = std::getenv("DTAINT_FUZZ_N")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 500;
}

/// Applies one seeded mutation. Returns false when the mutation was a
/// no-op (e.g. splicing the value that was already there).
bool Mutate(std::vector<uint8_t>& bytes, Rng& rng) {
  if (bytes.empty()) return false;
  const std::vector<uint8_t> before = bytes;
  switch (rng.Below(4)) {
    case 0:  // single bit flip
      bytes[rng.Below(bytes.size())] ^=
          static_cast<uint8_t>(1u << rng.Below(8));
      break;
    case 1: {  // short splice of random bytes
      size_t at = rng.Below(bytes.size());
      size_t len = 1 + rng.Below(8);
      for (size_t i = at; i < bytes.size() && i < at + len; ++i) {
        bytes[i] = static_cast<uint8_t>(rng.Below(256));
      }
      break;
    }
    case 2:  // truncate
      bytes.resize(rng.Below(bytes.size()));
      break;
    default: {  // append garbage
      size_t len = 1 + rng.Below(64);
      for (size_t i = 0; i < len; ++i) {
        bytes.push_back(static_cast<uint8_t>(rng.Below(256)));
      }
      break;
    }
  }
  return bytes != before;
}

std::vector<uint8_t> PackedFirmware(uint64_t seed, Packing packing) {
  FirmwareSpec spec;
  spec.vendor = "Fuzz";
  spec.product = "FZ-1";
  spec.version = "1.0";
  spec.packing = packing;
  spec.binary_path = "/bin/httpd";
  spec.program.name = "httpd";
  spec.program.seed = seed;
  spec.program.filler_functions = 8;
  PlantSpec p;
  p.id = "fz";
  p.pattern = VulnPattern::kDirect;
  p.source = "getenv";
  p.sink = "system";
  spec.program.plants = {p};
  auto fw = SynthesizeFirmware(spec);
  EXPECT_TRUE(fw.ok());
  return FirmwarePacker::Pack(fw->image);
}

/// Recovers the CFG of every function of a binary that loaded. A
/// function the builder cannot recover is a recorded failure, never a
/// crash or an out-of-bounds read of a section's bytes.
/// Adds the status codes of the failures to `seen`, if given.
void BuildCfgs(const Binary& bin, std::set<StatusCode>* seen = nullptr) {
  auto program = CfgBuilder(bin).BuildProgram();
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  for (const auto& [name, status] : program->lift_failures) {
    if (seen) seen->insert(status.code());
  }
}

/// The full untrusted path: extract, load every candidate, and build
/// the CFGs of whatever loads. Nothing here may crash; statuses are
/// free to differ per mutation.
void IngestBlob(const std::vector<uint8_t>& blob) {
  if (BinaryLoader::LooksLikeBinary(blob)) {
    auto bin = BinaryLoader::Load(blob, "fuzz.bin");
    if (bin.ok()) BuildCfgs(*bin);
    return;
  }
  auto extracted = FirmwareExtractor::Extract(blob, "fuzz.dtfw");
  if (!extracted.ok()) return;
  for (const FirmwareFile& file : extracted->image.files) {
    if (!BinaryLoader::LooksLikeBinary(file.bytes)) continue;
    auto bin = BinaryLoader::Load(file.bytes, file.path);
    if (bin.ok()) BuildCfgs(*bin);
  }
}

TEST(FuzzIngest, MutatedFirmwareImagesNeverCrashTheExtractor) {
  const int trials = TrialCount();
  for (Packing packing : {Packing::kPlain, Packing::kXor}) {
    std::vector<uint8_t> pristine =
        PackedFirmware(31337, packing);
    Rng rng(0xF1220000u + static_cast<uint64_t>(packing));
    int mutated = 0;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<uint8_t> bytes = pristine;
      if (!Mutate(bytes, rng)) continue;
      ++mutated;
      IngestBlob(bytes);
    }
    // The schedule must actually be exercising mutations, not skipping.
    EXPECT_GT(mutated, trials * 9 / 10);
  }
}

TEST(FuzzIngest, MutatedBareBinariesNeverCrashTheLoader) {
  ProgramSpec spec;
  spec.name = "fuzzbin";
  spec.seed = 4242;
  spec.filler_functions = 10;
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  std::vector<uint8_t> pristine = BinaryWriter::Serialize(out->binary);
  ASSERT_TRUE(BinaryLoader::Load(pristine, "pristine").ok());

  const int trials = TrialCount();
  Rng rng(0xB12E55);
  int mutated = 0;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    if (!Mutate(bytes, rng)) continue;
    ++mutated;
    IngestBlob(bytes);
  }
  EXPECT_GT(mutated, trials * 9 / 10);
}

TEST(FuzzIngest, StackedMutationsNeverCrash) {
  // Deeper damage: several mutations per trial, so whole tables and
  // length prefixes are scrambled together.
  std::vector<uint8_t> fw = PackedFirmware(606, Packing::kPlain);
  ProgramSpec spec;
  spec.name = "deep";
  spec.seed = 77;
  spec.filler_functions = 6;
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  std::vector<uint8_t> bin = BinaryWriter::Serialize(out->binary);

  const int trials = TrialCount() / 2;
  Rng rng(0xDEE9);
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<uint8_t> bytes = rng.Chance(0.5) ? fw : bin;
    int rounds = 2 + static_cast<int>(rng.Below(4));
    for (int i = 0; i < rounds && !bytes.empty(); ++i) Mutate(bytes, rng);
    IngestBlob(bytes);
  }
}

TEST(FuzzIngest, HostileLayoutsThatLoadBuildCfgsCleanly) {
  // Byte mutations rarely survive the container checksum, so these
  // mutants are made on the parsed binary and serialized again: they
  // pass the loader's checks and reach the CFG builder's direct reads
  // of section bytes.
  ProgramSpec spec;
  spec.name = "layout";
  spec.seed = 515;
  spec.filler_functions = 10;
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  const Binary pristine = out->binary;

  const int trials = TrialCount();
  Rng rng(0x1A70u);
  int loaded = 0;
  std::set<StatusCode> seen;
  for (int trial = 0; trial < trials; ++trial) {
    Binary bin = pristine;
    Section* text = nullptr;
    for (Section& section : bin.sections) {
      if (section.name == ".text") text = &section;
    }
    ASSERT_NE(text, nullptr);
    const uint64_t text_end = uint64_t{text->addr} + text->size;
    for (int round = 1 + static_cast<int>(rng.Below(3)); round > 0;
         --round) {
      Symbol& sym = bin.symbols[rng.Below(bin.symbols.size())];
      switch (rng.Below(4)) {
        case 0:  // the section's size exceeds its bytes: a zero tail
          text->bytes.resize(rng.Below(text->bytes.size() + 1));
          break;
        case 1:  // an unaligned symbol
          sym.addr += 1 + static_cast<uint32_t>(rng.Below(3));
          break;
        case 2:  // a symbol running over its neighbours to the end
          sym.size = static_cast<uint32_t>(text_end - sym.addr -
                                           rng.Below(8));
          break;
        default:  // a symbol cut short or emptied
          sym.size = static_cast<uint32_t>(rng.Below(sym.size + 1));
          break;
      }
    }
    auto bin_or = BinaryLoader::Load(BinaryWriter::Serialize(bin), "layout");
    if (!bin_or.ok()) continue;
    ++loaded;
    BuildCfgs(*bin_or, &seen);
  }
  EXPECT_GT(loaded, trials / 2);
  // The damage reached the builder: words off the section or
  // undecodable (the zero tail, unaligned starts) fail functions.
  EXPECT_TRUE(seen.contains(StatusCode::kCorruptData));
}

TEST(FuzzIngest, FunctionsStraddlingSectionsBuildAsInOneSection) {
  // The loader keeps function symbols inside .text, so this layout is
  // built in memory: .text split in two adjacent sections. The builder
  // reads each word from whichever section holds it, so every function
  // builds exactly as from the unsplit section.
  ProgramSpec spec;
  spec.name = "split";
  spec.seed = 99;
  spec.filler_functions = 8;
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  const Binary& whole = out->binary;
  auto expected = CfgBuilder(whole).BuildProgram();
  ASSERT_TRUE(expected.ok());
  Rng rng(0x5B117);
  for (int trial = 0; trial < 16; ++trial) {
    Binary split = whole;
    Section& text = split.sections.front();
    ASSERT_EQ(text.name, ".text");
    // Any byte boundary, so some cuts tear a word in two; a torn word
    // lies in neither section, and its function fails.
    const uint32_t cut = 1 + static_cast<uint32_t>(
                                 rng.Below(text.bytes.size() - 1));
    const bool tears = cut % kInsnSize != 0;
    const uint32_t torn_word = text.addr + cut / kInsnSize * kInsnSize;
    Section tail = text;
    tail.name = ".text2";
    tail.addr = text.addr + cut;
    tail.size = text.size - cut;
    tail.bytes.assign(text.bytes.begin() + cut, text.bytes.end());
    text.size = cut;
    text.bytes.resize(cut);
    split.sections.insert(split.sections.begin() + 1, std::move(tail));
    auto program = CfgBuilder(split).BuildProgram();
    ASSERT_TRUE(program.ok());
    for (const auto& [name, fn] : expected->functions) {
      const Function* got = program->FindFunction(name);
      if (tears && torn_word >= fn.addr && torn_word < fn.addr + fn.size) {
        EXPECT_EQ(got, nullptr) << name << " cut at " << cut;
        continue;
      }
      ASSERT_NE(got, nullptr) << name << " cut at " << cut;
      EXPECT_TRUE(got->code_digest == fn.code_digest) << name;
      EXPECT_EQ(got->blocks.size(), fn.blocks.size()) << name;
      EXPECT_EQ(got->callsites.size(), fn.callsites.size()) << name;
    }
  }
}

TEST(FuzzIngest, EmptyAndTinyInputsAreRejectedCleanly) {
  EXPECT_FALSE(BinaryLoader::Load({}, "empty").ok());
  EXPECT_FALSE(FirmwareExtractor::Extract({}, "empty").ok());
  std::vector<uint8_t> tiny = {'D', 'T', 'B', '1'};
  EXPECT_FALSE(BinaryLoader::Load(tiny, "tiny").ok());
  std::vector<uint8_t> junk(256, 0xAB);
  EXPECT_FALSE(BinaryLoader::Load(junk, "junk").ok());
  EXPECT_FALSE(FirmwareExtractor::Extract(junk, "junk").ok());
}

}  // namespace
}  // namespace dtaint

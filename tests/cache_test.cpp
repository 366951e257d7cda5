// Unit tests for the persistent function-summary cache: the versioned
// binary codec (round trip, corruption rejection, version skew), the
// cache's two places (pending queue + on-disk packs), and the fingerprint
// properties the content-addressed keys must satisfy (stability across
// independent builds and process runs; sensitivity to any single
// instruction mutation and to every analysis-relevant config knob).
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "src/binary/writer.h"
#include "src/cache/summary_cache.h"
#include "src/cache/summary_codec.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/core/dtaint.h"
#include "src/isa/asm_builder.h"
#include "src/lifter/lifter.h"
#include "src/symexec/engine.h"
#include "src/synth/firmware_synth.h"
#include "src/util/rng.h"
#include "tests/testing/pack_files.h"
#include "tests/testing/random_insn.h"

namespace dtaint {
namespace {

using testing_util::CorruptBlob;
using testing_util::PackFiles;
using testing_util::RandomInsnForOp;
namespace fs = std::filesystem;

// ---------- shared helpers ---------------------------------------------------

/// A handmade summary exercising every encodable field.
FunctionSummary TinySummary(const std::string& name, uint32_t salt = 0) {
  FunctionSummary s;
  s.name = name;
  s.addr = 0x10000 + salt;
  DefPair dp;
  dp.d = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 8), 4);
  dp.u = SymExpr::Taint(0x10010 + salt, "recv");
  dp.site = 0x10010 + salt;
  dp.path_id = 1;
  PathConstraint c;
  c.op = BinOp::kCmpLt;
  c.lhs = SymExpr::Arg(1);
  c.rhs = SymExpr::Const(64);
  c.taken = true;
  c.site = 0x10008;
  dp.constraints = dp.constraints.Push(c);
  s.def_pairs.push_back(dp);

  UseRecord use;
  use.u = SymExpr::Deref(SymExpr::Arg(2), 1);
  use.site = 0x10020;
  use.path_id = 2;
  s.undefined_uses.push_back(use);

  CallEvent call;
  call.callsite = 0x10030;
  call.callee = "memcpy";
  call.is_import = true;
  call.args = {SymExpr::Arg(0), SymExpr::Taint(0x10010, "recv"), nullptr};
  call.path_id = 1;
  s.calls.push_back(call);

  s.return_values.push_back(SymExpr::Heap(0xDEADBEEF + salt));
  s.return_values.push_back(nullptr);
  s.types.Observe(SymExpr::Arg(0), ValueType::kPtr);
  s.paths_explored = 3;
  s.blocks_visited = 17;
  s.truncated = false;
  return s;
}

/// Def pair i's path id: distinctive bytes, so a test can find the
/// list record that follows it in the blob.
constexpr uint32_t kMarkedPath = 0x7E57A000;

/// A summary whose def pairs record the constraint lists [a], [a, b],
/// [a, b, c] and [a, d]: four distinct cells, and lists that share
/// their older cells, as the records of one path do.
FunctionSummary SharedPrefixSummary() {
  FunctionSummary s;
  s.name = "shared";
  s.addr = 0x10400;
  auto constraint = [](uint32_t site, int64_t bound) {
    PathConstraint c;
    c.op = BinOp::kCmpLt;
    c.lhs = SymExpr::Arg(1);
    c.rhs = SymExpr::Const(static_cast<uint32_t>(bound));
    c.site = site;
    return c;
  };
  const ConstraintList a = ConstraintList().Push(constraint(0x10404, 64));
  const ConstraintList ab = a.Push(constraint(0x10408, 32));
  const ConstraintList abc = ab.Push(constraint(0x1040C, 16));
  const ConstraintList ad = a.Push(constraint(0x10410, 8));
  for (const ConstraintList& list : {a, ab, abc, ad}) {
    DefPair dp;
    dp.d = SymExpr::Deref(SymAdd(SymExpr::Arg(0), 4), 4);
    dp.u = SymExpr::Taint(0x10400, "recv");
    dp.site = 0x10420;
    dp.path_id = static_cast<int>(kMarkedPath + s.def_pairs.size());
    dp.constraints = list;
    s.def_pairs.push_back(dp);
  }
  return s;
}

/// Offset of the list record of def pair `index` in a blob of
/// SharedPrefixSummary(): right after its marked path id.
size_t ListRecordOffset(const std::vector<uint8_t>& blob, uint32_t index) {
  const uint32_t path = kMarkedPath + index;
  for (size_t at = 0; at + 4 < blob.size(); ++at) {
    if (testing_util::LoadLe(blob, at, 4) == path) return at + 4;
  }
  ADD_FAILURE() << "no def pair with path id " << path;
  return 0;
}

/// `blob` with its payload cut to `length` bytes, or patched, and its
/// checksum recomputed: damage the checksum cannot catch, as the
/// decoder's own checks must.
std::vector<uint8_t> Resealed(std::vector<uint8_t> payload) {
  uint64_t checksum = SummaryBlobChecksum(payload);
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<uint8_t>(checksum >> (8 * i)));
  }
  return payload;
}

std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& blob) {
  return {blob.begin(), blob.end() - 8};
}

void PutLe32(std::vector<uint8_t>& bytes, size_t at, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes.at(at + i) = static_cast<uint8_t>(value >> (8 * i));
  }
}

/// Summaries produced by the real engine over a synthesized binary —
/// the representative workload for round-trip testing.
std::vector<FunctionSummary> EngineSummaries(uint64_t seed, Arch arch) {
  ProgramSpec spec;
  spec.name = "codec";
  spec.arch = arch;
  spec.seed = seed;
  spec.filler_functions = 12;
  PlantSpec p;
  p.id = "v";
  p.pattern = VulnPattern::kAliasChain;
  p.source = "recv";
  p.sink = "strcpy";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  EXPECT_TRUE(out.ok());
  CfgBuilder builder(out->binary);
  auto program = builder.BuildProgram();
  EXPECT_TRUE(program.ok());
  SymEngine engine(out->binary);
  std::vector<FunctionSummary> summaries;
  for (const auto& [name, fn] : program->functions) {
    summaries.push_back(engine.Analyze(fn));
  }
  return summaries;
}

// ---------- codec: round trip ------------------------------------------------

TEST(SummaryCodec, HandmadeSummaryRoundTripsByteIdentical) {
  FunctionSummary original = TinySummary("f");
  std::vector<uint8_t> blob = EncodeSummary(original);
  auto decoded = DecodeSummary(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->name, original.name);
  EXPECT_EQ(decoded->addr, original.addr);
  EXPECT_EQ(decoded->def_pairs.size(), original.def_pairs.size());
  EXPECT_EQ(decoded->calls.size(), original.calls.size());
  // The strong identity check: re-encoding the decode reproduces the
  // exact bytes, so no field is lost or renormalized differently.
  EXPECT_EQ(EncodeSummary(*decoded), blob);
}

TEST(SummaryCodec, EngineSummariesRoundTripByteIdentical) {
  for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
    for (const FunctionSummary& summary : EngineSummaries(7, arch)) {
      std::vector<uint8_t> blob = EncodeSummary(summary);
      auto decoded = DecodeSummary(blob);
      ASSERT_TRUE(decoded.ok())
          << summary.name << ": " << decoded.status().ToString();
      EXPECT_EQ(EncodeSummary(*decoded), blob) << summary.name;
    }
  }
}

TEST(SummaryCodec, DecodedListsAreTheAnalysedListsThemselves) {
  // Lists are hash-consed in the global interner, so a decode rebuilds
  // the very lists the engine published, not equal copies.
  size_t lists = 0;
  for (Arch arch : {Arch::kDtArm, Arch::kDtMips}) {
    for (const FunctionSummary& summary : EngineSummaries(7, arch)) {
      auto decoded = DecodeSummary(EncodeSummary(summary));
      ASSERT_TRUE(decoded.ok()) << summary.name;
      ASSERT_EQ(decoded->def_pairs.size(), summary.def_pairs.size());
      ASSERT_EQ(decoded->calls.size(), summary.calls.size());
      for (size_t i = 0; i < summary.def_pairs.size(); ++i) {
        const ConstraintList want = summary.def_pairs[i].constraints;
        EXPECT_EQ(decoded->def_pairs[i].constraints.head(), want.head())
            << summary.name << " def " << i;
        lists += !want.empty();
      }
      for (size_t i = 0; i < summary.calls.size(); ++i) {
        const ConstraintList want = summary.calls[i].constraints;
        EXPECT_EQ(decoded->calls[i].constraints.head(), want.head())
            << summary.name << " call " << i;
        lists += !want.empty();
      }
    }
  }
  EXPECT_GT(lists, 0u) << "the corpus must record constraints";
}

// ---------- codec: rejection of damaged blobs --------------------------------

TEST(SummaryCodec, EveryTruncationIsRejected) {
  for (const FunctionSummary& summary :
       {TinySummary("t"), SharedPrefixSummary()}) {
    std::vector<uint8_t> blob = EncodeSummary(summary);
    for (size_t len = 0; len < blob.size(); ++len) {
      auto r = DecodeSummary(std::span<const uint8_t>(blob.data(), len));
      EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes parsed";
    }
    // Cut payloads under a valid checksum reach the parser, which must
    // find every one of them short, list records included.
    const std::vector<uint8_t> payload = PayloadOf(blob);
    for (size_t len = 6; len < payload.size(); ++len) {
      auto r = DecodeSummary(Resealed({payload.begin(), payload.begin() +
                                                            len}));
      ASSERT_FALSE(r.ok()) << "resealed prefix of " << len << " bytes parsed";
      EXPECT_EQ(r.status().code(), StatusCode::kCorruptData) << len;
    }
  }
}

TEST(SummaryCodec, SharedPrefixListsRoundTripAsTheSameLists) {
  FunctionSummary original = SharedPrefixSummary();
  std::vector<uint8_t> blob = EncodeSummary(original);
  auto decoded = DecodeSummary(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->def_pairs.size(), original.def_pairs.size());
  for (size_t i = 0; i < original.def_pairs.size(); ++i) {
    EXPECT_EQ(decoded->def_pairs[i].constraints,
              original.def_pairs[i].constraints)
        << i;
  }
  EXPECT_EQ(EncodeSummary(*decoded), blob);
  // [a] is written whole; [a, b] and [a, b, c] each push one cell onto
  // the list before; [a, d] pushes one onto [a], written first.
  const std::vector<uint8_t> payload = PayloadOf(blob);
  const uint32_t tails[] = {0, 1, 2, 1};
  for (uint32_t i = 0; i < 4; ++i) {
    const size_t at = ListRecordOffset(payload, i);
    EXPECT_EQ(payload.at(at), 1) << i;
    EXPECT_EQ(testing_util::LoadLe(payload, at + 1, 4), tails[i]) << i;
    EXPECT_EQ(testing_util::LoadLe(payload, at + 5, 4), 1u) << i;
  }
}

TEST(SummaryCodec, FuzzMutationsNeverParseAndNeverCrash) {
  std::vector<uint8_t> pristine = EncodeSummary(TinySummary("fz"));
  Rng rng(20260805);
  int rejected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    switch (rng.Below(3)) {
      case 0:  // bit flip
        bytes[rng.Below(bytes.size())] ^=
            static_cast<uint8_t>(1u << rng.Below(8));
        break;
      case 1:  // byte splice
        bytes[rng.Below(bytes.size())] =
            static_cast<uint8_t>(rng.Below(256));
        break;
      default:  // truncate
        bytes.resize(rng.Below(bytes.size()));
        break;
    }
    if (bytes == pristine) continue;  // splice may be a no-op
    auto r = DecodeSummary(bytes);  // must not crash
    EXPECT_FALSE(r.ok());
    if (!r.ok()) ++rejected;
  }
  // Overwhelmingly most trials are real mutations; make sure the loop
  // did not silently skip everything.
  EXPECT_GT(rejected, 900);

  // The same damage under a valid checksum reaches the parser: it may
  // still parse (a flipped site is just another site), but it must
  // never crash, and what it rejects is corrupt data.
  const std::vector<uint8_t> payload = PayloadOf(
      EncodeSummary(SharedPrefixSummary()));
  const size_t lists = ListRecordOffset(payload, 0);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<uint8_t> bytes = payload;
    // Mostly inside the list records, which fill the blob's tail.
    const size_t at = trial % 4 ? lists + rng.Below(bytes.size() - lists)
                                : 6 + rng.Below(bytes.size() - 6);
    if (trial % 2) {
      bytes[at] ^= static_cast<uint8_t>(1u << rng.Below(8));
    } else {
      bytes[at] = static_cast<uint8_t>(rng.Below(256));
    }
    auto r = DecodeSummary(Resealed(std::move(bytes)));
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    }
  }
}

TEST(SummaryCodec, FuzzMutationsOfListRecordsAreCorruptData) {
  // Def pair 1's record pushes one cell onto list 1 ([a]); the cell
  // would take id 2. A tail id must name a list written before.
  const std::vector<uint8_t> payload = PayloadOf(
      EncodeSummary(SharedPrefixSummary()));
  const size_t record = ListRecordOffset(payload, 1);
  struct Patch {
    const char* what;
    size_t offset;
    uint32_t value;
  };
  const Patch patches[] = {
      {"tail id points forward", record + 1, 3},
      {"tail id points at itself", record + 1, 2},
      {"tail id out of range", record + 1, 0xFFFFFFFFu},
      {"count exceeds the remaining bytes", record + 5, 0xFFFFFF00u},
      {"count one past the remaining bytes", record + 5,
       static_cast<uint32_t>(payload.size() - record - 9 + 1)},
      {"count of zero", record + 5, 0},
      {"back-reference to the empty list id", record, 0},
  };
  for (const Patch& patch : patches) {
    std::vector<uint8_t> bytes = payload;
    if (patch.offset == record) {
      // A back-reference record: tag 0xFF, then the id.
      bytes.at(record) = 0xFF;
      PutLe32(bytes, record + 1, patch.value);
    } else {
      PutLe32(bytes, patch.offset, patch.value);
    }
    auto r = DecodeSummary(Resealed(std::move(bytes)));
    ASSERT_FALSE(r.ok()) << patch.what;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData) << patch.what;
  }
}

TEST(SummaryCodec, FutureCodecVersionIsUnsupportedNotCorrupt) {
  std::vector<uint8_t> blob = EncodeSummary(TinySummary("vv"));
  // Patch the version field (bytes [4..5], little-endian, right after
  // the u32 magic) and re-seal the trailing checksum so the blob is
  // otherwise valid — this is what a file written by a *newer* build
  // looks like to this one.
  uint16_t future = kSummaryCodecVersion + 1;
  blob[4] = static_cast<uint8_t>(future);
  blob[5] = static_cast<uint8_t>(future >> 8);
  uint64_t checksum = SummaryBlobChecksum(
      std::span<const uint8_t>(blob.data(), blob.size() - 8));
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + i] = static_cast<uint8_t>(checksum >> (8 * i));
  }
  auto r = DecodeSummary(blob);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(SummaryCodec, ChecksumFailureIsCorruptData) {
  std::vector<uint8_t> blob = EncodeSummary(TinySummary("ck"));
  blob[10] ^= 0x40;
  auto r = DecodeSummary(blob);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
}

// ---------- cache tiers ------------------------------------------------------

TEST(SummaryCacheTier, StoredEntryServesFromTheQueueThenFromItsPack) {
  fs::path dir = "cache_test_lifecycle";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  Hash128 key{1, 1};
  SummaryCache cache(config);
  cache.Store(key, TinySummary("queued"));
  ASSERT_TRUE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.stats().disk_hits, 0u);

  // Once flushed, the entry lives only in its pack.
  cache.Flush();
  ASSERT_EQ(PackFiles(dir).size(), 1u);
  ASSERT_TRUE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().disk_hits, 1u);

  // Without a disk tier the queue is the whole store.
  SummaryCache memory;
  memory.Store(key, TinySummary("kept"));
  memory.Flush();
  ASSERT_TRUE(memory.Lookup(key).has_value());
  EXPECT_EQ(memory.stats().disk_hits, 0u);
  fs::remove_all(dir);
}

TEST(SummaryCacheTier, DiskTierPersistsAcrossInstances) {
  fs::path dir = "cache_test_disk";
  fs::remove_all(dir);
  Hash128 key{4, 42};
  {
    CacheConfig config;
    config.disk_dir = dir.string();
    SummaryCache writer(config);
    writer.Store(key, TinySummary("persisted"));
    EXPECT_EQ(writer.stats().stores, 1u);
  }
  ASSERT_EQ(PackFiles(dir).size(), 1u);
  {
    CacheConfig config;
    config.disk_dir = dir.string();
    SummaryCache reader(config);
    auto hit = reader.Lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->name, "persisted");
    CacheStats stats = reader.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.disk_hits, 1u);
  }
  fs::remove_all(dir);
}

TEST(SummaryCacheTier, CorruptDiskEntryIsMissThenRepaired) {
  fs::path dir = "cache_test_corrupt";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  Hash128 key{6, 6};
  {
    SummaryCache writer(config);
    writer.Store(key, TinySummary("victim"));
  }
  // Flip a byte in the middle of the stored blob, inside its pack.
  ASSERT_EQ(PackFiles(dir).size(), 1u);
  ASSERT_TRUE(CorruptBlob(PackFiles(dir)[0], key));
  SummaryCache reader(config);
  EXPECT_FALSE(reader.Lookup(key).has_value());  // never crashes
  CacheStats stats = reader.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.corrupt_entries, 1u);
  // The caller recomputes, stores and flushes; the entry serves a
  // fresh instance again.
  reader.Store(key, TinySummary("victim"));
  reader.Flush();
  SummaryCache reader2(config);
  EXPECT_TRUE(reader2.Lookup(key).has_value());
  EXPECT_EQ(reader2.stats().disk_hits, 1u);
  fs::remove_all(dir);
}

TEST(SummaryCacheTier, PackWithDamagedIndexIsACountedMiss) {
  fs::path dir = "cache_test_bad_index";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  Hash128 key{7, 7};
  {
    SummaryCache writer(config);
    writer.Store(key, TinySummary("indexed"));
  }
  ASSERT_EQ(PackFiles(dir).size(), 1u);
  // The first index record's key: the blob is intact, the checksum over
  // the index is not.
  fs::path pack = PackFiles(dir)[0];
  std::vector<uint8_t> bytes = testing_util::ReadBytes(pack);
  bytes[testing_util::kPackHeaderBytes + 3] ^= 0x10;
  testing_util::WriteBytes(pack, bytes);

  SummaryCache reader(config);
  EXPECT_EQ(reader.stats().corrupt_entries, 1u);
  EXPECT_FALSE(reader.Lookup(key).has_value());  // never crashes
  EXPECT_FALSE(reader.Lookup(Hash128{7, 8}).has_value());
  CacheStats stats = reader.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.corrupt_entries, 1u);  // the pack, counted once

  // A pack cut short is damaged the same way.
  bytes = testing_util::ReadBytes(pack);
  bytes[testing_util::kPackHeaderBytes + 3] ^= 0x10;
  bytes.pop_back();
  testing_util::WriteBytes(pack, bytes);
  SummaryCache truncated(config);
  EXPECT_FALSE(truncated.Lookup(key).has_value());
  EXPECT_EQ(truncated.stats().corrupt_entries, 1u);
  fs::remove_all(dir);
}

TEST(SummaryCacheTier, RecomputedEntryInANewerPackServesAFreshInstance) {
  fs::path dir = "cache_test_two_packs";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  Hash128 key{8, 1};
  Hash128 other{8, 2};
  {
    SummaryCache writer(config);
    writer.Store(key, TinySummary("twice"));
  }
  ASSERT_EQ(PackFiles(dir).size(), 1u);
  fs::path older = PackFiles(dir)[0];
  ASSERT_TRUE(CorruptBlob(older, key));
  {
    SummaryCache rescan(config);
    EXPECT_FALSE(rescan.Lookup(key).has_value());
    EXPECT_EQ(rescan.stats().corrupt_entries, 1u);
    // The recompute lands in a second pack beside another entry.
    rescan.Store(key, TinySummary("twice"));
    rescan.Store(other, TinySummary("beside", 1));
  }
  ASSERT_EQ(PackFiles(dir).size(), 2u);
  // Make the age order explicit whatever the timestamp granularity.
  fs::last_write_time(older,
                      fs::last_write_time(older) - std::chrono::hours(1));

  SummaryCache fresh(config);
  auto hit = fresh.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "twice");
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  EXPECT_EQ(fresh.stats().corrupt_entries, 0u);  // the newer copy first

  // The other way round: flipping the same byte again restores the
  // older copy, and the newer one is damaged now. It is counted and
  // dropped, and the older one serves.
  for (const fs::path& pack : PackFiles(dir)) {
    ASSERT_TRUE(CorruptBlob(pack, key));
  }
  fs::last_write_time(older,
                      fs::last_write_time(older) - std::chrono::hours(1));
  SummaryCache fallback(config);
  hit = fallback.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "twice");
  EXPECT_EQ(fallback.stats().corrupt_entries, 1u);
  EXPECT_EQ(fallback.stats().disk_hits, 1u);
  EXPECT_EQ(fallback.stats().misses, 0u);
  fs::remove_all(dir);
}

TEST(SummaryCacheTier, SeesForeignPacksButNotItsOwnFlushAsNews) {
  fs::path dir = "cache_test_late_pack";
  fs::remove_all(dir);
  fs::create_directories(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  auto flush_elsewhere = [&](Hash128 key, const char* name) {
    SummaryCache writer(config);
    writer.Store(key, TinySummary(name, 1));
  };
  SummaryCache reader(config);  // lists the empty directory
  reader.Store(Hash128{9, 1}, TinySummary("own"));
  reader.Flush();
  // A pack another instance flushes later is found.
  flush_elsewhere(Hash128{9, 2}, "late");
  auto hit = reader.Lookup(Hash128{9, 2});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "late");

  // The reader's own write is no news: pretend a foreign pack lands in
  // the same timestamp tick, and the reader does not list again.
  reader.Store(Hash128{9, 3}, TinySummary("own again"));
  reader.Flush();
  const fs::file_time_type after_own = fs::last_write_time(dir);
  flush_elsewhere(Hash128{9, 4}, "same tick");
  fs::last_write_time(dir, after_own);
  EXPECT_FALSE(reader.Lookup(Hash128{9, 4}).has_value());
  // Any later change to the directory brings it in.
  fs::last_write_time(dir, after_own + std::chrono::seconds(1));
  EXPECT_TRUE(reader.Lookup(Hash128{9, 4}).has_value());
  EXPECT_TRUE(reader.Lookup(Hash128{9, 1}).has_value());
  CacheStats stats = reader.stats();
  EXPECT_EQ(stats.disk_hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.corrupt_entries, 0u);
  fs::remove_all(dir);
}

TEST(SummaryCacheTier, PackBytesAreTheSameAtEveryThreadCount) {
  ProgramSpec spec;
  spec.name = "packs";
  spec.seed = 17;
  spec.filler_functions = 24;
  PlantSpec p;
  p.id = "v";
  p.pattern = VulnPattern::kAliasChain;
  p.source = "recv";
  p.sink = "strcpy";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());

  std::string reference_name;
  std::vector<uint8_t> reference;
  for (int threads : {1, 2, 8}) {
    fs::path dir = "cache_test_pack_threads";
    fs::remove_all(dir);
    CacheConfig cache_config;
    cache_config.disk_dir = dir.string();
    SummaryCache cache(cache_config);
    DTaintConfig config;
    config.interproc.cache = &cache;
    config.interproc.num_threads = threads;
    auto report = DTaint(config).Analyze(out->binary);
    ASSERT_TRUE(report.ok());
    // One pack for the binary, written before Analyze returns.
    std::vector<fs::path> packs = PackFiles(dir);
    ASSERT_EQ(packs.size(), 1u) << "threads=" << threads;
    std::vector<uint8_t> bytes = testing_util::ReadBytes(packs[0]);
    EXPECT_EQ(testing_util::PackBlobs(bytes).size(), cache.stats().stores);
    if (reference.empty()) {
      reference_name = packs[0].filename().string();
      reference = std::move(bytes);
    } else {
      EXPECT_EQ(packs[0].filename().string(), reference_name)
          << "threads=" << threads;
      EXPECT_TRUE(bytes == reference) << "threads=" << threads;
    }
    fs::remove_all(dir);
  }
  EXPECT_FALSE(reference.empty());
}

TEST(SummaryCacheTier, ConcurrentStoreLookupAndFlush) {
  fs::path dir = "cache_test_concurrent";
  fs::remove_all(dir);
  CacheConfig config;
  config.disk_dir = dir.string();
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kPerThread = 40;
  {
    SummaryCache cache(config);
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&cache, t] {
        for (uint32_t i = 0; i < kPerThread; ++i) {
          cache.Store(Hash128{100 + t, i}, TinySummary("c", i));
          // Another thread's key: a hit or a miss, never a crash.
          cache.Lookup(Hash128{100 + (t + 1) % kThreads, i});
          if (i % 10 == 9) cache.Flush();
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.stores, kThreads * kPerThread);
    EXPECT_EQ(stats.corrupt_entries, 0u);
    EXPECT_EQ(stats.io_failures, 0u);
  }
  SummaryCache reader(config);
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (uint32_t i = 0; i < kPerThread; ++i) {
      auto hit = reader.Lookup(Hash128{100 + t, i});
      ASSERT_TRUE(hit.has_value()) << t << "/" << i;
      EXPECT_EQ(hit->addr, 0x10000u + i);
    }
  }
  EXPECT_EQ(reader.stats().disk_hits, kThreads * kPerThread);
  EXPECT_EQ(reader.stats().corrupt_entries, 0u);
  fs::remove_all(dir);
}

// ---------- fingerprint properties -------------------------------------------

/// Builds a one-function binary from an instruction list.
Binary BuildFromInsns(const std::vector<Insn>& insns, Arch arch) {
  FnBuilder b("f");
  for (const Insn& insn : insns) b.Emit(insn);
  b.Ret();
  BinaryWriter writer(arch, "t");
  writer.AddFunction(std::move(b).Finish().value());
  return writer.Build().value();
}

Hash128 KeyOfFn(const Binary& bin, const std::string& name,
                EngineConfig engine = {}) {
  CfgBuilder builder(bin);
  auto program = builder.BuildProgram();
  EXPECT_TRUE(program.ok());
  Hash128 fp = EngineFingerprint(bin, engine);
  const Function* fn = program->FindFunction(name);
  EXPECT_NE(fn, nullptr);
  return FunctionKey(*fn, fp);
}

TEST(Fingerprint, StableAcrossIndependentBuildsOfTheSameProgram) {
  ProgramSpec spec;
  spec.name = "stable";
  spec.seed = 11;
  spec.filler_functions = 10;
  auto first = SynthesizeBinary(spec);
  auto second = SynthesizeBinary(spec);
  ASSERT_TRUE(first.ok() && second.ok());
  CfgBuilder b1(first->binary), b2(second->binary);
  auto p1 = b1.BuildProgram();
  auto p2 = b2.BuildProgram();
  ASSERT_TRUE(p1.ok() && p2.ok());
  Hash128 fp1 = EngineFingerprint(first->binary, {});
  Hash128 fp2 = EngineFingerprint(second->binary, {});
  EXPECT_EQ(fp1, fp2);
  ASSERT_EQ(p1->functions.size(), p2->functions.size());
  for (const auto& [name, fn] : p1->functions) {
    const Function* twin = p2->FindFunction(name);
    ASSERT_NE(twin, nullptr) << name;
    EXPECT_EQ(FunctionKey(fn, fp1), FunctionKey(*twin, fp2)) << name;
  }
}

TEST(Fingerprint, GoldenKeyPinsCrossProcessStability) {
  // The key of this fixed function must never depend on process state
  // (pointers, ASLR, iteration order). The constant below was produced
  // by this same code; if it drifts without an intentional change to
  // what the key hashes (kFunctionKeySchema, EngineFingerprint, which
  // includes the engine revision and the library table), cache keys
  // are unstable across runs and the disk tier is silently useless.
  FnBuilder b("golden");
  b.MovI(0, 7);
  b.AddI(1, 0, 35);
  b.StrW(1, 13, 8);
  b.Ret();
  BinaryWriter writer(Arch::kDtArm, "gold");
  writer.AddFunction(std::move(b).Finish().value());
  Binary bin = writer.Build().value();
  Hash128 key = KeyOfFn(bin, "golden");
  EXPECT_EQ(key.ToHex(), "91cf93d50fac5d68356a0a1e7d861936");
}

TEST(Fingerprint, KeyIsTheSameWhetherOrNotTheIrWasLifted) {
  // A cache hit must never lift: the key comes off the CFG skeleton and
  // code digest alone, and lifting the IR (what a miss does) neither
  // changes the key nor is needed for it.
  ProgramSpec spec;
  spec.name = "nolift";
  spec.seed = 5;
  spec.filler_functions = 8;
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  auto program = CfgBuilder(out->binary).BuildProgram();
  ASSERT_TRUE(program.ok());
  Hash128 engine_fp = EngineFingerprint(out->binary, {});
  obs::Counter& lifted =
      obs::MetricsRegistry::Global().counter("lift.ir_functions");
  uint64_t lifted_before = lifted.Value();
  std::map<std::string, Hash128> keys;
  for (const auto& [name, fn] : program->functions) {
    keys[name] = FunctionKey(fn, engine_fp);
  }
  EXPECT_EQ(lifted.Value(), lifted_before);
  for (const auto& [name, fn] : program->functions) {
    ASSERT_TRUE(Lifter(out->binary).LiftFunction(fn).ok()) << name;
    EXPECT_EQ(FunctionKey(fn, engine_fp), keys[name]) << name;
  }
  EXPECT_EQ(lifted.Value(), lifted_before + program->functions.size());
}

TEST(Fingerprint, FlippingOneInstructionWordChangesTheKey) {
  // The flip changes an ALU immediate: same blocks, same edges, same
  // callsites, so only the code digest can tell the two apart.
  auto build = [] {
    FnBuilder b("f");
    b.MovI(0, 7);
    b.AddI(1, 0, 35);
    b.Ret();
    BinaryWriter writer(Arch::kDtArm, "t");
    writer.AddFunction(std::move(b).Finish().value());
    return writer.Build().value();
  };
  Binary base = build();
  Binary flipped = build();
  const Symbol* f = flipped.FindSymbol("f");
  ASSERT_NE(f, nullptr);
  bool patched = false;
  for (Section& section : flipped.sections) {
    if (section.kind != SectionKind::kText) continue;
    // Little-endian: byte 0 of the AddI word is its immediate's low byte.
    section.bytes[f->addr + kInsnSize - section.addr] ^= 0x01;
    patched = true;
  }
  ASSERT_TRUE(patched);
  auto p1 = CfgBuilder(base).BuildProgram();
  auto p2 = CfgBuilder(flipped).BuildProgram();
  ASSERT_TRUE(p1.ok() && p2.ok());
  const Function& a = p1->functions.at("f");
  const Function& b = p2->functions.at("f");
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (const auto& [addr, block] : a.blocks) {
    EXPECT_EQ(block.size, b.blocks.at(addr).size);
    EXPECT_EQ(block.jumpkind, b.blocks.at(addr).jumpkind);
  }
  EXPECT_NE(a.code_digest, b.code_digest);
  EXPECT_NE(KeyOfFn(base, "f"), KeyOfFn(flipped, "f"));
}

TEST(Fingerprint, ResolvedTargetsAreExcludedFromTheKey) {
  // Structure similarity fills CallSite::resolved_targets after phase 1;
  // the re-link reuses phase-1 summaries, so resolution must not move
  // the key.
  BinaryWriter writer(Arch::kDtArm, "t");
  FnBuilder b("dispatch");
  b.CallReg(3);
  b.Ret();
  writer.AddFunction(std::move(b).Finish().value());
  Binary bin = writer.Build().value();
  auto program = CfgBuilder(bin).BuildProgram();
  ASSERT_TRUE(program.ok());
  Function& fn = program->functions.at("dispatch");
  ASSERT_EQ(fn.callsites.size(), 1u);
  ASSERT_TRUE(fn.callsites[0].is_indirect);
  Hash128 engine_fp = EngineFingerprint(bin, {});
  Hash128 before = FunctionKey(fn, engine_fp);
  fn.callsites[0].resolved_targets = {"handler_a", "handler_b"};
  EXPECT_EQ(FunctionKey(fn, engine_fp), before);
}

TEST(Fingerprint, AnySingleInstructionMutationChangesTheKey) {
  // Straight-line opcode pool: every field RandomInsnForOp fills is
  // semantically live (no cmp — its rd is ignored by the lifter).
  const Op kPool[] = {
      Op::kMovR, Op::kMovI, Op::kMovHi, Op::kAddR, Op::kAddI, Op::kSubR,
      Op::kSubI, Op::kMulR, Op::kAndR, Op::kAndI, Op::kOrrR, Op::kOrrI,
      Op::kXorR, Op::kXorI, Op::kLslI, Op::kLsrI, Op::kLdrW, Op::kStrW,
      Op::kLdrB, Op::kStrB, Op::kLdrWR, Op::kStrWR, Op::kLdrBR,
      Op::kStrBR};
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<Insn> insns;
    int length = static_cast<int>(rng.Range(2, 16));
    for (int i = 0; i < length; ++i) {
      Insn insn = RandomInsnForOp(kPool[rng.Below(std::size(kPool))], rng);
      if (insn.rd == kRegPc) insn.rd = 4;
      insns.push_back(insn);
    }
    Arch arch = rng.Chance(0.5) ? Arch::kDtArm : Arch::kDtMips;
    Hash128 base = KeyOfFn(BuildFromInsns(insns, arch), "f");

    // Minimal semantic mutation of one random instruction.
    size_t victim = rng.Below(insns.size());
    std::vector<Insn> mutated = insns;
    Insn& m = mutated[victim];
    switch (FormatOf(m.op)) {
      case OpFormat::kI:
        m.imm += (m.op == Op::kMovHi ? (m.imm == 0xFFFF ? -1 : 1)
                                     : (m.imm == 32767 ? -1 : 1));
        break;
      case OpFormat::kR:
        m.rd = static_cast<uint8_t>((m.rd + 1) % 13);
        break;
      default:
        m = RandomInsnForOp(Op::kMovI, rng);
        m.rd = 4;
        break;
    }
    Hash128 changed = KeyOfFn(BuildFromInsns(mutated, arch), "f");
    EXPECT_NE(base, changed) << "trial " << trial << " victim " << victim;
  }
}

TEST(Fingerprint, EveryAnalysisConfigKnobChangesTheKey) {
  Rng rng(1);
  Binary bin =
      BuildFromInsns({RandomInsnForOp(Op::kNop, rng)}, Arch::kDtArm);
  Hash128 base = KeyOfFn(bin, "f");

  EngineConfig fewer_paths;
  fewer_paths.max_paths = 7;
  EXPECT_NE(base, KeyOfFn(bin, "f", fewer_paths));

  EngineConfig fewer_visits;
  fewer_visits.max_block_visits = 99;
  EXPECT_NE(base, KeyOfFn(bin, "f", fewer_visits));

  EngineConfig shallow;
  shallow.max_expr_depth = 5;
  EXPECT_NE(base, KeyOfFn(bin, "f", shallow));
}

TEST(Fingerprint, AliasOnAndOffShareTheKey) {
  // Alias queries run on demand after linking, so the summaries — and
  // their cache keys — are the same with alias on or off: an alias-off
  // pass fills the cache, and an alias-on pass over the same program
  // is served entirely from it.
  ProgramSpec spec;
  spec.name = "aliaskey";
  spec.seed = 3;
  spec.filler_functions = 6;
  PlantSpec p;
  p.id = "v";
  p.pattern = VulnPattern::kAliasChain;
  p.source = "recv";
  p.sink = "strcpy";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());
  auto program = CfgBuilder(out->binary).BuildProgram();
  ASSERT_TRUE(program.ok());
  CallGraph graph = CallGraph::Build(*program);
  SymEngine engine(out->binary);
  SummaryCache cache;
  InterprocConfig config;
  config.cache = &cache;
  config.apply_alias = false;
  SummarySet off = Summarize(*program, graph, engine, config);
  EXPECT_EQ(off.stats.cache_hits, 0u);
  config.apply_alias = true;
  SummarySet on = Summarize(*program, graph, engine, config);
  EXPECT_EQ(on.stats.cache_misses, 0u);
  EXPECT_EQ(on.stats.cache_hits, off.stats.cache_misses);
}

TEST(Fingerprint, DataSectionBytesAreInTheKey) {
  // The engine concretizes loads from constant addresses out of
  // .rodata/.data, so two binaries with identical code but different
  // data must not share summaries.
  auto build = [](uint8_t byte) {
    FnBuilder b("f");
    b.MovI(0, 1);
    b.Ret();
    BinaryWriter writer(Arch::kDtArm, "t");
    writer.AddFunction(std::move(b).Finish().value());
    writer.AddRodata({byte, 2, 3, 4});
    return writer.Build().value();
  };
  EXPECT_NE(KeyOfFn(build(1), "f"), KeyOfFn(build(9), "f"));
}

TEST(Fingerprint, Hash128HexIsCanonical) {
  Hash128 h{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  EXPECT_EQ(h.ToHex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(Hash128{}.ToHex(), "00000000000000000000000000000000");
}

// ---------- degraded summaries stay out of the cache -------------------------

TEST(SummaryCacheTier, DegradedSummariesAreNotCachedAndRerunRecovers) {
  // A starved-budget run degrades some functions; those summaries must
  // not be persisted, or a later generous run would serve stale
  // conservative garbage from the warm cache. The proof: warm rerun
  // with the budget lifted re-analyzes exactly the degraded functions
  // (cache misses for them), ends complete, and the store count grows
  // by the functions that were withheld the first time.
  ProgramSpec spec;
  spec.name = "degrade";
  spec.seed = 31;
  spec.filler_functions = 20;
  PlantSpec p;
  p.id = "v";
  p.pattern = VulnPattern::kDirect;
  p.source = "getenv";
  p.sink = "system";
  spec.plants = {p};
  auto out = SynthesizeBinary(spec);
  ASSERT_TRUE(out.ok());

  fs::path dir = "cache_test_degraded";
  fs::remove_all(dir);
  CacheConfig cache_config;
  cache_config.disk_dir = dir.string();
  SummaryCache cache(cache_config);

  DTaintConfig starved;
  starved.interproc.cache = &cache;
  starved.interproc.budget.max_steps = 150;
  auto cold = DTaint(starved).Analyze(out->binary);
  ASSERT_TRUE(cold.ok());
  ASSERT_GT(cold->degraded_functions, 0u);
  size_t stores_after_cold = cache.stats().stores;
  // Nothing degraded was stored, and each full-effort function at most
  // once: the re-link after indirect-call resolution reuses the phase-1
  // summaries instead of looking them up again.
  EXPECT_LE(stores_after_cold, cold->interproc_stats.functions_processed -
                                   cold->degraded_functions);

  DTaintConfig generous;
  generous.interproc.cache = &cache;
  auto warm = DTaint(generous).Analyze(out->binary);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->degraded_functions, 0u);
  EXPECT_TRUE(warm->complete);
  // The previously degraded functions were recomputed and stored now.
  EXPECT_GT(cache.stats().stores, stores_after_cold);
  // And the warm result equals an uncached reference run.
  auto reference = DTaint().Analyze(out->binary);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(warm->vulnerable_paths, reference->vulnerable_paths);
  EXPECT_EQ(warm->findings.size(), reference->findings.size());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dtaint

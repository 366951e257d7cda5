#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/strings.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace dtaint {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = CorruptData("bad magic");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruptData);
  EXPECT_EQ(s.ToString(), "CORRUPT_DATA: bad magic");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(Rng, WeightedPickRespectsZeros) {
  Rng rng(4);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.WeightedPick(w), 1u);
}

TEST(Rng, ForkIndependent) {
  Rng rng(5);
  Rng c1 = rng.Fork(1);
  Rng c2 = rng.Fork(2);
  EXPECT_NE(c1.Next(), c2.Next());
}

TEST(Hash, Fnv1aStable) {
  EXPECT_EQ(Fnv1a("hello"), Fnv1a("hello"));
  EXPECT_NE(Fnv1a("hello"), Fnv1a("hellp"));
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashCombine(1, 2), 3),
            HashCombine(HashCombine(1, 3), 2));
}

TEST(Hash, FingerprintMixesBytesAsBigEndianWords) {
  // Mix(bytes) is the length, then each 8-byte run as one word whose
  // first byte is most significant, then the rest packed the same way:
  // pack digests and cache keys depend on exactly these values.
  std::string text;
  for (int len = 0; len <= 40; ++len) {
    Fingerprint128 want;
    want.Mix(static_cast<uint64_t>(text.size()));
    uint64_t word = 0;
    for (size_t i = 0; i < text.size(); ++i) {
      word = (word << 8) | static_cast<uint8_t>(text[i]);
      if (i % 8 == 7 || i + 1 == text.size()) {
        want.Mix(word);
        word = 0;
      }
    }
    EXPECT_EQ(Fingerprint128().Mix(text).Digest(), want.Digest()) << len;
    text.push_back(static_cast<char>(0x80 + 7 * len));
  }
}

TEST(Strings, HexStr) {
  EXPECT_EQ(HexStr(0), "0x0");
  EXPECT_EQ(HexStr(0x4C), "0x4c");
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(Strings, Pad) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcdef", 3), "abc");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
}

TEST(Strings, FmtDouble) {
  EXPECT_EQ(FmtDouble(1.2345, 2), "1.23");
}

}  // namespace
}  // namespace dtaint

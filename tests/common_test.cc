#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace nde {
namespace {

// --- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::InvalidArgument("bad").message(), "bad");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::NotFound("missing column");
  EXPECT_EQ(s.ToString(), "not_found: missing column");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::IOError("disk"); };
  auto outer = [&]() -> Status {
    NDE_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIOError);
}

TEST(StatusTest, ReturnIfErrorPassesThroughOk) {
  auto outer = []() -> Status {
    NDE_RETURN_IF_ERROR(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

// --- Result -----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r.value_or("fallback"), "hello");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto consume = [&](bool fail) -> Result<int> {
    NDE_ASSIGN_OR_RETURN(int v, produce(fail));
    return v + 1;
  };
  EXPECT_EQ(consume(false).value(), 8);
  EXPECT_EQ(consume(true).status().code(), StatusCode::kInternal);
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> r = Status::Internal("boom");
  EXPECT_DEATH({ (void)r.value(); }, "Result::value");
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, NextUint64MatchesPinnedStreams) {
  // First outputs of the splitmix64-seeded xoshiro256** stream for fixed
  // seeds: every seeded result in the library depends on this exact stream.
  struct Pinned {
    uint64_t seed;
    uint64_t first[4];
  };
  const Pinned pinned[] = {
      {0,
       {0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL,
        0x6aa594f1262d2d2cULL}},
      {42,
       {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
        0xecb8ad4703b360a1ULL}},
      {0xdeadbeefULL,
       {0xc5555444a74d7e83ULL, 0x65c30d37b4b16e38ULL, 0x54f773200a4efa23ULL,
        0x429aed75fb958af7ULL}},
  };
  for (const Pinned& p : pinned) {
    Rng rng(p.seed);
    for (int i = 0; i < 4; ++i) {
      uint64_t x = rng.NextUint64();
      EXPECT_EQ(x, p.first[i]) << "seed " << p.seed << " draw " << i
                               << " got 0x" << std::hex << x;
    }
  }
}

TEST(RngTest, FairBernoulliIsTopBitClear) {
  // NextBernoulli(0.5) compares (x >> 11) * 2^-53 < 0.5, which holds iff
  // x < 2^63: samplers may test the top bit of NextUint64() instead.
  Rng by_double(2024);
  Rng by_bit(2024);
  for (int i = 0; i < 1000000; ++i) {
    bool expected = by_double.NextBernoulli(0.5);
    bool actual = (by_bit.NextUint64() >> 63) == 0;
    ASSERT_EQ(actual, expected) << "draw " << i;
  }
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextCategorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, PermutationContainsAllIndices) {
  Rng rng(31);
  std::vector<size_t> perm = rng.Permutation(100);
  std::set<size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

class SampleWithoutReplacementTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SampleWithoutReplacementTest, DistinctAndInRange) {
  auto [n, k] = GetParam();
  Rng rng(37 + n * 1000 + k);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(n, k);
  EXPECT_EQ(sample.size(), k);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), k);
  for (size_t s : sample) EXPECT_LT(s, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SampleWithoutReplacementTest,
    ::testing::Values(std::pair<size_t, size_t>{10, 0},
                      std::pair<size_t, size_t>{10, 3},
                      std::pair<size_t, size_t>{10, 10},
                      std::pair<size_t, size_t>{1000, 5},
                      std::pair<size_t, size_t>{1000, 900},
                      std::pair<size_t, size_t>{1, 1}));

TEST(RngTest, SampleWithoutReplacementUniformish) {
  // Every index should be sampled with roughly equal frequency.
  Rng rng(41);
  std::vector<int> counts(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (size_t i : rng.SampleWithoutReplacement(20, 5)) ++counts[i];
  }
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(trials), 0.25, 0.03);
  }
}

// --- string_util -------------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string> parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitEmptyString) {
  std::vector<std::string> parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::string original = "x|y|z";
  EXPECT_EQ(JoinStrings(SplitString(original, '|'), "|"), original);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("pipeline", "pipe"));
  EXPECT_FALSE(StartsWith("pipe", "pipeline"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "table.csv"));
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo 123"), "hello 123");
}

TEST(StringUtilTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
}

TEST(StringUtilTest, EditDistanceSymmetric) {
  const char* words[] = {"alpha", "beta", "alphabet", "bet", ""};
  for (const char* a : words) {
    for (const char* b : words) {
      EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
    }
  }
}

TEST(StringUtilTest, EditDistanceTriangleInequality) {
  const char* words[] = {"join", "jobs", "jorn", "yarn"};
  for (const char* a : words) {
    for (const char* b : words) {
      for (const char* c : words) {
        EXPECT_LE(EditDistance(a, c), EditDistance(a, b) + EditDistance(b, c));
      }
    }
  }
}

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

/// The plain search FormatDoubleShortest must reproduce byte for byte.
std::string ShortestByFullSearch(double value) {
  char text[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(text, sizeof(text), "%.*g", precision, value);
    if (std::strtod(text, nullptr) == value) return text;
  }
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

TEST(StringUtilTest, FormatDoubleShortestMatchesFullSearch) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 100.0, 123456789.0, 1e21, 1e-7,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  // Binade edges, where the round-trip interval is lopsided.
  for (int e = -1074; e <= 1023; e += 7) {
    double edge = std::ldexp(1.0, e);
    values.push_back(edge);
    values.push_back(std::nextafter(edge, 0.0));
    values.push_back(std::nextafter(edge, 2 * edge));
  }
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) {
    uint64_t bits = rng.NextUint64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
  }
  for (double value : values) {
    ASSERT_EQ(FormatDoubleShortest(value), ShortestByFullSearch(value))
        << "bits " << std::hex << [&] {
             uint64_t bits;
             std::memcpy(&bits, &value, sizeof(bits));
             return bits;
           }();
  }
}

TEST(JsonParseTest, ScalarsKeepValueAndRawSpelling) {
  json::Value number = json::Parse("1e-3").value();
  ASSERT_TRUE(number.is_number());
  EXPECT_DOUBLE_EQ(number.as_number(), 1e-3);
  EXPECT_EQ(number.raw(), "1e-3");

  EXPECT_EQ(json::Parse("-42").value().as_number(), -42.0);
  EXPECT_TRUE(json::Parse("true").value().as_bool());
  EXPECT_FALSE(json::Parse("false").value().as_bool());
  EXPECT_TRUE(json::Parse("null").value().is_null());
  EXPECT_EQ(json::Parse("\"a\\n\\\"b\\\"\"").value().as_string(), "a\n\"b\"");
}

TEST(JsonParseTest, ObjectMembersKeepSourceOrder) {
  json::Value object =
      json::Parse("{\"z\": 1, \"a\": [true, {\"k\": \"v\"}], \"m\": null}")
          .value();
  ASSERT_TRUE(object.is_object());
  ASSERT_EQ(object.members().size(), 3u);
  EXPECT_EQ(object.members()[0].first, "z");
  EXPECT_EQ(object.members()[1].first, "a");
  const json::Value* array = object.Find("a");
  ASSERT_NE(array, nullptr);
  ASSERT_EQ(array->items().size(), 2u);
  EXPECT_EQ(array->items()[1].Find("k")->as_string(), "v");
  EXPECT_EQ(object.Find("missing"), nullptr);
}

TEST(JsonParseTest, StrictnessRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":1,}", "{\"a\":1 \"b\":2}", "01", "1.",
        "\"unterminated", "\"bad \\q escape\"", "nul", "{\"a\":1}garbage",
        "{\"dup\":1,\"dup\":2}", "[1] [2]"}) {
    Result<json::Value> parsed = json::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "' should not parse";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

TEST(JsonParseTest, DepthIsCapped) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(json::Parse(deep).ok());
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(64);  // Tiny first chunk to force growth.
  std::vector<std::pair<char*, size_t>> blocks;
  for (size_t i = 0; i < 100; ++i) {
    size_t bytes = 1 + (i * 7) % 96;
    size_t alignment = size_t{1} << (i % 7);  // 1..64.
    char* p = static_cast<char*>(arena.Allocate(bytes, alignment));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignment, 0u)
        << "allocation " << i;
    // Writing the full block must not corrupt any earlier block.
    std::memset(p, static_cast<int>(i), bytes);
    blocks.emplace_back(p, bytes);
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (size_t b = 0; b < blocks[i].second; ++b) {
      ASSERT_EQ(static_cast<unsigned char>(blocks[i].first[b]),
                static_cast<unsigned char>(i))
          << "block " << i << " byte " << b;
    }
  }
  EXPECT_GE(arena.bytes_allocated(), 100u);
}

TEST(ArenaTest, ResetReachesSteadyStateWithoutNewChunks) {
  Arena arena(128);
  for (int i = 0; i < 32; ++i) arena.AllocateArray<double>(16);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  // The retained chunk covers the whole workload, so replaying it must not
  // grow the reservation again.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 32; ++i) arena.AllocateArray<double>(16);
    EXPECT_EQ(arena.bytes_reserved(), reserved) << "round " << round;
    arena.Reset();
  }
}

TEST(ArenaTest, TypedArraysAreElementAligned) {
  Arena arena;
  arena.Allocate(1, 1);  // Knock the bump pointer off natural alignment.
  double* d = arena.AllocateArray<double>(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
  uint32_t* u = arena.AllocateArray<uint32_t>(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(u) % alignof(uint32_t), 0u);
}

TEST(ArenaPoolTest, RecyclesReleasedArenas) {
  ArenaPool pool(256);
  std::unique_ptr<Arena> a = pool.Acquire();
  a->AllocateArray<double>(64);
  Arena* raw = a.get();
  size_t reserved = a->bytes_reserved();
  pool.Release(std::move(a));
  EXPECT_EQ(pool.idle(), 1u);

  // The same pre-grown arena comes back, already reset.
  std::unique_ptr<Arena> b = pool.Acquire();
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(b->bytes_allocated(), 0u);
  EXPECT_EQ(b->bytes_reserved(), reserved);
  EXPECT_EQ(pool.idle(), 0u);

  // An empty pool constructs fresh arenas rather than blocking.
  std::unique_ptr<Arena> c = pool.Acquire();
  EXPECT_NE(c.get(), nullptr);
  EXPECT_NE(c.get(), raw);
  pool.Release(std::move(b));
  pool.Release(std::move(c));
  pool.Release(nullptr);  // Ignored.
  EXPECT_EQ(pool.idle(), 2u);
}

}  // namespace
}  // namespace nde

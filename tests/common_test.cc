// Unit tests for src/common: status, RNG, Zipf, statistics, hashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <cmath>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/common/ring_fifo.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/common/zipf.h"

namespace kvd {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing key");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfMemory), "OUT_OF_MEMORY");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceBusy), "RESOURCE_BUSY");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfMemory("pool dry"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);
}

// The ring against a std::deque model over random pushes and pops, so the
// ring wraps, grows while wrapped, and drains to empty many times; a popped
// slot releases what it held.
TEST(RingFifoTest, MatchesDequeAndReleasesPoppedSlots) {
  RingFifo<std::unique_ptr<int>> ring;
  std::deque<int> model;
  Rng rng(7);
  int next = 0;
  for (int step = 0; step < 20000; step++) {
    // Drift between push-heavy and pop-heavy stretches.
    const bool push_heavy = (step / 1000) % 2 == 0;
    if (model.empty() || rng.NextBelow(100) < (push_heavy ? 70u : 30u)) {
      ring.push_back(std::make_unique<int>(next));
      model.push_back(next++);
    } else {
      std::unique_ptr<int> taken = std::move(ring.front());
      ring.pop_front();
      ASSERT_EQ(*taken, model.front());
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(*ring[model.size() - 1], model.back());
    }
  }
  RingFifo<std::shared_ptr<int>> shared;
  auto held = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = held;
  shared.push_back(std::move(held));
  shared.pop_front();
  EXPECT_TRUE(watch.expired());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; i++) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; i++) {
    counts[rng.NextBelow(kBound)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBound, kSamples / kBound * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; i++) {
    const uint64_t v = rng.NextInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

TEST(ZipfTest, RankZeroIsMostPopular) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(42);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; i++) {
    counts[zipf.Next(rng)]++;
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(ZipfTest, HeadProbabilityMatchesEmpirical) {
  ZipfGenerator zipf(10000, 0.99);
  Rng rng(42);
  int head = 0;
  constexpr int kSamples = 500000;
  for (int i = 0; i < kSamples; i++) {
    head += zipf.Next(rng) == 0 ? 1 : 0;
  }
  const double empirical = static_cast<double>(head) / kSamples;
  EXPECT_NEAR(empirical, zipf.HeadProbability(), 0.01);
}

TEST(ZipfTest, ScrambledPreservesSkewButMovesHotKey) {
  ZipfGenerator zipf(1 << 16, 0.99);
  Rng rng(42);
  std::vector<int> counts(1 << 16, 0);
  for (int i = 0; i < 300000; i++) {
    counts[zipf.NextScrambled(rng)]++;
  }
  const auto hottest = std::max_element(counts.begin(), counts.end());
  // The hottest item should carry roughly HeadProbability of the mass but
  // almost surely not sit at index 0.
  EXPECT_GT(*hottest, 300000 * zipf.HeadProbability() * 0.8);
  EXPECT_NE(hottest - counts.begin(), 0);
}

TEST(LatencyHistogramTest, PercentilesBracketValues) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Log-linear buckets have ~3% relative error at this granularity.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 500, 500 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.95)), 950, 950 * 0.05);
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
}

TEST(LatencyHistogramTest, CdfIsMonotonic) {
  LatencyHistogram h;
  Rng rng(4);
  for (int i = 0; i < 10000; i++) {
    h.Add(800 + rng.NextBelow(600));
  }
  const auto cdf = h.Cdf();
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); i++) {
    EXPECT_GT(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(LatencyHistogramTest, MergeAddsCounts) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Add(100);
  b.Add(200);
  b.Add(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 300u);
}

TEST(LatencyHistogramTest, PercentileExtremeQuantiles) {
  LatencyHistogram h;
  h.Add(123);
  h.Add(456);
  h.Add(789);
  // The extreme quantiles are the exact extremes, not bucket bounds.
  EXPECT_EQ(h.Percentile(0.0), 123u);
  EXPECT_EQ(h.Percentile(-0.5), 123u);
  EXPECT_EQ(h.Percentile(1.0), 789u);
  EXPECT_EQ(h.Percentile(1.5), 789u);
}

TEST(LatencyHistogramTest, EmptyHistogramIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
  EXPECT_TRUE(h.Cdf().empty());
}

TEST(LatencyHistogramTest, SingleValuePercentilesCollapse) {
  LatencyHistogram h;
  h.Add(777);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Percentile(q), 777u) << "quantile " << q;
  }
}

TEST(LatencyHistogramTest, MergeMatchesCombinedPercentiles) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram all;
  Rng rng(17);
  for (int i = 0; i < 20000; i++) {
    const uint64_t v = 50 + rng.NextBelow(100000);
    (i % 3 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.Percentile(q), all.Percentile(q)) << "quantile " << q;
  }
}

TEST(LatencyHistogramTest, MergeIntoEmptyPreservesExtremes) {
  LatencyHistogram a;
  LatencyHistogram b;
  b.Add(42);
  b.Add(9000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 9000u);
  a.Merge(LatencyHistogram());  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 9000u);
}

TEST(LatencyHistogramTest, CdfRoundTripsPercentiles) {
  LatencyHistogram h;
  Rng rng(23);
  for (int i = 0; i < 5000; i++) {
    h.Add(1 + rng.NextBelow(1u << 20));
  }
  const auto cdf = h.Cdf();
  ASSERT_GE(cdf.size(), 2u);
  // A quantile strictly inside (p_{i-1}, p_i] must land in bucket i: its
  // Percentile is bucket i's upper bound (the CDF point value), capped at the
  // observed max. Probing midpoints keeps the check clear of floating-point
  // rank rounding at the bucket boundaries.
  double prev_p = 0.0;
  for (const auto& [value, p] : cdf) {
    const double mid = (prev_p + p) / 2;
    EXPECT_EQ(h.Percentile(mid), std::min(value, h.max()))
        << "cdf point (" << value << ", " << p << ")";
    prev_p = p;
  }
}

TEST(HashingTest, DeterministicAndSeedSensitive) {
  const uint8_t data[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(HashBytes(data, 5), HashBytes(data, 5));
  EXPECT_NE(HashBytes(data, 5, 0), HashBytes(data, 5, 1));
}

TEST(HashingTest, LengthMatters) {
  const uint8_t data[] = {0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_NE(HashBytes(data, 4), HashBytes(data, 8));
}

TEST(HashingTest, AvalancheOnSingleBitFlip) {
  uint8_t a[16] = {};
  uint8_t b[16] = {};
  b[7] ^= 1;
  const uint64_t ha = HashBytes(a, 16);
  const uint64_t hb = HashBytes(b, 16);
  EXPECT_GE(__builtin_popcountll(ha ^ hb), 16);
}

TEST(HashingTest, KeyHashFieldsAreInRange) {
  for (uint64_t i = 0; i < 1000; i++) {
    const KeyHash kh{Mix64(i)};
    EXPECT_LT(kh.SecondaryHash(), 512);
    EXPECT_LT(kh.StationSlot(), 1024);
    EXPECT_LT(kh.BucketIndex(77), 77u);
  }
}

TEST(HashingTest, BucketIndexIsRoughlyUniform) {
  constexpr uint64_t kBuckets = 64;
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t i = 0; i < 64000; i++) {
    uint8_t key[8];
    std::memcpy(key, &i, 8);
    counts[HashKey(key).BucketIndex(kBuckets)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 1000, 150);
  }
}

TEST(UnitsTest, PicosPerByteRoundTrip) {
  // 1 GB/s -> 1000 ps per byte.
  EXPECT_DOUBLE_EQ(PicosPerByte(1e9), 1000.0);
  // PCIe Gen3 x8: 7.87 GB/s -> ~127 ps per byte.
  EXPECT_NEAR(PicosPerByte(7.87e9), 127.06, 0.01);
}

}  // namespace
}  // namespace kvd

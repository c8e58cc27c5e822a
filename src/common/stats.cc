#include "src/common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "src/common/assert.h"

namespace kvd {

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

int LatencyHistogram::BucketFor(uint64_t value) {
  if (value < (1u << kSubBucketBits)) {
    return static_cast<int>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - kSubBucketBits;
  const auto sub = static_cast<int>((value >> shift) & ((1u << kSubBucketBits) - 1));
  return ((msb - kSubBucketBits + 1) << kSubBucketBits) + sub;
}

uint64_t LatencyHistogram::BucketUpperBound(int bucket) {
  if (bucket < (1 << kSubBucketBits)) {
    return static_cast<uint64_t>(bucket);
  }
  const int exponent = (bucket >> kSubBucketBits) - 1;
  const int sub = bucket & ((1 << kSubBucketBits) - 1);
  const uint64_t base = uint64_t{1} << (exponent + kSubBucketBits);
  const uint64_t step = uint64_t{1} << exponent;
  return base + static_cast<uint64_t>(sub + 1) * step - 1;
}

void LatencyHistogram::Add(uint64_t value) {
  const int bucket = BucketFor(value);
  KVD_DCHECK(bucket >= 0 && bucket < kNumBuckets);
  buckets_[static_cast<size_t>(bucket)]++;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_++;
  sum_ += value;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (size_t i = 0; i < buckets_.size(); i++) {
    buckets_[i] += other.buckets_[i];
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

double LatencyHistogram::mean() const {
  return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
}

uint64_t LatencyHistogram::Percentile(double quantile) const {
  if (count_ == 0) {
    return 0;
  }
  // The scan below finds the bucket holding the target *rank*, which is only
  // defined for ranks 1..count; the extreme quantiles are the exact extremes.
  if (quantile <= 0.0) {
    return min_;
  }
  if (quantile >= 1.0) {
    return max_;
  }
  const auto target = static_cast<uint64_t>(
      std::ceil(quantile * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; i++) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen >= target) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

std::vector<std::pair<uint64_t, double>> LatencyHistogram::Cdf() const {
  std::vector<std::pair<uint64_t, double>> out;
  if (count_ == 0) {
    return out;
  }
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; i++) {
    const uint64_t n = buckets_[static_cast<size_t>(i)];
    if (n == 0) {
      continue;
    }
    seen += n;
    out.emplace_back(BucketUpperBound(i),
                     static_cast<double>(seen) / static_cast<double>(count_));
  }
  return out;
}

std::string LatencyHistogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f min=%llu p50=%llu p95=%llu p99=%llu max=%llu",
                static_cast<unsigned long long>(count_), mean(),
                static_cast<unsigned long long>(min()),
                static_cast<unsigned long long>(Percentile(0.50)),
                static_cast<unsigned long long>(Percentile(0.95)),
                static_cast<unsigned long long>(Percentile(0.99)),
                static_cast<unsigned long long>(max()));
  return buf;
}

}  // namespace kvd

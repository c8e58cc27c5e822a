// Latency statistics used by the hardware models and the benchmark harness:
// an HDR-style histogram for latency percentiles (the paper reports
// 5th/95th/99th percentiles and tail latency).
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kvd {

// Log-linear histogram: values bucketed with ~1.5% relative error, constant
// memory, O(1) insert. Suitable for latency distributions spanning ns..ms.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Add(uint64_t value);
  void Merge(const LatencyHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  double mean() const;
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  uint64_t max() const { return count_ > 0 ? max_ : 0; }

  // quantile in [0, 1]; returns an upper bound of the bucket containing it.
  uint64_t Percentile(double quantile) const;

  // Cumulative distribution sampled at each non-empty bucket: (value, cdf).
  std::vector<std::pair<uint64_t, double>> Cdf() const;

  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per power of two
  static constexpr int kNumBuckets = 64 << kSubBucketBits;

  static int BucketFor(uint64_t value);
  static uint64_t BucketUpperBound(int bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace kvd

#endif  // SRC_COMMON_STATS_H_

// YCSB-style workload generation (paper §5: "For system benchmark, we use
// YCSB workload. For skewed Zipf workload, we choose skewness 0.99 and refer
// it as long-tail workload").
#ifndef SRC_WORKLOAD_YCSB_H_
#define SRC_WORKLOAD_YCSB_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/common/zipf.h"
#include "src/net/kv_types.h"

namespace kvd {

enum class KeyDistribution : uint8_t {
  kUniform,
  kLongTail,  // scrambled Zipf, theta = 0.99
};

struct WorkloadConfig {
  uint64_t num_keys = 100000;
  uint32_t key_bytes = 8;    // ids encoded little-endian, zero padded
  uint32_t value_bytes = 8;  // kv size = key_bytes + value_bytes
  double get_ratio = 1.0;    // remainder are PUTs
  KeyDistribution distribution = KeyDistribution::kUniform;
  double zipf_theta = 0.99;
  uint64_t seed = 42;

  // The paper's named mixes.
  static WorkloadConfig YcsbA() {
    WorkloadConfig config;
    config.get_ratio = 0.5;
    return config;
  }
  static WorkloadConfig YcsbB() {
    WorkloadConfig config;
    config.get_ratio = 0.95;
    return config;
  }
};

class YcsbWorkload {
 public:
  explicit YcsbWorkload(const WorkloadConfig& config);

  // Encodes key id -> key bytes (stable across calls).
  std::vector<uint8_t> KeyFor(uint64_t id) const;

  // Samples the configured popularity distribution.
  uint64_t NextKeyId();

  // Produces the next operation of the mix. PUT values are filled with a
  // per-operation byte pattern so overwrites are distinguishable.
  KvOperation NextOp();

  // All (key, value) pairs for preloading the store to a target size.
  KvOperation LoadOpFor(uint64_t id) const;

  const WorkloadConfig& config() const { return config_; }

 private:
  WorkloadConfig config_;
  Rng rng_;
  ZipfGenerator zipf_;
  uint64_t op_counter_ = 0;
};

}  // namespace kvd

#endif  // SRC_WORKLOAD_YCSB_H_

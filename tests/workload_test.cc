// Tests for the YCSB workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/workload/ycsb.h"

namespace kvd {
namespace {

TEST(YcsbTest, KeyEncodingStableAndSized) {
  WorkloadConfig config;
  config.key_bytes = 10;
  YcsbWorkload workload(config);
  const auto key = workload.KeyFor(0x1234);
  EXPECT_EQ(key.size(), 10u);
  EXPECT_EQ(key, workload.KeyFor(0x1234));
  EXPECT_NE(key, workload.KeyFor(0x1235));
}

TEST(YcsbTest, GetRatioHonored) {
  WorkloadConfig config = WorkloadConfig::YcsbB();  // 95% GET
  YcsbWorkload workload(config);
  int gets = 0;
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; i++) {
    gets += workload.NextOp().opcode == Opcode::kGet ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(gets) / kOps, 0.95, 0.01);
}

TEST(YcsbTest, PureWriteMix) {
  WorkloadConfig config;
  config.get_ratio = 0.0;
  config.value_bytes = 32;
  YcsbWorkload workload(config);
  for (int i = 0; i < 100; i++) {
    const KvOperation op = workload.NextOp();
    EXPECT_EQ(op.opcode, Opcode::kPut);
    EXPECT_EQ(op.value.size(), 32u);
  }
}

TEST(YcsbTest, UniformKeysCoverSpace) {
  WorkloadConfig config;
  config.num_keys = 100;
  YcsbWorkload workload(config);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; i++) {
    counts[workload.NextKeyId()]++;
  }
  const auto [min_it, max_it] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*min_it, 100);
  EXPECT_LT(*max_it, 350);
}

TEST(YcsbTest, LongTailIsSkewed) {
  WorkloadConfig config;
  config.num_keys = 10000;
  config.distribution = KeyDistribution::kLongTail;
  YcsbWorkload workload(config);
  std::vector<int> counts(10000, 0);
  constexpr int kOps = 100000;
  for (int i = 0; i < kOps; i++) {
    counts[workload.NextKeyId()]++;
  }
  std::sort(counts.rbegin(), counts.rend());
  // Zipf 0.99: the hottest key draws several percent of all traffic and the
  // top 100 keys a large share.
  EXPECT_GT(counts[0], kOps / 100);
  int top100 = 0;
  for (int i = 0; i < 100; i++) {
    top100 += counts[i];
  }
  EXPECT_GT(top100, kOps / 4);
}

TEST(YcsbTest, DeterministicForSeed) {
  WorkloadConfig config = WorkloadConfig::YcsbA();
  YcsbWorkload a(config);
  YcsbWorkload b(config);
  for (int i = 0; i < 100; i++) {
    const KvOperation op_a = a.NextOp();
    const KvOperation op_b = b.NextOp();
    EXPECT_EQ(op_a.opcode, op_b.opcode);
    EXPECT_EQ(op_a.key, op_b.key);
  }
}

TEST(YcsbTest, LoadOpsDeterministic) {
  WorkloadConfig config;
  config.value_bytes = 24;
  YcsbWorkload workload(config);
  const KvOperation op = workload.LoadOpFor(7);
  EXPECT_EQ(op.opcode, Opcode::kPut);
  EXPECT_EQ(op.value.size(), 24u);
  EXPECT_EQ(op.value, workload.LoadOpFor(7).value);
}

}  // namespace
}  // namespace kvd

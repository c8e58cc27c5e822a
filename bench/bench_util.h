// Shared helpers for the figure/table regeneration benchmarks.
//
// Every bench binary prints the same rows/series as the corresponding figure
// or table in the paper's evaluation (§5); EXPERIMENTS.md records
// paper-versus-measured values. All simulations are deterministic.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_key.h"
#include "bench/json_report.h"
#include "src/common/assert.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/net/wire_format.h"
#include "src/transport/frame.h"
#include "src/transport/kv_endpoint.h"
#include "src/workload/ycsb.h"

namespace kvd {
namespace bench {

// Numbered 8 B values (keys are bench_key.h's Key), and a value read back
// as a number.
inline std::vector<uint8_t> U64Value(uint64_t v) {
  std::vector<uint8_t> value(8);
  std::memcpy(value.data(), &v, 8);
  return value;
}

inline uint64_t AsU64(const std::vector<uint8_t>& value) {
  uint64_t v = 0;
  std::memcpy(&v, value.data(), std::min<size_t>(8, value.size()));
  return v;
}

// Preloads `count` keys from the workload into any store with a Load (a
// server, a MultiNicServer, a group, a cluster), untimed. Returns the number
// actually inserted (stops at the first refusal, e.g. OOM). The next
// kPreloadLookahead ops wait in a ring; on a server each op's bucket line is
// prefetched as it enters the ring, so the host's cache misses overlap
// instead of stalling every Load in turn.
inline constexpr uint64_t kPreloadLookahead = 8;

template <typename Store>
uint64_t Preload(Store& store, const YcsbWorkload& workload, uint64_t count) {
  std::array<KvOperation, kPreloadLookahead> ring;
  const auto draw = [&](uint64_t id) {
    KvOperation& op = ring[id % kPreloadLookahead];
    op = workload.LoadOpFor(id);
    if constexpr (requires { store.index().Prefetch(op.key); }) {
      store.index().Prefetch(op.key);
    }
  };
  for (uint64_t id = 0; id < std::min(count, kPreloadLookahead); id++) {
    draw(id);
  }
  for (uint64_t id = 0; id < count; id++) {
    const KvOperation& op = ring[id % kPreloadLookahead];
    if (!store.Load(op.key, op.value).ok()) {
      return id;
    }
    if (id + kPreloadLookahead < count) {
      draw(id + kPreloadLookahead);
    }
  }
  return count;
}

struct DriveOptions {
  uint64_t total_ops = 50000;
  uint32_t pipeline_depth = 512;  // ops kept outstanding (closed loop)
  uint32_t ops_per_packet = 40;   // DriveFramed: client-side batch size
  uint32_t packet_payload = 4096;  // DriveFramed: ops bytes per packet
};

struct DriveResult {
  double mops = 0;          // sustained throughput in simulated time
  double elapsed_us = 0;
  LatencyHistogram latency_ns;  // per-operation (submit -> result)
};

// Closed-loop driver over the framed client path (the 40 GbE model, frame
// codec, replay cache and retransmission timer production traffic takes):
// max(1, pipeline_depth / ops_per_packet) Clients on the server's clock, each
// keeping one single-packet flush in flight and refilled the moment it
// completes, until `total_ops` operations from `next_op` retire. A flush
// takes ops while it holds fewer than ops_per_packet and their encoded size
// fits packet_payload; the op that does not fit opens the next flush.
// Latency is the flush round trip, recorded once per packet.
inline DriveResult DriveFramed(KvDirectServer& server, const DriveOptions& options,
                               const std::function<KvOperation()>& next_op) {
  Simulator& sim = server.simulator();
  Client::Options client_options;
  client_options.batch_payload_bytes =
      options.packet_payload + static_cast<uint32_t>(kFrameHeaderBytes);
  struct Lane {
    std::unique_ptr<Client> client;
    uint32_t ops = 0;  // in the flush in flight; 0 when idle
    SimTime issued = 0;
  };
  std::vector<Lane> lanes(std::max<uint32_t>(1, options.pipeline_depth / options.ops_per_packet));
  // Lanes whose flush completed during the current simulator step.
  std::vector<size_t> finished;
  for (size_t i = 0; i < lanes.size(); i++) {
    lanes[i].client = std::make_unique<Client>(server, client_options);
    lanes[i].client->set_on_flush_done([&finished, i] { finished.push_back(i); });
  }

  DriveResult result;
  const SimTime start = sim.Now();
  uint64_t submitted = 0;
  uint64_t completed = 0;
  std::optional<KvOperation> carry;  // drawn, but did not fit the last flush
  KvOperation previous;              // the flush's last op (wire compression)
  auto begin_flush = [&](Lane& lane) {
    uint32_t bytes = 0;
    lane.ops = 0;
    while (lane.ops < options.ops_per_packet && submitted < options.total_ops) {
      KvOperation op = carry.has_value() ? std::move(*carry) : next_op();
      carry.reset();
      const uint32_t size = EncodedOperationSize(
          op, lane.ops == 0 ? nullptr : &previous, /*enable_compression=*/true);
      if (lane.ops > 0 && bytes + size > options.packet_payload) {
        carry = std::move(op);
        break;
      }
      bytes += size;
      lane.ops++;
      submitted++;
      lane.client->Enqueue(op);
      previous = std::move(op);
    }
    if (lane.ops > 0) {
      lane.issued = sim.Now();
      lane.client->BeginFlush();
    }
  };
  for (Lane& lane : lanes) {
    begin_flush(lane);
  }
  while (completed < options.total_ops && sim.Step()) {
    // Refill in lane order, however the completions were ordered in the
    // step. Indexed, so a refill that completes at once may append.
    std::ranges::sort(finished);
    for (size_t k = 0; k < finished.size(); k++) {
      Lane& lane = lanes[finished[k]];
      (void)lane.client->TakeResults();
      completed += lane.ops;
      result.latency_ns.Add((sim.Now() - lane.issued) / kNanosecond);
      begin_flush(lane);
    }
    finished.clear();
  }
  result.elapsed_us = static_cast<double>(sim.Now() - start) / kMicrosecond;
  result.mops = static_cast<double>(completed) / result.elapsed_us;
  return result;
}

// Closed-batch driver over any KvEndpoint: issues `total_ops` operations from
// `next_op` in batches of `batch`, flushing each batch to completion through
// the endpoint's own reliability/topology. Returns elapsed simulated time.
inline SimTime DriveBatches(KvEndpoint& ep, uint64_t total_ops, uint64_t batch,
                            const std::function<KvOperation()>& next_op) {
  const SimTime start = ep.now();
  for (uint64_t issued = 0; issued < total_ops;) {
    for (uint64_t i = 0; i < batch && issued < total_ops; i++, issued++) {
      ep.Enqueue(next_op());
    }
    ep.Flush();
  }
  return ep.now() - start;
}

// Closed-loop throughput of the processor alone (no network): keeps
// `pipeline_depth` operations outstanding until `total_ops` retire.
inline DriveResult Drive(KvDirectServer& server, YcsbWorkload& workload,
                         const DriveOptions& options) {
  Simulator& sim = server.simulator();
  DriveResult result;
  const SimTime start = sim.Now();
  uint64_t submitted = 0;
  uint64_t completed = 0;

  std::function<void()> submit_one = [&] {
    if (submitted >= options.total_ops) {
      return;
    }
    submitted++;
    const SimTime issued = sim.Now();
    server.Submit(workload.NextOp(), [&, issued](KvResultMessage) {
      completed++;
      result.latency_ns.Add((sim.Now() - issued) / kNanosecond);
      submit_one();
    });
  };
  for (uint32_t i = 0; i < options.pipeline_depth; i++) {
    submit_one();
  }
  while (completed < options.total_ops && sim.Step()) {
  }

  result.elapsed_us = static_cast<double>(sim.Now() - start) / kMicrosecond;
  result.mops = static_cast<double>(completed) / result.elapsed_us;
  return result;
}

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("\n=== %s — %s ===\n", figure, description);
}

// One JSON row from sweep parameters plus a DriveResult's throughput and
// latency percentiles (the record shape EXPERIMENTS.md documents).
inline void AddDriveRow(JsonReport& report, JsonReport::Fields fields,
                        const DriveResult& result) {
  fields.emplace_back("mops", result.mops);
  fields.emplace_back("elapsed_us", result.elapsed_us);
  fields.emplace_back("latency_mean_ns", result.latency_ns.mean());
  fields.emplace_back("latency_p50_ns",
                      static_cast<double>(result.latency_ns.Percentile(0.50)));
  fields.emplace_back("latency_p95_ns",
                      static_cast<double>(result.latency_ns.Percentile(0.95)));
  fields.emplace_back("latency_p99_ns",
                      static_cast<double>(result.latency_ns.Percentile(0.99)));
  report.AddRow(std::move(fields));
}

}  // namespace bench
}  // namespace kvd

#endif  // BENCH_BENCH_UTIL_H_

// Topology-independent client interface.
//
// Every client in the repo speaks this interface, so a benchmark or test
// driver written once (bench/bench_util.h DriveBatches, the YCSB harness)
// runs unchanged against any topology. Client (one server), MultiNicClient
// (hash-partitioned NICs), ReplicatedClient (one replicated group) and
// ClusterClient (sharded replicated groups) are routers over one batching
// core (src/transport/batch_client.h), so every endpoint runs on one clock.
//
// Enqueue/Flush is the reliable batched path all endpoints implement. The
// synchronous single-operation calls (Get, Put, ...) are one-op flushes
// over it, so every endpoint has them.
//
// The consistency harness taps this interface too: RecordingEndpoint
// (src/check/history.h) wraps any KvEndpoint and captures every op's
// invoke/return interval and observed result for the linearizability checker
// — one wrapper covers every topology.
#ifndef SRC_TRANSPORT_KV_ENDPOINT_H_
#define SRC_TRANSPORT_KV_ENDPOINT_H_

#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/net/kv_types.h"
#include "src/sim/simulator.h"

namespace kvd {

class KvEndpoint {
 public:
  // Wire-level counters, owned by the client (stable address, readable
  // through its stats()).
  struct Stats {
    uint64_t packets_sent = 0;  // distinct frames (first transmissions)
    uint64_t retransmits = 0;   // timeout-driven re-sends
    uint64_t busy_retries = 0;  // ops re-sent after kBusy/kOverloaded
    // Response frames dropped: bit-flipped, foreign or inconsistent
    // (corrupt), or for an already-completed packet (duplicate).
    uint64_t corrupt_responses = 0;
    uint64_t duplicate_responses = 0;
    uint64_t deadline_failures = 0;  // packets abandoned past their deadline
    uint64_t budget_exhausted = 0;   // retransmits suppressed by the budget
  };

  virtual ~KvEndpoint() = default;

  // Queues one operation; returns its slot in the next Flush()'s results.
  virtual size_t Enqueue(KvOperation op) = 0;

  // Sends everything queued and runs the simulation until every operation
  // has a result (in Enqueue order).
  virtual std::vector<KvResultMessage> Flush() = 0;

  // Wire-level counters (retransmits, corrupt/duplicate responses, ...).
  virtual Stats endpoint_stats() const = 0;

  // Simulated clock, for latency measurement around Enqueue/Flush.
  virtual SimTime now() const = 0;

  // Advances the endpoint's simulation by one event; false when idle.
  virtual bool Step() = 0;

  // --- single synchronous operations (each one Enqueue + Flush; nothing
  // else may be queued) ---
  Result<std::vector<uint8_t>> Get(std::span<const uint8_t> key);
  Status Put(std::span<const uint8_t> key, std::span<const uint8_t> value);
  Status Delete(std::span<const uint8_t> key);
  // Atomic scalar update (e.g. fetch-and-add); returns the original value.
  Result<uint64_t> Update(std::span<const uint8_t> key, uint64_t param,
                          uint16_t function_id = kFnAddU64,
                          uint8_t element_width = 8);
  // Vector operations (Table 1).
  Result<std::vector<uint8_t>> UpdateVectorWithScalar(std::span<const uint8_t> key,
                                                      uint64_t param,
                                                      uint16_t function_id,
                                                      uint8_t element_width);
  Result<std::vector<uint8_t>> UpdateVectorWithVector(std::span<const uint8_t> key,
                                                      std::span<const uint8_t> params,
                                                      uint16_t function_id,
                                                      uint8_t element_width);
  Result<uint64_t> Reduce(std::span<const uint8_t> key, uint64_t initial,
                          uint16_t function_id, uint8_t element_width);
  Result<std::vector<uint8_t>> Filter(std::span<const uint8_t> key, uint64_t param,
                                      uint16_t function_id, uint8_t element_width);

 private:
  KvResultMessage Call(KvOperation op);
};

}  // namespace kvd

#endif  // SRC_TRANSPORT_KV_ENDPOINT_H_

// Host-side per-layer probes for the traced pass.
//
// Each probe times, from the benchmark's own files, calls into one layer's
// public functions, fed with the workload's own ops and results as the
// traced replay recorded them: the hash index and slab allocator of the
// loaded store, the wire encoder/decoder, the frame codec, and the event
// core at the depth the replay ran at. Every probe repeats its pass and
// reports the median repetition.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "perfbench/topology.h"

namespace kvd {
namespace perfbench {

// A prefix of the replay's batches.
struct OpSample {
  std::vector<std::vector<KvOperation>> batches;
  std::vector<std::vector<KvResultMessage>> results;
};

struct LayerTimes {
  double hash_get_ns = 0;
  double hash_put_ns = 0;
  double alloc_free_ns = 0;     // Allocate + Free at the 60 B KV class
  double encode_ns_per_op = 0;  // PacketBuilder + EncodeResults
  double decode_ns_per_op = 0;  // PacketParser + DecodeResults
  double frame_ns_per_packet = 0;  // FramePacket + ParseFrame
  double sim_ns_per_event = 0;     // Schedule + Step of a no-op callback
};

// Mutates the store (hash Put, allocator churn): run it after the checks.
LayerTimes ProbeLayers(Topology& topology, const OpSample& sample,
                       uint64_t event_depth, uint64_t seed);

}  // namespace perfbench
}  // namespace kvd

#endif  // PERFBENCH_LAYERS_H_

#include "perfbench/layers.h"

#include <algorithm>
#include <utility>

#include "perfbench/phase.h"
#include "src/common/assert.h"
#include "src/common/random.h"
#include "src/hash/hash_index.h"
#include "src/net/wire_format.h"
#include "src/transport/frame.h"

namespace kvd {
namespace perfbench {
namespace {

constexpr size_t kMinReps = 5;
constexpr size_t kMaxReps = 200;
constexpr int64_t kMinProbeNs = 200 * 1000 * 1000;
constexpr uint32_t kPacketPayloadBytes = 4096;  // the clients' default budget

// Repeats `pass` (which returns the wall ns it timed and the calls it made)
// at least kMinReps times and for kMinProbeNs; returns the median ns/call.
template <typename Pass>
double MedianNsPerCall(Pass pass) {
  std::vector<double> per_call;
  int64_t total_ns = 0;
  while ((per_call.size() < kMinReps || total_ns < kMinProbeNs) &&
         per_call.size() < kMaxReps) {
    const auto [ns, calls] = pass();
    total_ns += static_cast<int64_t>(ns);
    if (calls == 0) {
      return 0;
    }
    per_call.push_back(ns / static_cast<double>(calls));
  }
  return QuartilesOf(std::move(per_call)).median;
}

double ElapsedNs(const HostTime& start) {
  return static_cast<double>(HostNow().wall_ns - start.wall_ns);
}

// The sample's batches packed in order into 4 KiB packets, as the
// single-server client packs them: request payloads and, per packet, the
// results it answers.
struct Packets {
  std::vector<std::vector<uint8_t>> requests;
  std::vector<std::vector<KvResultMessage>> results;
  uint64_t ops = 0;
};

Packets Pack(const OpSample& sample) {
  Packets packets;
  for (size_t b = 0; b < sample.batches.size(); b++) {
    PacketBuilder builder(kPacketPayloadBytes);
    std::vector<KvResultMessage> answered;
    const std::vector<KvOperation>& ops = sample.batches[b];
    for (size_t i = 0; i < ops.size(); i++) {
      if (!builder.Add(ops[i])) {
        packets.requests.push_back(builder.Finish());
        packets.results.push_back(std::move(answered));
        answered.clear();
        KVD_CHECK(builder.Add(ops[i]));
      }
      answered.push_back(sample.results[b][i]);
    }
    packets.requests.push_back(builder.Finish());
    packets.results.push_back(std::move(answered));
    packets.ops += ops.size();
  }
  return packets;
}

double HashGetNs(Topology& topology, const OpSample& sample) {
  std::vector<std::pair<HashIndex*, const std::vector<uint8_t>*>> gets;
  for (const std::vector<KvOperation>& batch : sample.batches) {
    for (const KvOperation& op : batch) {
      if (op.opcode == Opcode::kGet) {
        gets.emplace_back(&topology.PrimaryFor(op.key).index(), &op.key);
      }
    }
  }
  std::vector<uint8_t> value;
  return MedianNsPerCall([&] {
    const HostTime start = HostNow();
    for (const auto& [index, key] : gets) {
      KVD_CHECK(index->Get(*key, value).ok());
    }
    return std::make_pair(ElapsedNs(start), gets.size());
  });
}

double HashPutNs(Topology& topology, const OpSample& sample) {
  std::vector<std::pair<HashIndex*, const KvOperation*>> puts;
  for (const std::vector<KvOperation>& batch : sample.batches) {
    for (const KvOperation& op : batch) {
      if (op.opcode == Opcode::kPut) {
        puts.emplace_back(&topology.PrimaryFor(op.key).index(), &op);
      }
    }
  }
  return MedianNsPerCall([&] {
    const HostTime start = HostNow();
    for (const auto& [index, op] : puts) {
      KVD_CHECK(index->Put(op->key, op->value).ok());
    }
    return std::make_pair(ElapsedNs(start), puts.size());
  });
}

double AllocFreeNs(Topology& topology, const OpSample& sample) {
  // A 60 B KV (8 B key + 52 B value) plus the slab header: the 64 B class.
  constexpr uint32_t kSlabBytes = 60 + HashIndex::kSlabHeaderBytes;
  constexpr size_t kPairs = 4096;
  SlabAllocator& allocator =
      topology.PrimaryFor(sample.batches.at(0).at(0).key).allocator();
  std::vector<uint64_t> addresses(kPairs);
  return MedianNsPerCall([&] {
    const HostTime start = HostNow();
    for (uint64_t& address : addresses) {
      Result<uint64_t> allocated = allocator.Allocate(kSlabBytes);
      KVD_CHECK(allocated.ok());
      address = *allocated;
    }
    for (uint64_t address : addresses) {
      allocator.Free(address, kSlabBytes);
    }
    return std::make_pair(ElapsedNs(start), kPairs);
  });
}

double EncodeNsPerOp(const OpSample& sample, const Packets& packets) {
  return MedianNsPerCall([&] {
    const HostTime start = HostNow();
    size_t bytes = 0;
    for (const std::vector<KvOperation>& ops : sample.batches) {
      PacketBuilder builder(kPacketPayloadBytes);
      for (const KvOperation& op : ops) {
        if (!builder.Add(op)) {
          bytes += builder.Finish().size();
          KVD_CHECK(builder.Add(op));
        }
      }
      bytes += builder.Finish().size();
    }
    for (const std::vector<KvResultMessage>& results : packets.results) {
      bytes += EncodeResults(results).size();
    }
    KVD_CHECK(bytes > 0);
    return std::make_pair(ElapsedNs(start), packets.ops);
  });
}

double DecodeNsPerOp(const Packets& packets) {
  std::vector<std::vector<uint8_t>> responses;
  for (const std::vector<KvResultMessage>& results : packets.results) {
    responses.push_back(EncodeResults(results));
  }
  return MedianNsPerCall([&] {
    // The parser owns its payload, as the server's does; copy outside the
    // timer.
    std::vector<std::vector<uint8_t>> requests = packets.requests;
    const HostTime start = HostNow();
    uint64_t decoded = 0;
    for (std::vector<uint8_t>& request : requests) {
      PacketParser parser(std::move(request));
      while (true) {
        Result<std::optional<KvOperation>> next = parser.Next();
        KVD_CHECK(next.ok());
        if (!next->has_value()) {
          break;
        }
        decoded++;
      }
    }
    for (const std::vector<uint8_t>& response : responses) {
      Result<std::vector<KvResultMessage>> results = DecodeResults(response);
      KVD_CHECK(results.ok());
      decoded += results->size();
    }
    KVD_CHECK(decoded == 2 * packets.ops);
    return std::make_pair(ElapsedNs(start), packets.ops);
  });
}

double FrameNsPerPacket(const Packets& packets) {
  uint64_t sequence = 1;
  return MedianNsPerCall([&] {
    const HostTime start = HostNow();
    for (const std::vector<uint8_t>& payload : packets.requests) {
      const std::vector<uint8_t> frame = FramePacket(sequence++, payload);
      KVD_CHECK(ParseFrame(frame).ok());
    }
    return std::make_pair(ElapsedNs(start), packets.requests.size());
  });
}

double SimNsPerEvent(uint64_t depth, uint64_t seed) {
  constexpr uint64_t kEvents = 1 << 16;
  constexpr SimTime kHorizon = 10 * kMicrosecond;
  Simulator sim;
  Rng rng(seed);
  for (uint64_t i = 0; i < depth; i++) {
    sim.Schedule(rng.NextBelow(kHorizon), [] {});
  }
  std::vector<SimTime> delays(kEvents);
  for (SimTime& delay : delays) {
    delay = rng.NextBelow(kHorizon);
  }
  return MedianNsPerCall([&] {
    const HostTime start = HostNow();
    for (SimTime delay : delays) {
      sim.Schedule(delay, [] {});
      KVD_CHECK(sim.Step());
    }
    return std::make_pair(ElapsedNs(start), kEvents);
  });
}

}  // namespace

LayerTimes ProbeLayers(Topology& topology, const OpSample& sample,
                       uint64_t event_depth, uint64_t seed) {
  KVD_CHECK(!sample.batches.empty());
  const Packets packets = Pack(sample);
  LayerTimes times;
  times.encode_ns_per_op = EncodeNsPerOp(sample, packets);
  times.decode_ns_per_op = DecodeNsPerOp(packets);
  times.frame_ns_per_packet = FrameNsPerPacket(packets);
  times.sim_ns_per_event = SimNsPerEvent(event_depth, seed);
  times.hash_get_ns = HashGetNs(topology, sample);
  times.hash_put_ns = HashPutNs(topology, sample);
  times.alloc_free_ns = AllocFreeNs(topology, sample);
  return times;
}

}  // namespace perfbench
}  // namespace kvd

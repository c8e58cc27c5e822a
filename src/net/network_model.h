// Timing model of the 40 GbE path between clients and the KV server
// (paper §4, §5: 5 GB/s, ~2 µs RTT, 88 B RDMA-over-Ethernet header +
// padding per packet).
//
// Each direction is an independent serial wire; a packet occupies it for
// (overhead + payload) / bandwidth and arrives one-way-latency later.
#ifndef SRC_NET_NETWORK_MODEL_H_
#define SRC_NET_NETWORK_MODEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"
#include "src/sim/simulator.h"

namespace kvd {

struct NetworkConfig {
  double bandwidth_bytes_per_sec = 5e9;  // 40 Gbps
  SimTime one_way_latency = 1 * kMicrosecond;
  uint32_t per_packet_overhead_bytes = 88;
  // Per-packet processing at the endpoints (header parse, CRC, doorbells):
  // caps the packet rate near ~15 Mpps, the message-rate ballpark the paper
  // cites for RDMA NICs (§2.2) — this, not wire bytes, is what client-side
  // batching amortizes (Figure 15).
  SimTime per_packet_processing = 60 * kNanosecond;
  uint32_t max_payload_bytes = 4096;
};

class NetworkModel {
 public:
  NetworkModel(Simulator& sim, const NetworkConfig& config);

  using PayloadHandler = std::function<void(std::vector<uint8_t>)>;

  // Client -> server and server -> client sends; `delivered` fires with the
  // payload at arrival. When a FaultInjector is attached, packets may be
  // dropped (delivered never fires; the wire is still occupied), duplicated
  // (delivered fires twice, two transmissions), or corrupted (bits flipped in
  // flight — the framing checksum catches it at the receiver). The
  // retry/timeout layer in Client/KvDirectServer recovers.
  void SendPayloadToServer(std::vector<uint8_t> payload, PayloadHandler delivered);
  void SendPayloadToClient(std::vector<uint8_t> payload, PayloadHandler delivered);

  // Traced variants: every nonzero handle in `traces` gets one span of
  // `kind` per wire transmission (dropped packets included — they occupied
  // the wire; duplicates record two spans).
  void SendPayloadToServer(std::vector<uint8_t> payload, PayloadHandler delivered,
                           const std::vector<uint64_t>& traces,
                           SpanKind kind = SpanKind::kNetWire);
  void SendPayloadToClient(std::vector<uint8_t> payload, PayloadHandler delivered,
                           const std::vector<uint64_t>& traces,
                           SpanKind kind = SpanKind::kNetWire);

  const NetworkConfig& config() const { return config_; }
  uint64_t packets_to_server() const { return to_server_packets_; }
  uint64_t packets_to_client() const { return to_client_packets_; }
  uint64_t bytes_to_server() const { return to_server_bytes_; }   // incl. overhead
  uint64_t bytes_to_client() const { return to_client_bytes_; }
  uint64_t packets_dropped() const { return dropped_; }
  uint64_t packets_duplicated() const { return duplicated_; }
  uint64_t packets_corrupted() const { return corrupted_; }
  uint64_t partition_dropped() const { return partition_dropped_; }
  uint64_t gray_dropped() const { return gray_dropped_; }

  // --- scriptable link health (partitions and gray failure) ---
  // Hard partition of one direction: every packet is dropped (it
  // still occupies the wire — the bits leave; they just never arrive).
  // Setting only one direction models an asymmetric partition; both model a
  // full one.
  void SetPartitioned(bool to_server, bool on) {
    (to_server ? to_server_health_ : to_client_health_).partitioned = on;
  }
  bool partitioned(bool to_server) const {
    return (to_server ? to_server_health_ : to_client_health_).partitioned;
  }
  // Gray link: slow-but-alive. `latency_multiplier` scales both serialization
  // occupancy and propagation latency; `loss_probability` drops packets
  // independently of any FaultInjector (own per-direction RNG stream, so
  // enabling it never perturbs injector event sequences). Pass (1.0, 0.0) to
  // restore a healthy link.
  void SetGrayLink(bool to_server, double latency_multiplier,
                   double loss_probability, uint64_t seed = 0) {
    LinkHealth& health = to_server ? to_server_health_ : to_client_health_;
    health.latency_multiplier = latency_multiplier;
    health.loss_probability = loss_probability;
    health.rng.Seed(Mix64(seed ^ (to_server ? 0x67a1ULL : 0x67a2ULL)));
  }

  void RegisterMetrics(MetricRegistry& registry) const;
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  void SetFaultInjector(FaultInjector* injector) { fault_ = injector; }

 private:
  // Per-direction health state for partitions and gray failure.
  struct LinkHealth {
    bool partitioned = false;
    double latency_multiplier = 1.0;
    double loss_probability = 0.0;
    Rng rng;
  };

  // Wire occupancy and delivery are decided synchronously at send time. A
  // lost packet passes no `delivered`: its arrival slot is reserved, not
  // scheduled, so it costs no event.
  struct WireInterval {
    SimTime start = 0;
    SimTime delivery = 0;
  };
  WireInterval Send(const char* direction, uint32_t payload_bytes,
                    SimTime& wire_free_at, uint64_t& packets, uint64_t& bytes,
                    std::function<void()> delivered);
  void SendPayload(bool to_server, std::vector<uint8_t> payload,
                   PayloadHandler delivered,
                   const std::vector<uint64_t>* traces, SpanKind kind);

  Simulator& sim_;
  NetworkConfig config_;
  Tracer* tracer_ = nullptr;
  FaultInjector* fault_ = nullptr;
  double picos_per_byte_;
  SimTime to_server_free_at_ = 0;
  SimTime to_client_free_at_ = 0;
  uint64_t to_server_packets_ = 0;
  uint64_t to_client_packets_ = 0;
  uint64_t to_server_bytes_ = 0;
  uint64_t to_client_bytes_ = 0;
  uint64_t dropped_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t corrupted_ = 0;
  uint64_t partition_dropped_ = 0;
  uint64_t gray_dropped_ = 0;
  LinkHealth to_server_health_;
  LinkHealth to_client_health_;
};

}  // namespace kvd

#endif  // SRC_NET_NETWORK_MODEL_H_

#include "src/net/network_model.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/common/assert.h"

namespace kvd {

NetworkModel::NetworkModel(Simulator& sim, const NetworkConfig& config)
    : sim_(sim),
      config_(config),
      picos_per_byte_(PicosPerByte(config.bandwidth_bytes_per_sec)) {}

NetworkModel::WireInterval NetworkModel::Send(
    const char* direction, uint32_t payload_bytes, SimTime& wire_free_at,
    uint64_t& packets, uint64_t& bytes, std::function<void()> delivered) {
  // Payloads above the MTU budget are segmented into multiple wire packets,
  // each paying the per-packet overhead; delivery fires when the last
  // segment arrives.
  const uint32_t num_packets =
      payload_bytes == 0 ? 1
                         : (payload_bytes + config_.max_payload_bytes - 1) /
                               config_.max_payload_bytes;
  const uint32_t wire_bytes =
      payload_bytes + num_packets * config_.per_packet_overhead_bytes;
  SimTime occupancy =
      static_cast<SimTime>(
          std::llround(static_cast<double>(wire_bytes) * picos_per_byte_)) +
      num_packets * config_.per_packet_processing;
  SimTime latency = config_.one_way_latency;
  // A gray link is slow-but-alive: both serialization and propagation
  // stretch by the configured multiplier.
  const LinkHealth& health = &wire_free_at == &to_server_free_at_
                                 ? to_server_health_
                                 : to_client_health_;
  if (health.latency_multiplier != 1.0) {
    occupancy = static_cast<SimTime>(std::llround(
        static_cast<double>(occupancy) * health.latency_multiplier));
    latency = static_cast<SimTime>(std::llround(
        static_cast<double>(latency) * health.latency_multiplier));
  }
  const SimTime start = std::max(sim_.Now(), wire_free_at);
  wire_free_at = start + occupancy;
  packets += num_packets;
  bytes += wire_bytes;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Complete("net", direction, start, wire_free_at + latency,
                      {{"payload_bytes", payload_bytes}, {"packets", num_packets}});
  }
  if (delivered) {
    sim_.ScheduleAt(wire_free_at + latency, std::move(delivered));
  } else {
    sim_.Reserve(wire_free_at + latency);  // lost: its arrival does nothing
  }
  return {start, wire_free_at + latency};
}

void NetworkModel::SendPayload(bool to_server, std::vector<uint8_t> payload,
                               PayloadHandler delivered,
                               const std::vector<uint64_t>* traces,
                               SpanKind kind) {
  const char* direction = to_server ? "to_server" : "to_client";
  SimTime& free_at = to_server ? to_server_free_at_ : to_client_free_at_;
  uint64_t& packets = to_server ? to_server_packets_ : to_client_packets_;
  uint64_t& bytes = to_server ? to_server_bytes_ : to_client_bytes_;
  const auto size = static_cast<uint32_t>(payload.size());
  auto record = [&](const WireInterval& wire) {
    if (tracer_ == nullptr || traces == nullptr) {
      return;
    }
    for (const uint64_t trace : *traces) {
      tracer_->Span(trace, kind, wire.start, wire.delivery, to_server ? 0 : 1);
    }
  };
  LinkHealth& health = to_server ? to_server_health_ : to_client_health_;
  if (health.partitioned) {
    // Hard partition: the bits leave (wire occupied) but never arrive. The
    // retry layer sees pure silence — exactly what a real partition looks
    // like from the sender's side.
    partition_dropped_++;
    record(Send(direction, size, free_at, packets, bytes, nullptr));
    return;
  }
  if (health.loss_probability > 0.0 &&
      health.rng.NextDouble() < health.loss_probability) {
    // Gray loss: independent RNG stream, so scripting a gray link never
    // perturbs the fault injector's event sequences.
    gray_dropped_++;
    record(Send(direction, size, free_at, packets, bytes, nullptr));
    return;
  }
  if (fault_ != nullptr) {
    // At most one fault per packet, decided in fixed order so that each
    // site's event stream stays deterministic.
    const FaultSite drop = to_server ? FaultSite::kNetDropToServer
                                     : FaultSite::kNetDropToClient;
    const FaultSite duplicate = to_server ? FaultSite::kNetDuplicateToServer
                                          : FaultSite::kNetDuplicateToClient;
    const FaultSite corrupt = to_server ? FaultSite::kNetCorruptToServer
                                        : FaultSite::kNetCorruptToClient;
    if (fault_->ShouldInject(drop)) {
      // The packet occupies the wire like any other, then vanishes.
      dropped_++;
      record(Send(direction, size, free_at, packets, bytes, nullptr));
      return;
    }
    if (fault_->ShouldInject(duplicate)) {
      // Two independent transmissions, both delivered; receivers dedup on
      // the frame sequence number.
      duplicated_++;
      auto handler = std::make_shared<PayloadHandler>(std::move(delivered));
      std::vector<uint8_t> copy = payload;
      record(Send(direction, size, free_at, packets, bytes,
                  [handler, copy = std::move(copy)]() mutable {
                    (*handler)(std::move(copy));
                  }));
      record(Send(direction, size, free_at, packets, bytes,
                  [handler, payload = std::move(payload)]() mutable {
                    (*handler)(std::move(payload));
                  }));
      return;
    }
    if (fault_->ShouldInject(corrupt)) {
      corrupted_++;
      fault_->CorruptBytes(payload, corrupt);
    }
  }
  record(Send(direction, size, free_at, packets, bytes,
              [payload = std::move(payload),
               delivered = std::move(delivered)]() mutable {
                delivered(std::move(payload));
              }));
}

void NetworkModel::SendPayloadToServer(std::vector<uint8_t> payload,
                                       PayloadHandler delivered) {
  SendPayload(true, std::move(payload), std::move(delivered), nullptr,
              SpanKind::kNetWire);
}

void NetworkModel::SendPayloadToClient(std::vector<uint8_t> payload,
                                       PayloadHandler delivered) {
  SendPayload(false, std::move(payload), std::move(delivered), nullptr,
              SpanKind::kNetWire);
}

void NetworkModel::SendPayloadToServer(std::vector<uint8_t> payload,
                                       PayloadHandler delivered,
                                       const std::vector<uint64_t>& traces,
                                       SpanKind kind) {
  SendPayload(true, std::move(payload), std::move(delivered), &traces, kind);
}

void NetworkModel::SendPayloadToClient(std::vector<uint8_t> payload,
                                       PayloadHandler delivered,
                                       const std::vector<uint64_t>& traces,
                                       SpanKind kind) {
  SendPayload(false, std::move(payload), std::move(delivered), &traces, kind);
}

void NetworkModel::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_net_packets_total", "Wire packets sent",
                           {{"direction", "to_server"}}, &to_server_packets_);
  registry.RegisterCounter("kvd_net_packets_total", "Wire packets sent",
                           {{"direction", "to_client"}}, &to_client_packets_);
  registry.RegisterCounter("kvd_net_bytes_total", "Wire bytes (incl. overhead)",
                           {{"direction", "to_server"}}, &to_server_bytes_);
  registry.RegisterCounter("kvd_net_bytes_total", "Wire bytes (incl. overhead)",
                           {{"direction", "to_client"}}, &to_client_bytes_);
  registry.RegisterCounter("kvd_net_dropped_total", "Packets lost to injected faults",
                           {}, &dropped_);
  registry.RegisterCounter("kvd_net_duplicated_total",
                           "Packets duplicated by injected faults", {},
                           &duplicated_);
  registry.RegisterCounter("kvd_net_corrupted_total",
                           "Packets bit-flipped by injected faults", {},
                           &corrupted_);
  registry.RegisterCounter("kvd_net_partition_dropped_total",
                           "Packets dropped by a scripted partition", {},
                           &partition_dropped_);
  registry.RegisterCounter("kvd_net_gray_dropped_total",
                           "Packets dropped by scripted gray-link loss", {},
                           &gray_dropped_);
}

}  // namespace kvd

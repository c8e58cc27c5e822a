// Server-side terminus of the reliable channel.
//
// FrameEndpoint owns the receive half of the framed protocol for one node:
// it parses and checksums incoming frames, deduplicates retransmissions
// against a ReplayCache, and frames + records outgoing responses. The owner
// (KvDirectServer's DeliverFrame, or a ReplicationGroup serving one replica's
// clients through that replica's KvDirectServer::endpoint()) supplies only
// the payload execution in between. Either way a read packet executes in
// the node's packet step (KvDirectServer::ServePacket), which Completes it
// once its last op retires:
//
//   auto frame = endpoint.Accept(packet, respond);   // parse + dedup
//   if (!frame) return;                              // handled: corrupt/replay
//   endpoint.Admit(frame->sequence);                 // pin as in-flight
//   ... execute frame->payload ...
//   respond(endpoint.Complete(sequence, response, /*cache=*/true));
//
// Control responses that must not be memoized (e.g. a replica redirect whose
// answer depends on who is primary right now) pass cache=false to Complete:
// the response is framed but the cache is untouched, so a retransmission
// re-evaluates instead of replaying a stale verdict.
#ifndef SRC_TRANSPORT_FRAME_ENDPOINT_H_
#define SRC_TRANSPORT_FRAME_ENDPOINT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/transport/frame.h"
#include "src/transport/replay_cache.h"

namespace kvd {

class FrameEndpoint {
 public:
  struct Stats {
    uint64_t replayed_responses = 0;  // duplicate answered from the cache
    uint64_t corrupt_frames = 0;      // dropped: truncated or bad checksum
    uint64_t stale_retransmits = 0;   // dropped: original still in flight
  };

  using Responder = std::function<void(std::vector<uint8_t>)>;

  FrameEndpoint(Simulator& sim, ReplayCache::Config config)
      : cache_(sim, config) {}

  // Parses `packet` and classifies its sequence. Returns the frame when the
  // owner should execute it; nullopt when the endpoint already handled it
  // (corrupt frame dropped, replay answered via `respond`, or in-flight
  // duplicate dropped). Does NOT admit — the owner decides that (control
  // responses are never admitted).
  std::optional<Frame> Accept(std::span<const uint8_t> packet,
                              const Responder& respond);

  // Pins `sequence` as in-flight so duplicates arriving during execution are
  // dropped rather than re-executed.
  void Admit(uint64_t sequence) { cache_.Admit(sequence); }

  // Frames `response_payload` under `sequence` and returns the framed bytes.
  // When `cache` is true the framed response is also recorded for replay.
  std::vector<uint8_t> Complete(uint64_t sequence,
                                std::span<const uint8_t> response_payload,
                                bool cache);

  // Forgets in-flight entries whose executions died with the node/regime.
  void DropInFlight() { cache_.DropInFlight(); }

  const Stats& stats() const { return stats_; }

  // Stable addresses for MetricRegistry counter registration.
  const uint64_t* replayed_responses_counter() const { return &stats_.replayed_responses; }
  const uint64_t* corrupt_frames_counter() const { return &stats_.corrupt_frames; }
  const uint64_t* stale_retransmits_counter() const { return &stats_.stale_retransmits; }
  const uint64_t* evict_scan_steps_counter() const { return cache_.evict_scan_steps_counter(); }

 private:
  ReplayCache cache_;
  Stats stats_;
};

}  // namespace kvd

#endif  // SRC_TRANSPORT_FRAME_ENDPOINT_H_

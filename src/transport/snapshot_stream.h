// Chunked snapshot streaming: the one sender/receiver pair that moves a
// partition's state over a lossy, rate-paced link.
//
// Two owners use it: replica state transfer (src/replica) and live shard
// migration (src/cluster). The stream owns the protocol and the owner
// supplies what differs through hooks:
//
//   wire     — (sender) puts one pre-framed chunk on the wire toward the
//              receiver and arranges for the receiving owner to see it.
//   install  — (receiver) applies the chunk at the cursor to the target. It
//              may refuse (return false): the cursor stays put and go-back-N
//              offers the same chunk again later.
//
// Protocol, shared by both owners:
//   - the sender transmits chunks in order, pacing each at bytes / rate so a
//     background copy cannot starve foreground traffic;
//   - the receiver keeps a cumulative `installed` cursor, installs only the
//     chunk at it, and answers every arrival — in order, stale, or refused —
//     with an ack of the cursor (duplicates are harmless and heal lost acks);
//   - the owner calls CheckProgress() on its own cadence (a retransmit timer,
//     or heartbeats). If the ack has not moved since the previous check, a
//     chunk or its ack was lost, or the receiver refused, so the sender goes
//     back to the ack point and resends from there (go-back-N).
//
// The owner frames every chunk once, up front: a retransmission resends
// byte-identical frames. Owners whose acks travel as raw frames use the
// stream's 4-byte cumulative-ack codec (FrameAck / OnAckFrame).
#ifndef SRC_TRANSPORT_SNAPSHOT_STREAM_H_
#define SRC_TRANSPORT_SNAPSHOT_STREAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/sim/simulator.h"

namespace kvd {

class SnapshotStream {
 public:
  // Owned by the stream's owner (stable address, exported as metrics). One
  // instance may serve both halves: the receiver counts stale_chunks only.
  struct Stats {
    uint64_t chunks_sent = 0;   // transmissions, resends included
    uint64_t bytes_sent = 0;    // framed chunk bytes put on the wire
    uint64_t retransmits = 0;   // chunks resent by go-back-N
    uint64_t stale_chunks = 0;  // arrivals off the cursor (gap or duplicate)
  };
  using Wire = std::function<void(const std::vector<uint8_t>& chunk)>;

  SnapshotStream(Simulator& sim, double bytes_per_sec, Stats* stats, Wire wire)
      : sim_(sim),
        bytes_per_sec_(bytes_per_sec),
        stats_(stats),
        wire_(std::move(wire)) {}
  ~SnapshotStream() { *run_ = false; }
  // Pacing slots hold `this`.
  SnapshotStream(const SnapshotStream&) = delete;
  SnapshotStream& operator=(const SnapshotStream&) = delete;

  // Streams `chunks` from the first, abandoning any earlier stream. The
  // first chunk leaves immediately.
  void Start(std::vector<std::vector<uint8_t>> chunks);
  // Abandons the stream; pending pacing slots become no-ops.
  void Stop();
  // A cumulative ack from the receiver. A cursor past the end is corrupt
  // beyond the checksum's reach and ignored.
  void OnAck(uint64_t installed);
  // Go-back-N: if the ack has not moved since the previous check and the
  // stream is unfinished, resend from the ack point. Returns true when it
  // went back.
  bool CheckProgress();

  bool active() const { return *run_; }
  bool done() const { return acked_ >= chunks_.size(); }
  uint32_t acked() const { return acked_; }
  size_t num_chunks() const { return chunks_.size(); }

  // The receiving half: a cumulative cursor over one stream (the owner
  // zeroes `installed` when a new stream begins).
  struct Receiver {
    Stats* stats = nullptr;
    uint32_t installed = 0;

    // One chunk arrival. `install` runs only when `seq` is the cursor; a
    // refusal leaves the cursor in place. Returns the cumulative ack the
    // owner answers this arrival with.
    uint32_t OnChunk(uint32_t seq, const std::function<bool()>& install);
  };

  // A framed 4-byte ack of `installed`, and its inverse: OnAckFrame drops
  // corrupt frames and payloads of any other size.
  static std::vector<uint8_t> FrameAck(uint64_t sequence, uint32_t installed);
  void OnAckFrame(std::span<const uint8_t> packet);

 private:
  void SendNext();

  Simulator& sim_;
  double bytes_per_sec_;
  Stats* stats_;
  Wire wire_;
  std::vector<std::vector<uint8_t>> chunks_;
  uint32_t next_to_send_ = 0;
  uint32_t acked_ = 0;
  uint32_t last_observed_ack_ = 0;
  bool sending_ = false;  // a pacing slot is pending
  // Shared with pending pacing slots; cleared by Start, Stop and destruction
  // so a slot of an abandoned stream never sends.
  std::shared_ptr<bool> run_ = std::make_shared<bool>(false);
};

}  // namespace kvd

#endif  // SRC_TRANSPORT_SNAPSHOT_STREAM_H_

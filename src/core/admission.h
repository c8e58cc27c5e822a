// Admission control and load shedding for the server's decode backlog.
//
// A flat rule alone (backlog over max_backlog → kBusy) bounds memory but not
// latency — under sustained overload the queue sits pinned at the cap and
// every admitted op inherits the full queue's sojourn time, so goodput
// collapses to zero while the server stays "busy" doing work nobody will
// wait for. This controller layers four defenses, in
// the order an arriving op meets them:
//
//   1. kOverloaded fast-reject: past `overload_backlog` the op is refused
//      before any queueing or decode-cycle charge. Deliberately cheaper than
//      the kBusy bounce so a saturated server spends its cycles on work it
//      will finish.
//   2. Dead-on-arrival shed: an op whose deadline already passed is answered
//      kDeadlineExceeded immediately — executing it is pure waste.
//   3. kBusy backpressure: the max_backlog bounce, the "please slow down"
//      signal below the overload ceiling.
//   4. Dequeue-side shedding: when an op finally reaches the head of the
//      queue, expired deadlines are shed (kDeadlineExceeded) and CoDel-style
//      sojourn control sheds just enough ops (kOverloaded) to drag the
//      standing queue delay back under `codel_target`.
//
// Priority classes (control > reads > writes) keep replication/meta traffic
// and cheap reads moving when writes are what's flooding the queue. The
// default config (everything zero / class_queues off) admits everything in
// one FIFO; setting only max_backlog gives the flat kBusy bounce.
#ifndef SRC_CORE_ADMISSION_H_
#define SRC_CORE_ADMISSION_H_

#include <cstddef>
#include <cstdint>

#include "src/common/units.h"
#include "src/net/kv_types.h"

namespace kvd {

// Priority class of an operation; lower enum value = higher priority.
enum class OpClass : uint8_t {
  kControl = 0,  // replication apply, management — never user-shed
  kRead = 1,
  kWrite = 2,
};

inline constexpr size_t kNumOpClasses = 3;

// Default classification for client traffic: reads vs writes by opcode.
constexpr OpClass ClassifyOpcode(Opcode opcode) {
  return IsWriteOpcode(opcode) ? OpClass::kWrite : OpClass::kRead;
}

struct AdmissionConfig {
  // kBusy bounce threshold: admission-queue depth beyond the reservation
  // station. 0 = unbounded.
  uint32_t max_backlog = 0;
  // kOverloaded fast-reject ceiling; must be >= max_backlog to mean anything.
  // 0 = disabled.
  uint32_t overload_backlog = 0;
  // CoDel: shed at dequeue when sojourn time stays above this target for a
  // full interval. 0 = disabled.
  SimTime codel_target = 0;
  SimTime codel_interval = 100 * kMicrosecond;
  // When false, every class shares one FIFO (legacy order). When true, the
  // processor drains control before reads before writes.
  bool class_queues = false;
};

struct AdmissionStats {
  uint64_t admitted = 0;
  uint64_t busy_rejected = 0;      // kBusy bounces (legacy counter feeds this)
  uint64_t overload_rejected = 0;  // kOverloaded fast-rejects, never queued
  uint64_t codel_shed = 0;         // dequeue-side sojourn sheds
  uint64_t deadline_shed_arrival = 0;  // dead on arrival
  uint64_t deadline_shed_queue = 0;    // expired while queued
  uint64_t admitted_by_class[kNumOpClasses] = {0, 0, 0};
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  enum class Decision : uint8_t {
    kAdmit,
    kBusy,              // bounce after the decode-cycle charge (legacy path)
    kOverloaded,        // fast-reject, no queueing, no decode charge
    kDeadlineExceeded,  // dead on arrival
  };

  enum class DequeueAction : uint8_t {
    kProcess,
    kShedDeadline,  // expired while queued → kDeadlineExceeded
    kShedSojourn,   // CoDel over-target → kOverloaded
  };

  // Arrival-side decision. `backlog` is the total queued-op count across
  // classes before this op.
  Decision Accept(OpClass cls, SimTime deadline, uint32_t backlog, SimTime now);

  // Head-of-queue decision for the op about to be processed.
  DequeueAction OnDequeue(SimTime deadline, SimTime enqueued_at, SimTime now);

  const AdmissionConfig& config() const { return config_; }
  const AdmissionStats& stats() const { return stats_; }

 private:
  bool CodelShouldShed(SimTime sojourn, SimTime now);

  AdmissionConfig config_;
  AdmissionStats stats_;
  // CoDel state (Nichols & Jacobson, CACM 2012): shed once sojourn has been
  // above target for a full interval, then at drop_next spaced by
  // interval/sqrt(count) while it stays above.
  SimTime first_above_time_ = 0;
  SimTime drop_next_ = 0;
  uint32_t drop_count_ = 0;
  bool dropping_ = false;
};

}  // namespace kvd

#endif  // SRC_CORE_ADMISSION_H_

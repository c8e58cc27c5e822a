// The KV processor (paper §3.3, Figure 4): the FPGA pipeline that decodes
// operations, resolves dependencies in the reservation station, executes
// against the hash index, and dispatches memory accesses between PCIe and
// NIC DRAM.
//
// Execution is split in two layers that share one code path through the hash
// index:
//
//   1. *Functional* execution runs synchronously at admission time against
//      real bytes in host memory, recording the DMA-equivalent access trace.
//      Per-key ordering equals admission order, which the reservation station
//      also enforces for the timed layer, so results are exact.
//   2. *Timed* execution replays the trace through the load dispatcher
//      (PCIe/NIC-DRAM discrete-event models). Accesses within one operation
//      are dependent and run serially; across operations the pipeline keeps
//      up to max_inflight operations moving — exactly the paper's source of
//      parallelism.
//
// Operations whose key is cached in the reservation station skip the memory
// system entirely and retire at one per clock cycle (the data-forwarding fast
// path that gives 180 Mops single-key atomics, Figure 13a).
//
// The processor holds no op bytes. Submit borrows a view of the op's key and
// value until admission, where the functional layer reads them once; from
// then on only the op's scalars (opcode, deadline, trace) are kept. Whoever
// submits keeps the bytes alive and in place until the op is admitted
// (DESIGN.md §16).
#ifndef SRC_CORE_KV_PROCESSOR_H_
#define SRC_CORE_KV_PROCESSOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/common/hashing.h"
#include "src/common/ring_fifo.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/core/admission.h"
#include "src/core/id_table.h"
#include "src/core/update_functions.h"
#include "src/dram/load_dispatcher.h"
#include "src/hash/hash_index.h"
#include "src/mem/access_engine.h"
#include "src/net/kv_types.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"
#include "src/ooo/reservation_station.h"
#include "src/sim/simulator.h"

namespace kvd {

struct KvProcessorConfig {
  double clock_hz = 180e6;  // fully pipelined: one op per cycle peak
  OooConfig ooo;
  // Synthetic trace entries for slab-pool syncs: entries_per_batch * 5 B.
  uint32_t slab_sync_bytes = 160;
  // Overload control for the decode backlog: the kBusy bounce depth
  // (admission.max_backlog), the kOverloaded fast-reject ceiling, CoDel
  // sojourn shedding, and priority classes. Defaults admit everything.
  AdmissionConfig admission;
  // A flight-recorder trigger fires when this many kBusy rejections land
  // within one busy_burst_window of simulated time. 0 disables detection.
  uint32_t busy_burst_threshold = 64;
  SimTime busy_burst_window = kMillisecond;
};

struct KvProcessorStats {
  uint64_t submitted = 0;
  uint64_t retired = 0;
  uint64_t pipeline_ops = 0;   // ops that went through the memory system
  uint64_t fast_path_ops = 0;  // retired from the reservation station
  uint64_t writebacks = 0;
  // Reads whose deadline expired between admission and retirement: the
  // result is relabeled kDeadlineExceeded (writes keep their true outcome —
  // the mutation already happened).
  uint64_t deadline_retire_shed = 0;
  LatencyHistogram latency_ns;  // submission -> retirement
};

class KvProcessor {
 public:
  using Completion = std::function<void(KvResultMessage)>;

  // `tracer` records the processor's spans and events, and kBusy rejection
  // bursts fire its flight recorder. `slab_sync` is the slab allocator's sync
  // counters, so pool synchronization DMAs are charged to the operations that
  // trigger them.
  KvProcessor(Simulator& sim, HashIndex& index, AccessEngine& engine,
              LoadDispatcher& dispatcher, UpdateFunctionRegistry& registry,
              Tracer& tracer, const SyncStats& slab_sync,
              const KvProcessorConfig& config);

  // Executes `op` with full timing; `done` fires at retirement (sim time).
  // `kh` must be HashKey(op.key). The processor borrows `op`'s bytes until
  // it admits the op: the caller keeps them alive and unmoved until then.
  // Classifies the op read/write by opcode for admission purposes.
  void Submit(const KvOpView& op, const KeyHash& kh, Completion done);
  // Same, with an explicit priority class (replication applies submit as
  // kControl so they are never load-shed).
  void Submit(const KvOpView& op, const KeyHash& kh, Completion done, OpClass cls);

  // Pure functional execution, no simulation (tests, warm-up fills).
  KvResultMessage ExecuteFunctional(const KvOpView& op);

  // Registers processor and reservation-station counters (readers over the
  // live stats structs; no behavior change).
  void RegisterMetrics(MetricRegistry& registry) const;

  const KvProcessorStats& stats() const { return stats_; }
  const AdmissionStats& admission_stats() const { return admission_.stats(); }
  const ReservationStation& station() const { return station_; }
  SimTime cycle() const { return cycle_; }
  size_t backlog() const {
    size_t n = 0;
    for (const auto& q : waiting_) {
      n += q.size();
    }
    return n;
  }
  // Ops of class `cls` submitted and not yet admitted (or shed). Each class
  // is admitted in submission order, so these are its last ones submitted.
  size_t waiting(OpClass cls) const { return waiting_by_class_[static_cast<size_t>(cls)]; }

 private:
  // An admitted op: its scalars and its result. The bytes it was submitted
  // with went back to their holder at admission.
  struct Inflight {
    uint64_t id = 0;  // 0 marks a free IdTable entry
    Opcode opcode = Opcode::kGet;
    uint64_t deadline = 0;
    uint64_t trace = 0;
    KvResultMessage result;
    std::vector<AccessRecord> accesses;
    size_t next_access = 0;
    uint16_t slot = 0;
    uint64_t digest = 0;
    SimTime submitted_at = 0;
    SimTime parked_at = 0;  // nonzero while waiting in a station chain
    Completion done;
  };

  // A submitted op waiting for admission, with its borrowed bytes.
  struct Waiting {
    KvOpView op;
    KeyHash kh;
    Completion done;
    OpClass cls = OpClass::kRead;
    SimTime enqueued_at = 0;
  };

  // Admits from the waiting queues into the reservation station while
  // capacity allows, shedding expired/over-target heads along the way.
  void Pump();
  // Highest-priority non-empty waiting queue, or nullptr when all drained.
  RingFifo<Waiting>* NextQueue();
  // Answers `done` at `at` with a result that carries only `code`.
  void Reject(Completion done, ResultCode code, SimTime at);
  // Feeds the flight recorder's rejection-burst trigger.
  void NoteBusyBurst();
  // Runs the next access of a pipeline op, or completes it.
  void StepPipelineOp(uint64_t id);
  void OnPipelineComplete(uint64_t id);
  // Post-completion slot maintenance: write-backs and chained issues.
  void AdvanceSlot(uint16_t slot, uint64_t bucket_address);
  void Retire(uint64_t id);
  SimTime NextCycleTime();
  // ExecuteFunctional with the key's hash, which the submitter has taken.
  KvResultMessage ExecuteFunctional(const KvOpView& op, const KeyHash& kh);
  // Closes the kStationWait span of a parked op that just resumed.
  void RecordUnpark(uint64_t id);

  Simulator& sim_;
  HashIndex& index_;
  AccessEngine& engine_;
  LoadDispatcher& dispatcher_;
  UpdateFunctionRegistry& registry_;
  Tracer& tracer_;
  const SyncStats& slab_sync_;
  KvProcessorConfig config_;
  ReservationStation station_;
  SimTime cycle_;
  SimTime next_issue_at_ = 0;
  // Busy-burst detection (tumbling window).
  SimTime busy_window_start_ = 0;
  uint64_t busy_window_count_ = 0;

  uint64_t next_id_ = 1;
  // Admitted, unretired operations by id, sized from the station's in-flight
  // bound. Entries are reused in place, so a warm op's access trace keeps its
  // buffer.
  IdTable<Inflight> inflight_;
  // One FIFO per priority class, drained control → reads → writes. With
  // admission.class_queues off every op lands in queue 0 (legacy FIFO order).
  std::array<RingFifo<Waiting>, kNumOpClasses> waiting_;
  std::array<size_t, kNumOpClasses> waiting_by_class_{};
  AdmissionController admission_;
  // Bucket addresses for pending write-backs, indexed by the 10-bit station
  // slot (KeyHash::StationSlot).
  std::array<uint64_t, 1024> slot_bucket_address_{};

  KvProcessorStats stats_;
};

}  // namespace kvd

#endif  // SRC_CORE_KV_PROCESSOR_H_

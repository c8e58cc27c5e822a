#include "src/core/kv_processor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/assert.h"
#include "src/common/hashing.h"

namespace kvd {
namespace {

ResultCode ToResultCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return ResultCode::kOk;
    case StatusCode::kNotFound:
      return ResultCode::kNotFound;
    case StatusCode::kOutOfMemory:
      return ResultCode::kOutOfMemory;
    case StatusCode::kResourceBusy:
      return ResultCode::kBusy;
    default:
      return ResultCode::kInvalidArgument;
  }
}

}  // namespace

KvProcessor::KvProcessor(Simulator& sim, HashIndex& index,
                         TraceRecordingEngine& engine, LoadDispatcher& dispatcher,
                         UpdateFunctionRegistry& registry,
                         const KvProcessorConfig& config)
    : sim_(sim),
      index_(index),
      engine_(engine),
      dispatcher_(dispatcher),
      registry_(registry),
      config_(config),
      station_(config.ooo),
      cycle_(static_cast<SimTime>(std::llround(1e12 / config.clock_hz))),
      inflight_(config.ooo.max_inflight),
      admission_(config.admission) {
  KVD_CHECK(config.clock_hz > 0);
}

KvResultMessage KvProcessor::ExecuteFunctional(const KvOperation& op) {
  KvResultMessage result;
  switch (op.opcode) {
    case Opcode::kGet: {
      result.code = ToResultCode(index_.Get(op.key, result.value));
      break;
    }
    case Opcode::kPut: {
      result.code = ToResultCode(index_.Put(op.key, op.value));
      break;
    }
    case Opcode::kDelete: {
      result.code = ToResultCode(index_.Delete(op.key));
      break;
    }
    case Opcode::kUpdateScalar: {
      Status inner = Status::Ok();
      std::vector<uint8_t> original;
      const Status status = index_.UpdateInPlace(
          op.key,
          [&](std::vector<uint8_t>& value) {
            Result<uint64_t> r =
                registry_.ApplyScalar(op.function_id, value, op.param,
                                      op.element_width);
            if (!r.ok()) {
              inner = r.status();
            } else {
              result.scalar = *r;
            }
          },
          &original);
      result.code = ToResultCode(status.ok() ? inner : status);
      break;
    }
    case Opcode::kUpdateScalarVector: {
      Status inner = Status::Ok();
      std::vector<uint8_t> original;
      const Status status = index_.UpdateInPlace(
          op.key,
          [&](std::vector<uint8_t>& value) {
            inner = registry_.ApplyScalarToVector(op.function_id, value, op.param,
                                                  op.element_width);
          },
          &original);
      result.code = ToResultCode(status.ok() ? inner : status);
      if (result.code == ResultCode::kOk) {
        result.value = std::move(original);  // original vector returned
      }
      break;
    }
    case Opcode::kUpdateVector: {
      Status inner = Status::Ok();
      std::vector<uint8_t> original;
      const Status status = index_.UpdateInPlace(
          op.key,
          [&](std::vector<uint8_t>& value) {
            inner = registry_.ApplyVectorToVector(op.function_id, value, op.value,
                                                  op.element_width);
          },
          &original);
      result.code = ToResultCode(status.ok() ? inner : status);
      if (result.code == ResultCode::kOk) {
        result.value = std::move(original);
      }
      break;
    }
    case Opcode::kReduce: {
      std::vector<uint8_t> value;
      const Status status = index_.Get(op.key, value);
      if (!status.ok()) {
        result.code = ToResultCode(status);
        break;
      }
      Result<uint64_t> r =
          registry_.Reduce(op.function_id, value, op.param, op.element_width);
      result.code = ToResultCode(r.status());
      if (r.ok()) {
        result.scalar = *r;
      }
      break;
    }
    case Opcode::kFilter: {
      std::vector<uint8_t> value;
      const Status status = index_.Get(op.key, value);
      if (!status.ok()) {
        result.code = ToResultCode(status);
        break;
      }
      Result<std::vector<uint8_t>> r =
          registry_.Filter(op.function_id, value, op.param, op.element_width);
      result.code = ToResultCode(r.status());
      if (r.ok()) {
        result.value = std::move(*r);
      }
      break;
    }
  }
  return result;
}

SimTime KvProcessor::NextCycleTime() {
  // The decoder is fully pipelined: one operation enters per clock cycle.
  next_issue_at_ = std::max(next_issue_at_, sim_.Now()) + cycle_;
  return next_issue_at_;
}

void KvProcessor::Submit(KvOperation op, Completion done) {
  const OpClass cls = ClassifyOpcode(op.opcode);
  Submit(std::move(op), std::move(done), cls);
}

void KvProcessor::Submit(KvOperation op, Completion done, OpClass cls) {
  if (op.trace != 0 && tracer_ != nullptr) {
    // First-write-wins: a busy-bounced retry keeps the original submit time,
    // so the queue stage honestly includes the backoff.
    tracer_->Point(op.trace, TracePoint::kSubmit);
  }
  const auto decision = admission_.Accept(cls, op.deadline,
                                          static_cast<uint32_t>(backlog()),
                                          sim_.Now());
  if (decision == AdmissionController::Decision::kOverloaded) {
    // Fast-reject: refused before queueing and before the decode-cycle
    // charge — a saturated server spends no pipeline time on this op.
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Instant("proc", "overload_reject", {{"backlog", backlog()}});
    }
    NoteBusyBurst();
    sim_.ScheduleAt(sim_.Now(), [done = std::move(done)]() mutable {
      KvResultMessage result;
      result.code = ResultCode::kOverloaded;
      done(std::move(result));
    });
    return;
  }
  if (decision == AdmissionController::Decision::kDeadlineExceeded) {
    // Dead on arrival: executing it is pure waste; answer immediately so the
    // client learns to stop retrying.
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Instant("proc", "deadline_shed_arrival", {{"op_deadline", op.deadline}});
    }
    sim_.ScheduleAt(sim_.Now(), [done = std::move(done)]() mutable {
      KvResultMessage result;
      result.code = ResultCode::kDeadlineExceeded;
      done(std::move(result));
    });
    return;
  }
  if (decision == AdmissionController::Decision::kBusy) {
    // Decode-stage backpressure: the operation is bounced with kBusy after
    // one decode cycle instead of queueing without bound; clients back off
    // and retry (graceful degradation, not silent unbounded latency).
    stats_.busy_rejected++;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Instant("proc", "busy_reject", {{"backlog", backlog()}});
    }
    NoteBusyBurst();
    sim_.ScheduleAt(NextCycleTime(), [done = std::move(done)]() mutable {
      KvResultMessage result;
      result.code = ResultCode::kBusy;
      done(std::move(result));
    });
    return;
  }
  stats_.submitted++;
  const size_t queue =
      admission_.config().class_queues ? static_cast<size_t>(cls) : 0;
  waiting_[queue].push_back(
      Waiting{std::move(op), std::move(done), cls, sim_.Now()});
  Pump();
}

void KvProcessor::NoteBusyBurst() {
  if (flight_ == nullptr || config_.busy_burst_threshold == 0) {
    return;
  }
  if (sim_.Now() >= busy_window_start_ + config_.busy_burst_window) {
    busy_window_start_ = sim_.Now();
    busy_window_count_ = 0;
  }
  if (++busy_window_count_ == config_.busy_burst_threshold) {
    flight_->Trigger(FlightTrigger::kBusyBurst,
                     "kBusy rejection burst at the admission queue");
  }
}

std::deque<KvProcessor::Waiting>* KvProcessor::NextQueue() {
  for (auto& q : waiting_) {
    if (!q.empty()) {
      return &q;
    }
  }
  return nullptr;
}

void KvProcessor::Pump() {
  while (std::deque<Waiting>* queue = NextQueue()) {
    // Dequeue-side shedding: the head op may have expired while queued, or
    // CoDel may demand a shed to drag the standing queue delay back under
    // target. Control ops are exempt — shedding a replication apply would
    // diverge the backup's store from its log.
    Waiting& head = queue->front();
    if (head.cls != OpClass::kControl) {
      const auto action = admission_.OnDequeue(head.op.deadline,
                                               head.enqueued_at, sim_.Now());
      if (action != AdmissionController::DequeueAction::kProcess) {
        const bool deadline_shed =
            action == AdmissionController::DequeueAction::kShedDeadline;
        if (deadline_shed && head.op.trace != 0 && tracer_ != nullptr) {
          tracer_->Span(head.op.trace, SpanKind::kDeadlineWait,
                        head.enqueued_at, sim_.Now(), 0);
        }
        if (tracer_ != nullptr && tracer_->enabled()) {
          tracer_->Instant("proc",
                           deadline_shed ? "deadline_shed_queue" : "codel_shed",
                           {{"sojourn_ns",
                             (sim_.Now() - head.enqueued_at) / kNanosecond}});
        }
        sim_.ScheduleAt(NextCycleTime(),
                        [done = std::move(head.done), deadline_shed]() mutable {
                          KvResultMessage result;
                          result.code = deadline_shed
                                            ? ResultCode::kDeadlineExceeded
                                            : ResultCode::kOverloaded;
                          done(std::move(result));
                        });
        queue->pop_front();
        continue;
      }
    }
    KvOperation& op = head.op;
    const KeyHash kh = HashKey(op.key);
    const uint16_t slot = kh.StationSlot();
    const uint64_t id = next_id_;
    const ReservationStation::Action action =
        station_.Admit(id, slot, kh.digest, IsWriteOpcode(op.opcode));
    if (action == ReservationStation::Action::kRejectFull) {
      return;  // retried when an operation retires
    }
    next_id_++;

    Inflight& inflight = inflight_.Insert(id);
    inflight.op = std::move(op);
    inflight.done = std::move(head.done);
    queue->pop_front();
    inflight.next_access = 0;
    inflight.slot = slot;
    inflight.digest = kh.digest;
    inflight.submitted_at = sim_.Now();
    inflight.parked_at = 0;
    if (inflight.op.trace != 0 && tracer_ != nullptr) {
      tracer_->Point(inflight.op.trace, TracePoint::kAdmit);
    }

    // Functional execution at admission: the station guarantees per-key
    // admission order is execution order, so results are exact.
    engine_.BeginOp();
    const uint64_t sync_reads_before =
        slab_sync_stats_ != nullptr ? slab_sync_stats_->sync_dma_reads : 0;
    const uint64_t sync_writes_before =
        slab_sync_stats_ != nullptr ? slab_sync_stats_->sync_dma_writes : 0;
    inflight.result = ExecuteFunctional(inflight.op);
    if (!inflight.op.return_value) {
      inflight.result.value.clear();  // caller declined the original vector
    }
    engine_.TakeTrace(inflight.trace);
    slot_bucket_address_[slot] = index_.BucketAddressFor(inflight.op.key);
    if (slab_sync_stats_ != nullptr) {
      // Slab-pool synchronizations triggered by this operation become DMA
      // transfers of one entry batch each (paper Figure 8); they are daemon
      // metadata, charged at the key's heap line for dispatching purposes.
      for (uint64_t n = slab_sync_stats_->sync_dma_reads - sync_reads_before; n > 0;
           n--) {
        inflight.trace.push_back(
            {AccessKind::kRead, slot_bucket_address_[slot], config_.slab_sync_bytes});
      }
      for (uint64_t n = slab_sync_stats_->sync_dma_writes - sync_writes_before; n > 0;
           n--) {
        inflight.trace.push_back(
            {AccessKind::kWrite, slot_bucket_address_[slot], config_.slab_sync_bytes});
      }
    }

    if (tracer_ != nullptr && tracer_->enabled()) {
      const char* name = action == ReservationStation::Action::kIssueToPipeline
                             ? "admit"
                             : action == ReservationStation::Action::kFastPath
                                   ? "fast_path"
                                   : "park";
      tracer_->Instant("station", name, {{"slot", slot}, {"op", id}});
    }

    switch (action) {
      case ReservationStation::Action::kIssueToPipeline:
        stats_.pipeline_ops++;
        sim_.ScheduleAt(NextCycleTime(), [this, id] { StepPipelineOp(id); });
        break;
      case ReservationStation::Action::kFastPath:
        stats_.fast_path_ops++;
        // Retires in one clock cycle from the cached value; the slot may now
        // need a (new) write-back.
        sim_.ScheduleAt(NextCycleTime(), [this, id] {
          const uint16_t fast_slot = inflight_.Find(id)->slot;
          Retire(id);
          AdvanceSlot(fast_slot, slot_bucket_address_[fast_slot]);
        });
        break;
      case ReservationStation::Action::kPark:
        // Waits in the station chain; timing resumes at CompletePipeline or
        // TryIssueNext.
        inflight.parked_at = sim_.Now();
        break;
      case ReservationStation::Action::kRejectFull:
        KVD_CHECK(false);  // handled above
    }
  }
}

void KvProcessor::StepPipelineOp(uint64_t id) {
  Inflight* inflight = inflight_.Find(id);
  KVD_CHECK(inflight != nullptr);
  if (inflight->next_access >= inflight->trace.size()) {
    OnPipelineComplete(id);
    return;
  }
  // Accesses within one operation are dependent (bucket read before slab
  // read before write-back), so they run serially.
  const AccessRecord access = inflight->trace[inflight->next_access++];
  dispatcher_.Access(access.kind, access.address, access.length,
                     [this, id] { StepPipelineOp(id); }, inflight->op.trace);
}

void KvProcessor::RecordUnpark(uint64_t id) {
  Inflight* inflight = inflight_.Find(id);
  if (inflight == nullptr) {
    return;
  }
  if (inflight->parked_at != 0 && inflight->op.trace != 0 && tracer_ != nullptr) {
    tracer_->Span(inflight->op.trace, SpanKind::kStationWait, inflight->parked_at,
                  sim_.Now(), inflight->slot);
  }
  inflight->parked_at = 0;
}

void KvProcessor::OnPipelineComplete(uint64_t id) {
  const Inflight* inflight = inflight_.Find(id);
  KVD_CHECK(inflight != nullptr);
  const uint16_t slot = inflight->slot;
  const uint64_t bucket_address = slot_bucket_address_[slot];
  Retire(id);

  // Data forwarding: parked same-key operations retire back to back, one per
  // clock cycle, without touching the memory system. They share the global
  // one-op-per-cycle issue budget with newly admitted operations, so total
  // retirement can never exceed the 180 MHz clock bound.
  const std::vector<uint64_t> fast_path = station_.CompletePipeline(slot);
  SimTime retire_at = sim_.Now();
  for (const uint64_t fast_id : fast_path) {
    retire_at = NextCycleTime();
    stats_.fast_path_ops++;
    RecordUnpark(fast_id);
    sim_.ScheduleAt(retire_at, [this, fast_id] { Retire(fast_id); });
  }
  if (fast_path.empty()) {
    AdvanceSlot(slot, bucket_address);
  } else {
    sim_.ScheduleAt(retire_at,
                    [this, slot, bucket_address] { AdvanceSlot(slot, bucket_address); });
  }
  Pump();
}

void KvProcessor::AdvanceSlot(uint16_t slot, uint64_t bucket_address) {
  if (station_.NeedsWriteback(slot)) {
    station_.BeginWriteback(slot);
    stats_.writebacks++;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Instant("station", "writeback", {{"slot", slot}});
    }
    // Cache write-back: one bucket-line write issued to the memory system.
    dispatcher_.Access(AccessKind::kWrite, bucket_address, kBucketBytes,
                       [this, slot, bucket_address] {
                         station_.CompleteWriteback(slot);
                         AdvanceSlot(slot, bucket_address);
                       });
    return;
  }
  // A parked operation with a different key (false-positive dependency) now
  // owns the slot and issues to the main pipeline.
  if (const auto next = station_.TryIssueNext(slot); next.has_value()) {
    stats_.pipeline_ops++;
    const uint64_t op_id = *next;
    RecordUnpark(op_id);
    sim_.ScheduleAt(NextCycleTime(), [this, op_id] { StepPipelineOp(op_id); });
  }
}

void KvProcessor::Retire(uint64_t id) {
  Inflight* entry = inflight_.Find(id);
  KVD_CHECK(entry != nullptr);
  // Take what retirement needs and free the entry first: `done` may submit,
  // and so admit, new operations into the table.
  const KvOperation& op = entry->op;
  const SimTime submitted_at = entry->submitted_at;
  const uint16_t slot = entry->slot;
  const uint64_t trace = op.trace;
  const bool expired_read = op.deadline != 0 && sim_.Now() >= op.deadline &&
                            !IsWriteOpcode(op.opcode);
  KvResultMessage result = std::move(entry->result);
  Completion done = std::move(entry->done);
  inflight_.Erase(*entry);
  stats_.retired++;
  stats_.latency_ns.Add((sim_.Now() - submitted_at) / kNanosecond);
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Complete("proc", "op", submitted_at, sim_.Now(),
                      {{"op", id}, {"slot", slot}},
                      OpMark::Point(trace, TracePoint::kRetire));
  }
  // Retirement-side deadline check: a read that expired in the pipeline is
  // relabeled kDeadlineExceeded (and its payload dropped) — nobody is
  // waiting for the bytes. Writes keep their true outcome: the mutation
  // already executed, and reporting otherwise would break exactly-once
  // accounting downstream.
  if (expired_read && result.code == ResultCode::kOk) {
    stats_.deadline_retire_shed++;
    result.code = ResultCode::kDeadlineExceeded;
    result.value.clear();
    result.scalar = 0;
  }
  if (done) {
    done(std::move(result));
  }
}

void KvProcessor::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_proc_submitted_total", "Operations submitted",
                           {}, &stats_.submitted);
  registry.RegisterCounter("kvd_proc_retired_total", "Operations retired", {},
                           &stats_.retired);
  registry.RegisterCounter("kvd_proc_pipeline_ops_total",
                           "Operations routed through the memory system", {},
                           &stats_.pipeline_ops);
  registry.RegisterCounter("kvd_proc_fast_path_total",
                           "Operations retired via data forwarding", {},
                           &stats_.fast_path_ops);
  registry.RegisterCounter("kvd_proc_writebacks_total",
                           "Reservation-station cache write-backs", {},
                           &stats_.writebacks);
  registry.RegisterCounter("kvd_proc_busy_rejected_total",
                           "Submissions bounced with kBusy at the admission queue",
                           {}, &stats_.busy_rejected);
  const AdmissionStats& admission = admission_.stats();
  registry.RegisterCounter("kvd_proc_overload_rejected_total",
                           "Submissions fast-rejected with kOverloaded", {},
                           &admission.overload_rejected);
  registry.RegisterCounter("kvd_proc_codel_shed_total",
                           "Queued operations shed by CoDel sojourn control",
                           {}, &admission.codel_shed);
  registry.RegisterCounter("kvd_proc_deadline_shed_arrival_total",
                           "Operations dead on arrival (deadline passed)", {},
                           &admission.deadline_shed_arrival);
  registry.RegisterCounter("kvd_proc_deadline_shed_queue_total",
                           "Operations whose deadline expired while queued", {},
                           &admission.deadline_shed_queue);
  registry.RegisterCounter("kvd_proc_deadline_shed_retire_total",
                           "Reads relabeled kDeadlineExceeded at retirement",
                           {}, &stats_.deadline_retire_shed);
  registry.RegisterGauge("kvd_proc_backlog", "Operations waiting for admission",
                         {}, [this] { return static_cast<double>(backlog()); });
  registry.RegisterGauge("kvd_proc_inflight",
                         "Operations admitted and not yet retired", {},
                         [this] { return static_cast<double>(inflight_.size()); });
  registry.RegisterHistogram("kvd_proc_latency_ns",
                             "Submission-to-retirement latency (ns)", {},
                             [this] { return stats_.latency_ns; });
  station_.RegisterMetrics(registry);
}

}  // namespace kvd

#include "src/core/kv_direct.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace kvd {
namespace {

// The load dispatch ratio from the paper's balance condition (§3.3.4) for
// this node's PCIe links and NIC DRAM; `corpus_keys` matters only for a
// long-tail workload.
double BalancedDispatchRatio(const ServerConfig& config, bool long_tail,
                             double corpus_keys) {
  const double k = static_cast<double>(config.nic_dram.capacity_bytes) /
                   static_cast<double>(config.kvs_memory_bytes);
  const double pcie_tput = config.pcie.link.bandwidth_bytes_per_sec *
                           config.pcie.num_links * 0.84;  // achievable
  return LoadDispatcher::OptimalDispatchRatio(
      pcie_tput, config.nic_dram.bandwidth_bytes_per_sec, std::min(k, 1.0),
      long_tail, corpus_keys);
}

}  // namespace

void ServerConfig::AutoTune(uint32_t kv_bytes, bool long_tail) {
  constexpr double kSlotPacking = 0.7;  // usable fraction of hash slots
  if (kv_bytes <= kMaxInlineKvBytes) {
    // Inline everything of this size: the corpus lives in the hash index, so
    // the index takes nearly the whole region (a margin remains for chained
    // buckets and stragglers).
    inline_threshold_bytes = std::min<uint32_t>(kv_bytes, kMaxInlineKvBytes);
    hash_index_ratio = 0.9;
  } else {
    // Non-inline: the index holds one 5-byte slot per KV, the heap holds the
    // rounded slab. Ratio = index bytes : total bytes per KV, scale-free.
    inline_threshold_bytes = 10;
    const double index_per_kv = kSlotBytes / kSlotPacking;
    const double slab_per_kv =
        static_cast<double>(std::bit_ceil(kv_bytes + HashIndex::kSlabHeaderBytes));
    hash_index_ratio = index_per_kv / (index_per_kv + slab_per_kv);
  }
  dispatch_ratio = BalancedDispatchRatio(
      *this, long_tail,
      static_cast<double>(kvs_memory_bytes) / std::max<uint32_t>(kv_bytes, 1));
}

KvDirectServer::KvDirectServer(const ServerConfig& config, Simulator* external_sim,
                               Tracer* external_tracer, PacketOwner* owner)
    : config_(config),
      owned_sim_(external_sim != nullptr ? nullptr : std::make_unique<Simulator>()),
      sim_(external_sim != nullptr ? *external_sim : *owned_sim_),
      owned_tracer_(external_tracer != nullptr
                        ? nullptr
                        : std::make_unique<Tracer>(sim_, config.enable_request_tracing,
                                                   config.slo, config.flight, &metrics_)),
      tracer_(external_tracer != nullptr ? *external_tracer : *owned_tracer_),
      endpoint_(sim_, {config.replay_cache_entries, config.replay_retain_time}),
      owner_(owner),
      packets_(
          [this](uint32_t batch) {
            if (owner_ != nullptr) {
              return owner_->OnDone(batch);
            }
            AnswerPacket(batch);
            return true;
          },
          owner == nullptr
              ? nullptr
              : ResultBatches<PacketReply>::RetireHook(
                    [owner](uint32_t batch, uint32_t slot, KvResultMessage& result) {
                      owner->OnRetire(batch, slot, result);
                    })) {
  HashIndexConfig index_config;
  index_config.memory_base = 0;
  index_config.memory_size = config.kvs_memory_bytes;
  index_config.hash_index_ratio = config.hash_index_ratio;
  index_config.inline_threshold_bytes = config.inline_threshold_bytes;
  index_config.min_slab_bytes = config.min_slab_bytes;
  index_config.max_slab_bytes = config.max_slab_bytes;
  const auto regions = index_config.ComputeRegions();

  memory_ = std::make_unique<HostMemory>(config.kvs_memory_bytes);
  engine_ = std::make_unique<AccessEngine>(*memory_);

  SlabConfig slab_config;
  slab_config.region_base = regions.heap_base;
  slab_config.region_size = regions.heap_size;
  slab_config.min_slab_bytes = config.min_slab_bytes;
  slab_config.max_slab_bytes = config.max_slab_bytes;
  allocator_ = std::make_unique<SlabAllocator>(slab_config);

  index_ = std::make_unique<HashIndex>(*engine_, *allocator_, index_config);

  fault_ = std::make_unique<FaultInjector>(config.faults);
  dma_ = std::make_unique<DmaEngine>(sim_, config.pcie);
  nic_dram_ = std::make_unique<NicDram>(sim_, config.nic_dram);

  LoadDispatcherConfig dispatch_config;
  dispatch_config.policy = config.dispatch_policy;
  dispatch_config.dispatch_ratio =
      config.dispatch_ratio >= 0
          ? config.dispatch_ratio
          : BalancedDispatchRatio(config, /*long_tail=*/false, /*corpus_keys=*/0);
  dispatcher_ = std::make_unique<LoadDispatcher>(sim_, *dma_, *nic_dram_,
                                                 dispatch_config);

  network_ = std::make_unique<NetworkModel>(sim_, config.network);

  processor_ = std::make_unique<KvProcessor>(
      sim_, *index_, *engine_, *dispatcher_, registry_, tracer_,
      allocator_->sync_stats(), config.processor);

  // Fault wiring: one injector shared by every site so the plan's per-site
  // streams stay independent of which subsystems are active.
  dma_->SetFaultInjector(fault_.get());
  nic_dram_->SetFaultInjector(fault_.get());
  network_->SetFaultInjector(fault_.get());

  // Tracing: every component records into the one tracer and fires flight
  // triggers through it. The processor took it at construction; the others'
  // pointers are set unconditionally (each hook checks enabled() or a zero
  // handle).
  fault_->SetTracer(&tracer_);
  allocator_->SetTracer(&tracer_);
  dispatcher_->SetTracer(&tracer_);
  dma_->SetTracer(&tracer_);
  nic_dram_->SetTracer(&tracer_);
  network_->SetTracer(&tracer_);

  // Observability: every subsystem registers readers over its live stats into
  // the shared registry. Neither changes timing.
  metrics_.RegisterCounter("kvd_events_dropped_total",
                           "Timeline events overwritten in the full event ring",
                           {}, [this] { return tracer_.dropped_events(); });
  fault_->RegisterMetrics(metrics_);
  processor_->RegisterMetrics(metrics_);
  index_->RegisterMetrics(metrics_);
  allocator_->RegisterMetrics(metrics_);
  dispatcher_->RegisterMetrics(metrics_);
  dma_->RegisterMetrics(metrics_);
  nic_dram_->RegisterMetrics(metrics_);
  network_->RegisterMetrics(metrics_);
  // The transport endpoint's counters join the same registry so one
  // exposition covers the whole node.
  metrics_.RegisterCounter("kvd_server_replayed_responses_total",
                           "Retransmitted requests answered from the replay cache",
                           {}, endpoint_.replayed_responses_counter());
  metrics_.RegisterCounter("kvd_server_corrupt_frames_total",
                           "Request frames dropped on checksum failure", {},
                           endpoint_.corrupt_frames_counter());
  metrics_.RegisterCounter("kvd_server_stale_retransmits_total",
                           "Retransmits dropped while the original executes", {},
                           endpoint_.stale_retransmits_counter());
  metrics_.RegisterCounter("kvd_replay_evict_scan_steps_total",
                           "Replay-cache eviction queue entries examined", {},
                           endpoint_.evict_scan_steps_counter());
  metrics_.RegisterGauge("kvd_server_batch_records_peak",
                         "Peak packets admitted and not yet answered", {},
                         [this] { return static_cast<double>(packets_.peak()); });
}

void KvDirectServer::Submit(KvOperation op, KvProcessor::Completion done) {
  const OpClass cls = ClassifyOpcode(op.opcode);
  Submit(std::move(op), std::move(done), cls);
}

void KvDirectServer::Submit(KvOperation op, KvProcessor::Completion done,
                            OpClass cls) {
  const uint32_t index = owned_ops_.Acquire();
  OwnedOp& owned = owned_ops_[index];
  owned.op = std::move(op);
  owned.done = std::move(done);
  // The record may move when the pool grows; the op's key and value buffers
  // do not.
  processor_->Submit(owned.op, HashKey(owned.op.key),
                     [this, index](KvResultMessage result) {
                       KvProcessor::Completion finish =
                           std::move(owned_ops_[index].done);
                       owned_ops_.Release(index);
                       finish(std::move(result));
                     },
                     cls);
}

void KvDirectServer::DeliverFrame(std::vector<uint8_t> packet, Responder respond) {
  // The endpoint drops corrupt frames (the client's retransmission timer
  // covers them), replays cached responses, and swallows retransmissions of
  // still-executing sequences; only genuinely new frames come back.
  std::optional<Frame> frame = endpoint_.Accept(packet, respond);
  if (!frame.has_value()) {
    return;
  }
  const uint64_t sequence = frame->sequence;
  endpoint_.Admit(sequence);
  // The ops are views of `packet`, which the packet's record keeps.
  const Status decoded = DecodeOps(frame->payload, ops_);
  if (!decoded.ok() || ops_.empty()) {
    // A malformed packet is answered with one error result, an empty one
    // with none.
    std::vector<KvResultMessage> results;
    if (!decoded.ok()) {
      results.emplace_back().code = ResultCode::kInvalidArgument;
    }
    if (std::optional<std::vector<uint8_t>> payload = EncodeAnswer(results)) {
      respond(endpoint_.Complete(sequence, *payload, /*cache=*/true));
    }
    return;
  }
  ServePacket(sequence, ops_, std::move(packet), std::move(respond));
}

uint32_t KvDirectServer::OpenPacket(uint64_t sequence, std::span<const KvOpView> ops,
                                    std::vector<uint8_t> packet, Responder respond) {
  // Collect results in request order; answer when the last one retires.
  const uint32_t batch = packets_.Open(ops.size());
  PacketReply& reply = packets_[batch].context;
  reply.sequence = sequence;
  // Moving a vector keeps its buffer, so the views stay valid.
  reply.packet = std::move(packet);
  reply.respond = std::move(respond);
  reply.ops.assign(ops.begin(), ops.end());
  if (tracer_.enabled()) {
    // Resolve each op's trace handle from the client-registered packet map
    // and stamp kServerReceive (first delivery wins, so retransmissions and
    // injected duplicates cannot move it). The lookup does not consume the
    // handle, so a redirected or retransmitted packet resolves to the same
    // trace on whichever node it lands.
    for (size_t i = 0; i < ops.size(); i++) {
      reply.ops[i].trace = tracer_.LookupOp(sequence, i);
      tracer_.Point(reply.ops[i].trace, TracePoint::kServerReceive);
    }
  }
  return batch;
}

uint32_t KvDirectServer::ExecutePacket(uint32_t batch,
                                       std::span<const SlotResult> answered) {
  auto& record = packets_[batch];
  // The record's op buffer stays put while the pool grows.
  const std::span<const KvOpView> ops = record.context.ops;
  std::vector<bool> filled(answered.empty() ? 0 : ops.size());
  for (const SlotResult& stored : answered) {
    if (stored.slot < ops.size() && IsWriteOpcode(ops[stored.slot].opcode)) {
      record.results[stored.slot] = stored.result;
      record.remaining--;
      filled[stored.slot] = true;
    }
  }
  const auto filled_in = static_cast<uint32_t>(ops.size() - record.remaining);
  if (record.remaining == 0) {
    packets_.Complete(batch);
    return filled_in;
  }
  auto submitted = [&](size_t i) { return filled.empty() || !filled[i]; };
  // Start every op's bucket-line miss before the first admission needs one;
  // the hash taken for it is the one the processor admits with.
  key_hashes_.resize(ops.size());
  for (size_t i = 0; i < ops.size(); i++) {
    if (submitted(i)) {
      key_hashes_[i] = HashKey(ops[i].key);
      index_->Prefetch(key_hashes_[i]);
    }
  }
  for (size_t i = 0; i < ops.size(); i++) {
    if (submitted(i)) {
      processor_->Submit(ops[i], key_hashes_[i],
                         packets_.Completion(batch, static_cast<uint32_t>(i)));
    }
  }
  return filled_in;
}

void KvDirectServer::AnswerPacket(uint32_t batch, uint64_t log_index) {
  auto& record = packets_[batch];
  PacketReply& reply = record.context;
  std::optional<std::vector<uint8_t>> payload =
      EncodeAnswer(record.results, log_index);
  if (!payload.has_value()) {
    return;  // the answer died with the node
  }
  if (tracer_.enabled()) {
    for (const KvOpView& op : reply.ops) {
      tracer_.Point(op.trace, TracePoint::kResponseSent);
    }
  }
  std::vector<uint8_t> response =
      endpoint_.Complete(reply.sequence, *payload, /*cache=*/true);
  // Respond through a local: the call may deliver more frames, which can grow
  // the pool under `reply`.
  const Responder respond = std::move(reply.respond);
  respond(std::move(response));
}

std::optional<std::vector<uint8_t>> KvDirectServer::EncodeAnswer(
    std::vector<KvResultMessage>& results, uint64_t log_index) {
  if (owner_ != nullptr) {
    return owner_->Encode(results, log_index);
  }
  return EncodeResults(results);
}

KvResultMessage KvDirectServer::Execute(const KvOperation& op) {
  return processor_->ExecuteFunctional(op);
}

Status KvDirectServer::Load(std::span<const uint8_t> key,
                            std::span<const uint8_t> value) {
  return index_->Put(key, value);
}

void KvDirectServer::CloneStoreFrom(const KvDirectServer& source) {
  memory_->CloneFrom(*source.memory_);
  engine_->CloneStatsFrom(*source.engine_);
  allocator_->CloneFrom(*source.allocator_);
  index_->CloneFrom(*source.index_);
}

Client::Client(KvDirectServer& server, const Options& options, uint64_t sequence_base)
    : BatchClient(server.simulator(), sequence_base, options,
                  {.max_ops_per_packet = options.max_ops_per_packet,
                   .backoff_shift_cap = 20,
                   .busy_rounds = 16,
                   .busy_backoff = 10 * kMicrosecond},
                  &stats_),
      server_(server) {}

// One wire round trip for the sender: frame copy to the server, framed
// delivery, framed response back to Receive. Fault sites on both wire
// directions may drop/duplicate/corrupt; the sender's timer recovers.
void Client::Wire(const PacketPtr& packet) {
  KvDirectServer& server = ServerOf(*packet);
  server.network().SendPayloadToServer(
      packet->framed,
      [this, &server, packet](std::vector<uint8_t> request) {
        server.DeliverFrame(
            std::move(request), [this, &server, packet](std::vector<uint8_t> response) {
              server.network().SendPayloadToClient(
                  std::move(response),
                  [this, packet](std::vector<uint8_t> delivered) {
                    Receive(packet, std::move(delivered));
                  },
                  packet->traces);
            });
      },
      packet->traces);
}

}  // namespace kvd

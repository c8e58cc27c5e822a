// NIC-side slab allocator (paper §3.3.2, §4, Figure 8 left side).
//
// The allocator the KV processor calls on every non-inline PUT/DELETE. Each
// size class has an on-NIC free-slab stack; allocation and deallocation pop
// and push its top. The stack synchronizes with the host-side pool through
// batched DMA transfers governed by watermarks, so the amortized PCIe cost is
// one DMA per `sync_batch` operations (<0.07 per op with the defaults).
//
// Synchronization DMAs are counted here (`SyncStats`), and the timing layer
// charges them to the PCIe model; they deliberately bypass the DRAM load
// dispatcher because the host-side stacks are daemon metadata, not KVS data.
#ifndef SRC_ALLOC_SLAB_ALLOCATOR_H_
#define SRC_ALLOC_SLAB_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/alloc/host_daemon.h"
#include "src/alloc/slab_config.h"
#include "src/common/status.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"

namespace kvd {

struct SyncStats {
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t sync_dma_reads = 0;   // host stack -> NIC stack batches
  uint64_t sync_dma_writes = 0;  // NIC stack -> host stack batches
  uint64_t entries_fetched = 0;
  uint64_t entries_flushed = 0;

  bool operator==(const SyncStats&) const = default;

  // DMA operations per allocation/free, the paper's <0.07 figure.
  double AmortizedDmaPerOp() const {
    const uint64_t ops = allocations + frees;
    return ops > 0 ? static_cast<double>(sync_dma_reads + sync_dma_writes) /
                         static_cast<double>(ops)
                   : 0.0;
  }
};

class SlabAllocator final : public Allocator {
 public:
  explicit SlabAllocator(const SlabConfig& config,
                         std::unique_ptr<Merger> merger = nullptr);

  Result<uint64_t> Allocate(uint32_t bytes) override;
  void Free(uint64_t address, uint32_t bytes) override;

  // Rounded allocation size for `bytes` (the slab footprint used for
  // utilization accounting).
  uint32_t FootprintFor(uint32_t bytes) const {
    return config_.ClassBytes(config_.ClassFor(bytes));
  }

  uint64_t FreeBytes() const;

  // Takes `source`'s NIC stacks, sync stats and host daemon state (equal
  // configs): the untimed half of a store clone.
  void CloneFrom(const SlabAllocator& source);

  const SlabConfig& config() const { return config_; }
  const SyncStats& sync_stats() const { return sync_stats_; }

  // Observability: counters backed by sync_stats_, instants for pool syncs.
  void RegisterMetrics(MetricRegistry& registry) const;
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  HostDaemon& daemon() { return daemon_; }
  const HostDaemon& daemon() const { return daemon_; }

 private:
  // Refills the NIC stack for `cls` from the host pool; returns entries moved.
  size_t FetchFromHost(uint8_t cls);
  // Flushes a batch from the NIC stack for `cls` back to the host pool.
  void FlushToHost(uint8_t cls);

  SlabConfig config_;
  HostDaemon daemon_;
  std::vector<std::vector<uint64_t>> nic_stacks_;  // per class
  SyncStats sync_stats_;
  Tracer* tracer_ = nullptr;
};

}  // namespace kvd

#endif  // SRC_ALLOC_SLAB_ALLOCATOR_H_

#include "src/alloc/slab_allocator.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/common/assert.h"

namespace kvd {

SlabAllocator::SlabAllocator(const SlabConfig& config, std::unique_ptr<Merger> merger)
    : config_(config), daemon_(config, std::move(merger)) {
  config_.Validate();
  nic_stacks_.resize(config_.NumClasses());
  for (auto& stack : nic_stacks_) {
    stack.reserve(config_.nic_stack_capacity);
  }
}

size_t SlabAllocator::FetchFromHost(uint8_t cls) {
  std::vector<uint64_t> batch(config_.sync_batch);
  const size_t fetched = daemon_.PopBatch(cls, batch);
  if (fetched == 0) {
    return 0;
  }
  sync_stats_.sync_dma_reads++;
  sync_stats_.entries_fetched += fetched;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("slab", "sync_fetch", {{"class", cls}, {"entries", fetched}});
  }
  for (size_t i = 0; i < fetched; i++) {
    nic_stacks_[cls].push_back(batch[i]);
  }
  return fetched;
}

void SlabAllocator::FlushToHost(uint8_t cls) {
  auto& stack = nic_stacks_[cls];
  const size_t count = std::min<size_t>(config_.sync_batch, stack.size());
  KVD_DCHECK(count > 0);
  // The right end of the NIC-side double-ended stack drains to the host
  // (Figure 8): oldest entries leave, the hot top-of-stack stays on the NIC.
  daemon_.PushBatch(cls, std::span<const uint64_t>(stack.data(), count));
  stack.erase(stack.begin(), stack.begin() + static_cast<long>(count));
  sync_stats_.sync_dma_writes++;
  sync_stats_.entries_flushed += count;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("slab", "sync_flush", {{"class", cls}, {"entries", count}});
  }
}

Result<uint64_t> SlabAllocator::Allocate(uint32_t bytes) {
  if (bytes == 0 || bytes > config_.max_slab_bytes) {
    return Status::InvalidArgument("allocation size outside slab range");
  }
  const uint8_t cls = config_.ClassFor(bytes);
  auto& stack = nic_stacks_[cls];
  if (stack.size() < config_.low_watermark && FetchFromHost(cls) == 0 &&
      stack.empty()) {
    return Status::OutOfMemory("slab pool exhausted");
  }
  const uint64_t address = stack.back();
  stack.pop_back();
  daemon_.bitmap().MarkAllocated(address - config_.region_base,
                                 config_.ClassBytes(cls));
  sync_stats_.allocations++;
  return address;
}

void SlabAllocator::Free(uint64_t address, uint32_t bytes) {
  KVD_CHECK(bytes > 0 && bytes <= config_.max_slab_bytes);
  const uint8_t cls = config_.ClassFor(bytes);
  daemon_.bitmap().MarkFree(address - config_.region_base, config_.ClassBytes(cls));
  nic_stacks_[cls].push_back(address);
  sync_stats_.frees++;
  if (nic_stacks_[cls].size() > config_.high_watermark) {
    FlushToHost(cls);
  }
}

void SlabAllocator::CloneFrom(const SlabAllocator& source) {
  KVD_CHECK_MSG(config_ == source.config_, "cloning an allocator of another layout");
  daemon_.CloneFrom(source.daemon_);
  nic_stacks_ = source.nic_stacks_;
  sync_stats_ = source.sync_stats_;
}

uint64_t SlabAllocator::FreeBytes() const { return daemon_.FreeBytes(); }

void SlabAllocator::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_slab_allocations_total", "Slab allocations", {},
                           &sync_stats_.allocations);
  registry.RegisterCounter("kvd_slab_frees_total", "Slab frees", {},
                           &sync_stats_.frees);
  registry.RegisterCounter("kvd_slab_sync_dma_total", "Pool sync DMA batches",
                           {{"direction", "read"}}, &sync_stats_.sync_dma_reads);
  registry.RegisterCounter("kvd_slab_sync_dma_total", "Pool sync DMA batches",
                           {{"direction", "write"}}, &sync_stats_.sync_dma_writes);
  registry.RegisterCounter("kvd_slab_sync_entries_total", "Pool sync entries moved",
                           {{"direction", "fetched"}}, &sync_stats_.entries_fetched);
  registry.RegisterCounter("kvd_slab_sync_entries_total", "Pool sync entries moved",
                           {{"direction", "flushed"}}, &sync_stats_.entries_flushed);
  registry.RegisterGauge("kvd_slab_dma_per_op",
                         "Amortized sync DMAs per allocation/free", {},
                         [this] { return sync_stats_.AmortizedDmaPerOp(); });
  registry.RegisterGauge("kvd_slab_free_bytes", "Free bytes in the slab heap", {},
                         [this] { return static_cast<double>(FreeBytes()); });
}

}  // namespace kvd

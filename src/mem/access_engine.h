// The memory access path that separates the store's *functional* behaviour
// from its *timing* behaviour.
//
// Every data-structure module (hash index, slab allocator, KV processor)
// touches memory only through AccessEngine. It reads and writes the arena,
// counting DMA-equivalent accesses (the "memory accesses per KV operation"
// figures), and between BeginOp() and TakeTrace() it also records the
// operation's access sequence, which the discrete-event pipeline replays
// through the PCIe/DRAM models.
//
// One engine access corresponds to one DMA transaction in the paper's
// accounting: the hash index reads whole 64 B buckets and the slab heap is
// accessed in single contiguous extents per KV.
#ifndef SRC_MEM_ACCESS_ENGINE_H_
#define SRC_MEM_ACCESS_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/mem/host_memory.h"

namespace kvd {

enum class AccessKind : uint8_t { kRead, kWrite };

// One recorded memory transaction (DMA-equivalent).
struct AccessRecord {
  AccessKind kind;
  uint64_t address;
  uint32_t length;
};

struct AccessStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;

  uint64_t total() const { return reads + writes; }
  uint64_t total_bytes() const { return read_bytes + write_bytes; }

  bool operator==(const AccessStats&) const = default;

  AccessStats operator-(const AccessStats& other) const {
    return AccessStats{reads - other.reads, writes - other.writes,
                       read_bytes - other.read_bytes, write_bytes - other.write_bytes};
  }
};

class AccessEngine final {
 public:
  explicit AccessEngine(HostMemory& memory) : memory_(memory) {}

  void Read(uint64_t address, std::span<uint8_t> out) {
    memory_.Read(address, out);
    stats_.reads++;
    stats_.read_bytes += out.size();
    if (recording_) {
      trace_.push_back({AccessKind::kRead, address, static_cast<uint32_t>(out.size())});
    }
  }
  void Write(uint64_t address, std::span<const uint8_t> in) {
    memory_.Write(address, in);
    stats_.writes++;
    stats_.write_bytes += in.size();
    if (recording_) {
      trace_.push_back({AccessKind::kWrite, address, static_cast<uint32_t>(in.size())});
    }
  }
  // A host-only hint that `address` is about to be read: it starts the
  // host's cache miss early and is neither counted nor recorded, because no
  // modelled DMA happens.
  void Prefetch(uint64_t address) { memory_.Prefetch(address); }

  const AccessStats& stats() const { return stats_; }
  // Takes `source`'s counts (a store clone copies the arena separately).
  void CloneStatsFrom(const AccessEngine& source) { stats_ = source.stats_; }

  // The KV processor brackets each operation with BeginOp()/TakeTrace() and
  // hands the trace to the timing pipeline. TakeTrace swaps buffers with the
  // caller, so both sides keep their capacity and a warm op records without
  // allocating: `out`'s old buffer becomes the recording buffer for the next
  // op.
  void BeginOp() {
    trace_.clear();
    recording_ = true;
  }
  void TakeTrace(std::vector<AccessRecord>& out) {
    recording_ = false;
    out.swap(trace_);
  }

 private:
  HostMemory& memory_;
  AccessStats stats_;
  bool recording_ = false;
  std::vector<AccessRecord> trace_;
};

}  // namespace kvd

#endif  // SRC_MEM_ACCESS_ENGINE_H_

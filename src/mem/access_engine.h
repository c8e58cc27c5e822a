// Memory access interface separating the store's *functional* behaviour from
// its *timing* behaviour.
//
// Every data-structure module (hash index, slab allocator, KV processor)
// touches memory only through AccessEngine. The engines stack:
//
//   DirectEngine          — reads/writes the arena, counting DMA-equivalent
//                           accesses (the "memory accesses per KV operation"
//                           figures)
//   TraceRecordingEngine  — additionally records the per-operation access
//                           sequence, which the discrete-event pipeline
//                           replays through the PCIe/DRAM models
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

  AccessStats operator-(const AccessStats& other) const {
    return AccessStats{reads - other.reads, writes - other.writes,
                       read_bytes - other.read_bytes, write_bytes - other.write_bytes};
  }
};

class AccessEngine {
 public:
  virtual ~AccessEngine() = default;

  virtual void Read(uint64_t address, std::span<uint8_t> out) = 0;
  virtual void Write(uint64_t address, std::span<const uint8_t> in) = 0;

  virtual const AccessStats& stats() const = 0;
};

// Direct pass-through to the arena.
class DirectEngine final : public AccessEngine {
 public:
  explicit DirectEngine(HostMemory& memory) : memory_(memory) {}

  void Read(uint64_t address, std::span<uint8_t> out) override {
    memory_.Read(address, out);
    stats_.reads++;
    stats_.read_bytes += out.size();
  }
  void Write(uint64_t address, std::span<const uint8_t> in) override {
    memory_.Write(address, in);
    stats_.writes++;
    stats_.write_bytes += in.size();
  }

  const AccessStats& stats() const override { return stats_; }

  HostMemory& memory() { return memory_; }

 private:
  HostMemory& memory_;
  AccessStats stats_;
};

// Records the access sequence of the current operation on top of a base
// engine. The KV processor brackets each operation with BeginOp()/TakeTrace()
// and hands the trace to the timing pipeline. TakeTrace swaps buffers with the
// caller, so both sides keep their capacity and a warm op records without
// allocating.
class TraceRecordingEngine final : public AccessEngine {
 public:
  explicit TraceRecordingEngine(AccessEngine& base) : base_(base) {}

  void Read(uint64_t address, std::span<uint8_t> out) override {
    base_.Read(address, out);
    if (recording_) {
      trace_.push_back({AccessKind::kRead, address, static_cast<uint32_t>(out.size())});
    }
  }
  void Write(uint64_t address, std::span<const uint8_t> in) override {
    base_.Write(address, in);
    if (recording_) {
      trace_.push_back({AccessKind::kWrite, address, static_cast<uint32_t>(in.size())});
    }
  }

  const AccessStats& stats() const override { return base_.stats(); }

  void BeginOp() {
    trace_.clear();
    recording_ = true;
  }
  // Moves the recorded trace into `out`; `out`'s old buffer becomes the
  // recording buffer for the next op.
  void TakeTrace(std::vector<AccessRecord>& out) {
    recording_ = false;
    out.swap(trace_);
  }

 private:
  AccessEngine& base_;
  bool recording_ = false;
  std::vector<AccessRecord> trace_;
};

}  // namespace kvd

#endif  // SRC_MEM_ACCESS_ENGINE_H_

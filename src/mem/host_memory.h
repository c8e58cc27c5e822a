// Host memory arena backing the KV store.
//
// In the paper, 64 GiB of server DRAM holds the hash index and the slab heap
// and the NIC reaches it only through PCIe DMA. Here it is a byte arena of
// configurable size; all store data structures live inside it at explicit
// offsets, with the exact bit-level layout the paper describes, so capacity
// and utilization experiments behave identically at smaller scale.
//
// The simulator replays every modelled DMA against this arena, so the host
// pays the store's own access pattern: dependent random 64 B reads over the
// whole region. The arena is therefore an anonymous private mapping —
// demand-zero, so construction writes nothing and only the pages the store
// touches become resident — with a 2 MiB-aligned base advised for
// transparent huge pages when it spans at least one, which keeps those
// random reads off the 4 KiB TLB-miss path. The advice is best-effort: a
// kernel that refuses it leaves demand-zero 4 KiB pages, same contents.
#ifndef SRC_MEM_HOST_MEMORY_H_
#define SRC_MEM_HOST_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "src/common/assert.h"

namespace kvd {

class HostMemory {
 public:
  explicit HostMemory(uint64_t size_bytes);

  uint64_t size() const { return size_; }

  std::span<uint8_t> Span(uint64_t address, uint64_t length) {
    KVD_DCHECK(address + length <= size_);
    return {data_.get() + address, length};
  }
  std::span<const uint8_t> Span(uint64_t address, uint64_t length) const {
    KVD_DCHECK(address + length <= size_);
    return {data_.get() + address, length};
  }

  void Read(uint64_t address, std::span<uint8_t> out) const;
  void Write(uint64_t address, std::span<const uint8_t> in);
  void Fill(uint64_t address, uint64_t length, uint8_t byte);
  // Makes this arena's bytes equal to `source`'s (same size), untimed. It
  // visits only the pages the kernel has mapped in either arena (present or
  // swapped out, per /proc/self/pagemap): an unmapped page has never been
  // written and reads zero. A page the source holds non-zero bytes in is
  // written here without being read first; this arena's other mapped pages
  // are cleared where they hold anything. So this arena gains resident pages
  // only where the source has them, and a page neither side mapped is never
  // touched. Where pagemap cannot be read, every page counts as mapped: the
  // bytes come out the same, only the untouched pages get visited too.
  void CloneFrom(const HostMemory& source);
  // Starts loading the cache line at `address` (a hint; no effect on contents).
  void Prefetch(uint64_t address) const {
    KVD_DCHECK(address < size_);
    __builtin_prefetch(data_.get() + address);
  }

 private:
  struct Unmap {
    size_t length = 0;
    void operator()(uint8_t* base) const;
  };

  uint64_t size_;
  std::unique_ptr<uint8_t[], Unmap> data_;
};

}  // namespace kvd

#endif  // SRC_MEM_HOST_MEMORY_H_

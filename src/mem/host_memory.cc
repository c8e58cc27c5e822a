#include "src/mem/host_memory.h"

#include <sys/mman.h>

#include <cstring>

namespace kvd {
namespace {

constexpr uint64_t kHugePageBytes = 2ull << 20;

uint64_t RoundUp(uint64_t value, uint64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

// Whole huge pages once the arena spans one.
size_t MappedLength(uint64_t size_bytes) {
  return size_bytes >= kHugePageBytes ? RoundUp(size_bytes, kHugePageBytes)
                                      : size_bytes;
}

// Maps `length` zero-filled bytes. At least one huge page: over-reserves by
// one huge page, trims the mapping to a 2 MiB-aligned base, and advises it
// for transparent huge pages.
uint8_t* MapArena(uint64_t length) {
  const bool huge = length >= kHugePageBytes;
  const uint64_t reserve = huge ? length + kHugePageBytes : length;
  void* mapped = mmap(nullptr, reserve, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  KVD_CHECK_MSG(mapped != MAP_FAILED, "host memory mmap failed");
  auto* base = static_cast<uint8_t*>(mapped);
  if (!huge) {
    return base;
  }
  const uint64_t start = reinterpret_cast<uintptr_t>(base);
  const uint64_t head = RoundUp(start, kHugePageBytes) - start;
  if (head > 0) {
    munmap(base, head);
  }
  munmap(base + head + length, kHugePageBytes - head);
  base += head;
  madvise(base, length, MADV_HUGEPAGE);  // best-effort
  return base;
}

}  // namespace

void HostMemory::Unmap::operator()(uint8_t* base) const {
  munmap(base, length);
}

HostMemory::HostMemory(uint64_t size_bytes)
    : size_(size_bytes), data_(nullptr, Unmap{MappedLength(size_bytes)}) {
  KVD_CHECK_MSG(size_bytes > 0, "zero-sized host memory");
  data_.reset(MapArena(data_.get_deleter().length));
}

void HostMemory::Read(uint64_t address, std::span<uint8_t> out) const {
  KVD_CHECK(address + out.size() <= size_);
  std::memcpy(out.data(), data_.get() + address, out.size());
}

void HostMemory::Write(uint64_t address, std::span<const uint8_t> in) {
  KVD_CHECK(address + in.size() <= size_);
  std::memcpy(data_.get() + address, in.data(), in.size());
}

void HostMemory::Fill(uint64_t address, uint64_t length, uint8_t byte) {
  KVD_CHECK(address + length <= size_);
  std::memset(data_.get() + address, byte, length);
}

}  // namespace kvd

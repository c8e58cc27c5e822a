#include "src/mem/host_memory.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

namespace kvd {
namespace {

constexpr uint64_t kHugePageBytes = 2ull << 20;

bool AllZero(const uint8_t* bytes, uint64_t length) {
  return length == 0 || (bytes[0] == 0 && std::memcmp(bytes, bytes + 1, length - 1) == 0);
}

// Fills `entries` with the /proc/self/pagemap entry of each page from
// `base` on. Returns false when the file cannot be read.
bool ReadPagemap(const uint8_t* base, uint64_t page_bytes, std::span<uint64_t> entries) {
  const int fd = open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  auto* out = reinterpret_cast<uint8_t*>(entries.data());
  const uint64_t want = entries.size_bytes();
  const uint64_t offset = reinterpret_cast<uintptr_t>(base) / page_bytes * sizeof(uint64_t);
  uint64_t done = 0;
  while (done < want) {
    const ssize_t got = pread(fd, out + done, want - done, static_cast<off_t>(offset + done));
    if (got <= 0) {
      break;
    }
    done += static_cast<uint64_t>(got);
  }
  close(fd);
  return done == want;
}

// A pagemap entry of a page that is present or swapped out.
bool Mapped(uint64_t entry) { return (entry >> 62) != 0; }

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

void HostMemory::CloneFrom(const HostMemory& source) {
  KVD_CHECK_MSG(size_ == source.size_, "cloning an arena of another size");
  const auto page_bytes = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  const uint64_t pages = (size_ + page_bytes - 1) / page_bytes;
  std::vector<uint64_t> source_map(pages);
  std::vector<uint64_t> target_map(pages);
  const bool known = ReadPagemap(source.data_.get(), page_bytes, source_map) &&
                     ReadPagemap(data_.get(), page_bytes, target_map);
  for (uint64_t page = 0; page < pages; page++) {
    const uint64_t offset = page * page_bytes;
    const uint64_t length = std::min(page_bytes, size_ - offset);
    if ((!known || Mapped(source_map[page])) &&
        !AllZero(source.data_.get() + offset, length)) {
      // Written without a read first: reading an untouched page would map
      // the shared huge zero page, and this write would then split it.
      std::memcpy(data_.get() + offset, source.data_.get() + offset, length);
    } else if ((!known || Mapped(target_map[page])) &&
               !AllZero(data_.get() + offset, length)) {
      std::memset(data_.get() + offset, 0, length);
    }
  }
}

void HostMemory::Fill(uint64_t address, uint64_t length, uint8_t byte) {
  KVD_CHECK(address + length <= size_);
  std::memset(data_.get() + address, byte, length);
}

}  // namespace kvd

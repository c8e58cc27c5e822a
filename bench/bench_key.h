// The numbered key every bench uses: an 8 B little-endian id. Kept apart
// from bench_util.h so the hash-table benches need not pull in the server.
#ifndef BENCH_BENCH_KEY_H_
#define BENCH_BENCH_KEY_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace kvd {
namespace bench {

inline std::vector<uint8_t> Key(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, 8);
  return key;
}

}  // namespace bench
}  // namespace kvd

#endif  // BENCH_BENCH_KEY_H_

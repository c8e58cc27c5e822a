// Analytic throughput models for the systems KV-Direct compares against.
//
// These reproduce the paper's cited numbers rather than re-deriving them:
// §2.2 measures the CPU bounds on the authors' Xeon E5-2650 v2 testbed, and
// §5.1.3 / Table 3 cite published figures for the RDMA and CPU KVS baselines.
// Each model is a small closed-form calculation with the paper's constants as
// defaults, so Figure 13 and Table 3 regenerate from first principles and the
// constants stay visible and overridable.
#ifndef SRC_BASELINE_ANALYTIC_MODELS_H_
#define SRC_BASELINE_ANALYTIC_MODELS_H_

#include <algorithm>
#include <cstdint>

namespace kvd {

// CPU-based KVS (paper §2.2): a core interleaves ~100 ns of key comparison /
// hash computation (~500 instructions, larger than the 100-200 entry
// instruction window) with ~110 ns cache-miss memory accesses, 3-4 of which
// can be in flight per core.
struct CpuKvsModel {
  double random_access_ns = 110;    // 64 B random read, cache miss
  double loadstore_parallelism = 3.5;  // load-store units usable
  double computation_ns_per_op = 100;  // ~500 instructions of KV processing
  double accesses_per_op = 1.3;     // hash + value on a good hash table

  // Paper measurement: 29.3 M random 64 B accesses/s/core.
  double RandomAccessMopsPerCore() const {
    return loadstore_parallelism / random_access_ns * 1e3;
  }
  // Paper measurement: 5.5 Mops/core when interleaved with computation —
  // the computation serializes with the (window-limited) memory accesses.
  double InterleavedMopsPerCore() const {
    const double memory_ns =
        accesses_per_op * random_access_ns / loadstore_parallelism;
    return 1e3 / (computation_ns_per_op + memory_ns * accesses_per_op);
  }
  // Paper measurement: 7.9 Mops/core with software batching/prefetching —
  // computation of several ops is clustered so accesses overlap it.
  double BatchedMopsPerCore() const {
    const double per_op_ns =
        std::max(computation_ns_per_op,
                 accesses_per_op * random_access_ns / loadstore_parallelism) *
        1.05;  // residual non-overlapped work
    return 1e3 / per_op_ns;
  }
};

// RDMA-based KVS baselines for Figure 13a (atomics throughput vs key count).
struct RdmaKvsModel {
  // One-sided RDMA atomics serialize per key at the NIC: the paper cites
  // 2.24 Mops single-key from [Kalia et al.]; internal PCIe RTT bounds the
  // aggregate across keys.
  double one_sided_per_key_mops = 2.24;
  double one_sided_total_cap_mops = 18;

  // Two-sided (RPC) atomics execute on a server core per key; commutative
  // fetch-and-add can spread across cores up to the message-rate ceiling.
  double two_sided_per_key_mops = 1.1;
  double two_sided_total_cap_mops = 78;

  double OneSidedAtomicsMops(uint64_t num_keys) const {
    return std::min(one_sided_per_key_mops * static_cast<double>(num_keys),
                    one_sided_total_cap_mops);
  }
  double TwoSidedAtomicsMops(uint64_t num_keys) const {
    return std::min(two_sided_per_key_mops * static_cast<double>(num_keys),
                    two_sided_total_cap_mops);
  }
};

// Published rows reproduced in Table 3 (throughput in Mops, power in watts).
struct PublishedSystem {
  const char* name;
  double throughput_mops;
  double power_watts;
  double tail_latency_us;

  double KopsPerWatt() const { return throughput_mops * 1e3 / power_watts; }
};

// The comparison set the paper tabulates (Table 3): CPU-bypass systems
// measure only the incremental power (parenthesized in the paper).
inline constexpr PublishedSystem kPublishedSystems[] = {
    {"Memcached", 1.5, 399, 95},
    {"MemC3", 4.3, 410, 53},
    {"RAMCloud", 6.0, 406, 15},
    {"MICA (24 cores)", 137, 438, 81},
    {"FaRM (one-sided)", 6.0, 45, 4.5},
    {"DrTM-KV", 115.7, 742, 3.4},
    {"HERD ('16)", 98.3, 683, 5},
};

}  // namespace kvd

#endif  // SRC_BASELINE_ANALYTIC_MODELS_H_

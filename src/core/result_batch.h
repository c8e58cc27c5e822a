// Per-packet completion records for the ops of one packet in a KvProcessor
// (DESIGN.md §16).
//
// A packet's ops retire one at a time and out of order; the packet is
// answered when the last one has. ResultBatches keeps one record per packet
// in flight, in a RecordPool: the results in request order, the count still
// out, and the owner's context (its reply and whatever it needs to answer).
// Each op's completion is `[pool, batch, slot]`, 16 B, which std::function
// stores in place, so a warm pool allocates nothing per op.
//
// The owner acts through two hooks, each handed the batch's index:
// `on_retire` (optional) runs as an op retires, before its result is stored;
// `on_done` runs once the last op has retired, and the record is released
// when it returns true. An owner that answers later (a replicated write
// waiting for its log prefix to commit) returns false and calls Release()
// itself. A hook may submit, respond, or open batches of its own, and
// opening can grow the pool: hold the index, never a reference, across such
// calls.
#ifndef SRC_CORE_RESULT_BATCH_H_
#define SRC_CORE_RESULT_BATCH_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/core/kv_processor.h"
#include "src/net/kv_types.h"
#include "src/sim/record_pool.h"

namespace kvd {

template <typename Context>
class ResultBatches {
 public:
  struct Batch {
    std::vector<KvResultMessage> results;
    uint32_t remaining = 0;
    Context context;
  };
  using DoneHook = std::function<bool(uint32_t batch)>;
  using RetireHook =
      std::function<void(uint32_t batch, uint32_t slot, KvResultMessage& result)>;

  explicit ResultBatches(DoneHook on_done, RetireHook on_retire = nullptr)
      : on_done_(std::move(on_done)), on_retire_(std::move(on_retire)) {}
  // Completions in flight hold the pool's address.
  ResultBatches(const ResultBatches&) = delete;
  ResultBatches& operator=(const ResultBatches&) = delete;

  // Opens a record for a packet of `ops` results, all still out; lower
  // `remaining` for results the owner fills in itself. A reused record keeps
  // its last context: the owner assigns every field it reads.
  uint32_t Open(size_t ops) {
    const uint32_t batch = pool_.Acquire();
    Batch& record = pool_[batch];
    record.results.clear();
    record.results.resize(ops);
    record.remaining = static_cast<uint32_t>(ops);
    return batch;
  }

  Batch& operator[](uint32_t batch) { return pool_[batch]; }

  // The completion to submit op `slot` of `batch` with.
  KvProcessor::Completion Completion(uint32_t batch, uint32_t slot) {
    auto done = [this, batch, slot](KvResultMessage result) {
      Retire(batch, slot, std::move(result));
    };
    static_assert(sizeof(done) <= 16, "must fit std::function's local buffer");
    return done;
  }

  // Runs on_done and releases the record unless on_done keeps it: the last
  // retirement's work, for a batch with nothing left to submit.
  void Complete(uint32_t batch) {
    if (on_done_(batch)) {
      pool_.Release(batch);
    }
  }
  // Releases a record that on_done kept, or one never submitted.
  void Release(uint32_t batch) { pool_.Release(batch); }

  // Records held: packets admitted and not yet answered.
  uint32_t live() const { return pool_.live(); }
  uint32_t peak() const { return pool_.peak(); }

 private:
  void Retire(uint32_t batch, uint32_t slot, KvResultMessage result) {
    if (on_retire_) {
      on_retire_(batch, slot, result);
    }
    Batch& record = pool_[batch];
    record.results[slot] = std::move(result);
    if (--record.remaining == 0) {
      Complete(batch);
    }
  }

  DoneHook on_done_;
  RetireHook on_retire_;
  RecordPool<Batch> pool_;
};

}  // namespace kvd

#endif  // SRC_CORE_RESULT_BATCH_H_

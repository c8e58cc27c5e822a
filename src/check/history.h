// Operation-history capture for consistency checking (DESIGN.md §15).
//
// A HistoryRecorder collects the client-observable truth of a run: for every
// operation, the invoke/return interval in simulated time, the issuing
// session, the operation itself, and the observed result — including the
// failure codes. That interval history is the sole input to the
// linearizability checker (linearizability.h) and the session-guarantee
// auditors (session_audit.h): nothing is read from server state, so the
// checkers judge exactly what a real client could have observed.
//
// Recording sits behind the KvEndpoint interface (RecordingEndpoint), so any
// topology — a single KvDirectServer's Client, a ReplicatedClient, a
// ClusterClient — records for free. The wrapper stamps the invoke at Enqueue
// time and the return when Flush() hands results back, which is coarser than
// the per-packet truth (a whole flush shares one return time). Coarse is
// sound: widening an operation's interval only admits *more* linearization
// orders, so the checker can miss a violation hidden inside one flush but can
// never report a false one. Drivers that need tight intervals (the nemesis
// scenario's split-phase flushes) call the recorder directly.
#ifndef SRC_CHECK_HISTORY_H_
#define SRC_CHECK_HISTORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/transport/kv_endpoint.h"

namespace kvd {

// Return timestamp of an operation that never returned (client abandoned the
// run with the op in flight). Such ops are concurrent with everything after
// their invoke.
inline constexpr SimTime kNoReturn = ~SimTime{0};

// One recorded operation: interval, issuer, request, observed response.
struct HistoryOp {
  uint64_t session = 0;        // recorder-assigned client session
  uint64_t op_in_session = 0;  // position within the session
  SimTime invoke = 0;
  SimTime ret = kNoReturn;
  bool returned = false;
  KvOperation op;
  KvResultMessage result;

  std::string ToString() const;  // one deterministic line
};

struct History {
  std::vector<HistoryOp> ops;  // in RecordInvoke order

  // Deterministic multi-line dump; 0 = no cap.
  std::string ToString(size_t max_ops = 0) const;
  // FNV-1a digest over a canonical serialization — two runs with identical
  // observable histories produce identical fingerprints.
  std::string Fingerprint() const;
};

class HistoryRecorder {
 public:
  // Allocates a session id for one client. Ops of one session are assumed to
  // be issued by one logical thread (session guarantees are audited per
  // session).
  uint64_t OpenSession() { return next_session_++; }

  // Records the invocation of `op` at time `now`; returns a handle for
  // RecordReturn. Ops that never get a RecordReturn stay pending
  // (ret = kNoReturn) and are treated as ambiguous by the checker.
  size_t RecordInvoke(uint64_t session, const KvOperation& op, SimTime now);

  // Stamps the observed result and return time of a pending op.
  void RecordReturn(size_t handle, const KvResultMessage& result, SimTime now);

  const History& history() const { return history_; }

 private:
  History history_;
  uint64_t next_session_ = 0;
  std::vector<uint64_t> ops_in_session_;
};

// KvEndpoint pass-through that records every Enqueue/Flush into a
// HistoryRecorder under one session. See the header comment for the interval
// coarseness argument.
class RecordingEndpoint : public KvEndpoint {
 public:
  RecordingEndpoint(KvEndpoint& inner, HistoryRecorder& recorder)
      : inner_(inner), recorder_(recorder), session_(recorder.OpenSession()) {}

  size_t Enqueue(KvOperation op) override {
    pending_.push_back(recorder_.RecordInvoke(session_, op, inner_.now()));
    return inner_.Enqueue(std::move(op));
  }

  std::vector<KvResultMessage> Flush() override {
    std::vector<KvResultMessage> results = inner_.Flush();
    const SimTime end = inner_.now();
    for (size_t i = 0; i < pending_.size() && i < results.size(); i++) {
      recorder_.RecordReturn(pending_[i], results[i], end);
    }
    pending_.clear();
    return results;
  }

  Stats endpoint_stats() const override {
    return inner_.endpoint_stats();
  }
  SimTime now() const override { return inner_.now(); }
  bool Step() override { return inner_.Step(); }

  uint64_t session() const { return session_; }

 private:
  KvEndpoint& inner_;
  HistoryRecorder& recorder_;
  uint64_t session_;
  std::vector<size_t> pending_;  // recorder handles of the queued ops
};

// Report helpers shared by the check module.
// Appends printf-formatted text, at most 255 bytes per call.
void Appendf(std::string& out, const char* fmt, ...);
// Appends the first `max_bytes` bytes as lowercase hex, then ".." if cut.
void AppendHex(std::string& out, const std::vector<uint8_t>& bytes,
               size_t max_bytes = 16);
// The first (up to) 8 bytes as a little-endian u64; 0 when empty.
uint64_t ReadU64(const std::vector<uint8_t>& v);

}  // namespace kvd

#endif  // SRC_CHECK_HISTORY_H_

// Wire-level operation and result types (paper Table 1).
//
// KV-Direct extends one-sided RDMA verbs to key-value operations, including
// vector primitives that treat a value as an array of fixed-width elements
// and apply a pre-registered function λ NIC-side:
//
//   get(k) -> v                      put(k, v) -> bool     delete(k) -> bool
//   update_scalar2scalar(k, Δ, λ)    -> original scalar
//   update_scalar2vector(k, Δ, λ)    -> original vector (λ per element)
//   update_vector2vector(k, [Δ], λ)  -> original vector (elementwise)
//   reduce(k, Σ0, λ)                 -> Σ
//   filter(k, λ)                     -> filtered vector
#ifndef SRC_NET_KV_TYPES_H_
#define SRC_NET_KV_TYPES_H_

#include <cstdint>
#include <span>
#include <vector>

namespace kvd {

enum class Opcode : uint8_t {
  kGet = 0,
  kPut = 1,
  kDelete = 2,
  kUpdateScalar = 3,        // update_scalar2scalar: atomic read-modify-write
  kUpdateScalarVector = 4,  // update_scalar2vector: λ(elem, Δ) per element
  kUpdateVector = 5,        // update_vector2vector: λ(elem, Δ_i) elementwise
  kReduce = 6,
  kFilter = 7,
};

// Status byte carried in responses.
enum class ResultCode : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kOutOfMemory = 2,
  kInvalidArgument = 3,
  kBusy = 4,
  // The operation's deadline passed before it could be answered: the server
  // shed it (on admission or at dequeue), or the client gave up retrying.
  // Wire-legal — servers report it so clients stop spending retries.
  kDeadlineExceeded = 5,
  // Admission-controller fast reject: the server is past its overload
  // ceiling (or shedding by queue delay) and refused the operation without
  // queueing it. Cheap by design; clients back off like kBusy.
  kOverloaded = 6,
  // Shard-map routing bounce (src/cluster): the contacted replication group
  // does not own the key's partition under the current shard map. The
  // GroupResponse carries the map epoch and the owning group so the client
  // can patch its cached map and resend the same frame to the right group.
  kWrongShard = 7,
  // The key's partition is write-frozen for the cutover window of a live
  // shard migration. Transient by construction (the freeze lasts one
  // cutover-quiesce window); clients back off and resend the same frame.
  kMigrating = 8,
  // Client-local: the reliable channel exhausted its retransmission budget.
  // Never wire-encoded — kMaxResultCodeByte below stops at kMigrating, so
  // decoders reject this byte as corruption rather than a legal server
  // answer.
  kTimedOut = 9,
};

// Highest wire-legal bytes; decoders reject anything above instead of
// silently mapping unknown bytes onto the `default:` arms below.
inline constexpr uint8_t kMaxOpcodeByte = static_cast<uint8_t>(Opcode::kFilter);
inline constexpr uint8_t kMaxResultCodeByte =
    static_cast<uint8_t>(ResultCode::kMigrating);

// Highest server epoch a result may carry on the wire. Epochs count primary
// failovers, so legitimate values stay tiny; anything above this is a
// corrupted frame that slipped past the checksum and must be rejected rather
// than believed.
inline constexpr uint32_t kMaxWireEpoch = (1u << 24) - 1;

// Stable human-readable names for logs, traces, and error messages.
constexpr const char* OpcodeName(Opcode opcode) {
  switch (opcode) {
    case Opcode::kGet:
      return "GET";
    case Opcode::kPut:
      return "PUT";
    case Opcode::kDelete:
      return "DELETE";
    case Opcode::kUpdateScalar:
      return "UPDATE_SCALAR";
    case Opcode::kUpdateScalarVector:
      return "UPDATE_SCALAR_VECTOR";
    case Opcode::kUpdateVector:
      return "UPDATE_VECTOR";
    case Opcode::kReduce:
      return "REDUCE";
    case Opcode::kFilter:
      return "FILTER";
  }
  return "UNKNOWN_OPCODE";
}

constexpr const char* ResultCodeName(ResultCode code) {
  switch (code) {
    case ResultCode::kOk:
      return "OK";
    case ResultCode::kNotFound:
      return "NOT_FOUND";
    case ResultCode::kOutOfMemory:
      return "OUT_OF_MEMORY";
    case ResultCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ResultCode::kBusy:
      return "BUSY";
    case ResultCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case ResultCode::kOverloaded:
      return "OVERLOADED";
    case ResultCode::kWrongShard:
      return "WRONG_SHARD";
    case ResultCode::kMigrating:
      return "MIGRATING";
    case ResultCode::kTimedOut:
      return "TIMED_OUT";
  }
  return "UNKNOWN_RESULT";
}

// Identifiers of pre-registered update functions (paper §3.2: user-defined λ
// are compiled to hardware logic before execution; clients reference them by
// id). The builtin set covers the paper's workloads; applications register
// more through UpdateFunctionRegistry.
enum BuiltinFunction : uint16_t {
  kFnAddU64 = 0,    // fetch-and-add
  kFnAddF32 = 1,    // PageRank weight accumulation
  kFnMaxU64 = 2,
  kFnMinU64 = 3,
  kFnXorU64 = 4,
  kFnCasU64 = 5,    // compare-and-swap: param = (expected<<32 | new) pattern
  kFnNonZero = 6,   // filter: keep elements != 0
  kFnGreater = 7,   // filter: keep elements > param
  kFnFirstUserFunction = 64,
};

struct KvOperation {
  Opcode opcode = Opcode::kGet;
  std::vector<uint8_t> key;
  // PUT: the value. update_vector2vector: the parameter vector [Δ].
  std::vector<uint8_t> value;
  // Scalar parameter Δ, or initial reduction value Σ0.
  uint64_t param = 0;
  uint16_t function_id = kFnAddU64;
  uint8_t element_width = 8;  // bytes per vector element (4 or 8)
  // Vector updates optionally skip returning the original vector, halving
  // network traffic (Table 2 "vector update without return").
  bool return_value = true;
  // Absolute simulated-time deadline in picoseconds (0 = none). Stamped by
  // the client from its per-op budget, carried on the wire (wire_format flag
  // kFlagHasDeadline), and honored end to end: the sender stops
  // retransmitting an expired packet, the server sheds expired operations on
  // admission and at dequeue instead of doing dead work.
  uint64_t deadline = 0;
  // Request-trace handle (src/obs/tracer.h). In-memory only — never
  // encoded on the wire; 0 means untraced.
  uint64_t trace = 0;
};

// An operation whose key and value are views of bytes someone else holds: a
// received packet, an op owned through KvDirectServer::Submit, a log entry.
// The KV processor borrows one from Submit until admission, so the holder
// keeps the bytes alive and in place until then (DESIGN.md §16). The
// scalars are KvOperation's.
struct KvOpView {
  Opcode opcode = Opcode::kGet;
  std::span<const uint8_t> key;
  std::span<const uint8_t> value;
  uint64_t param = 0;
  uint16_t function_id = kFnAddU64;
  uint8_t element_width = 8;
  bool return_value = true;
  uint64_t deadline = 0;
  uint64_t trace = 0;

  KvOpView() = default;
  // Views `op`'s bytes, which must outlive the view.
  KvOpView(const KvOperation& op)  // NOLINT: implicit by design
      : opcode(op.opcode),
        key(op.key),
        value(op.value),
        param(op.param),
        function_id(op.function_id),
        element_width(op.element_width),
        return_value(op.return_value),
        deadline(op.deadline),
        trace(op.trace) {}
  // A view of a temporary would dangle once the full expression ends.
  KvOpView(const KvOperation&&) = delete;

  // A copy that owns its bytes.
  KvOperation ToOwned() const {
    KvOperation op;
    op.opcode = opcode;
    op.key.assign(key.begin(), key.end());
    op.value.assign(value.begin(), value.end());
    op.param = param;
    op.function_id = function_id;
    op.element_width = element_width;
    op.return_value = return_value;
    op.deadline = deadline;
    op.trace = trace;
    return op;
  }
};

// The two conversions above copy KvOperation's nine fields one by one. A
// binding of exactly nine names stops compiling once either type gains a
// field, so a new one cannot be dropped on the borrowed paths unnoticed.
inline void KvOpViewCarriesEveryField(const KvOperation& op, const KvOpView& view) {
  [[maybe_unused]] const auto& [o1, k1, v1, p1, f1, w1, r1, d1, t1] = op;
  [[maybe_unused]] const auto& [o2, k2, v2, p2, f2, w2, r2, d2, t2] = view;
}

struct KvResultMessage {
  ResultCode code = ResultCode::kOk;
  // GET value / original vector / filtered vector.
  std::vector<uint8_t> value;
  // Original scalar (updates) or reduction result.
  uint64_t scalar = 0;
  // Server epoch at execution time. 0 for an unreplicated server; a
  // replication group stamps its current epoch so clients detect responses
  // from a deposed primary (src/replica). Bounded by kMaxWireEpoch.
  uint32_t epoch = 0;
};

// True for result codes that leave the operation's effect unknown to the
// client: the server may have executed it while the answer (or the request's
// last retransmission) was lost. The consistency checker (src/check) treats
// writes with these codes as "may or may not have taken effect"; every other
// code is a definite answer — kOk/kNotFound constrain the state, the
// rejection codes guarantee no effect.
constexpr bool IsAmbiguousResult(ResultCode code) {
  return code == ResultCode::kTimedOut || code == ResultCode::kDeadlineExceeded;
}

// True for operations that mutate the stored value.
constexpr bool IsWriteOpcode(Opcode opcode) {
  switch (opcode) {
    case Opcode::kGet:
    case Opcode::kReduce:
    case Opcode::kFilter:
      return false;
    case Opcode::kPut:
    case Opcode::kDelete:
    case Opcode::kUpdateScalar:
    case Opcode::kUpdateScalarVector:
    case Opcode::kUpdateVector:
      return true;
  }
  return true;
}

constexpr bool IsVectorOpcode(Opcode opcode) {
  switch (opcode) {
    case Opcode::kUpdateScalarVector:
    case Opcode::kUpdateVector:
    case Opcode::kReduce:
    case Opcode::kFilter:
      return true;
    default:
      return false;
  }
}

}  // namespace kvd

#endif  // SRC_NET_KV_TYPES_H_

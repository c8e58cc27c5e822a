#include "src/transport/kv_endpoint.h"

#include <utility>

#include "src/common/assert.h"

namespace kvd {
namespace {

Status ToStatus(ResultCode code) {
  switch (code) {
    case ResultCode::kOk:
      return Status::Ok();
    case ResultCode::kNotFound:
      return Status::NotFound();
    case ResultCode::kOutOfMemory:
      return Status::OutOfMemory();
    case ResultCode::kInvalidArgument:
      return Status::InvalidArgument();
    case ResultCode::kDeadlineExceeded:
    case ResultCode::kTimedOut:
      return Status(StatusCode::kTimedOut);
    case ResultCode::kBusy:
    case ResultCode::kOverloaded:
    // Cluster shard bounces (DESIGN.md §14) are routing control flow the
    // cluster client absorbs; one that surfaces here is a retryable busy
    // condition.
    case ResultCode::kWrongShard:
    case ResultCode::kMigrating:
      return Status(StatusCode::kResourceBusy);
  }
  return Status::Internal();
}

KvOperation MakeOp(Opcode opcode, std::span<const uint8_t> key, uint64_t param = 0,
                   uint16_t function_id = kFnAddU64, uint8_t element_width = 8) {
  KvOperation op;
  op.opcode = opcode;
  op.key.assign(key.begin(), key.end());
  op.param = param;
  op.function_id = function_id;
  op.element_width = element_width;
  return op;
}

Result<std::vector<uint8_t>> ValueOf(KvResultMessage result) {
  if (result.code != ResultCode::kOk) {
    return ToStatus(result.code);
  }
  return std::move(result.value);
}

Result<uint64_t> ScalarOf(const KvResultMessage& result) {
  if (result.code != ResultCode::kOk) {
    return ToStatus(result.code);
  }
  return result.scalar;
}

}  // namespace

KvResultMessage KvEndpoint::Call(KvOperation op) {
  Enqueue(std::move(op));
  std::vector<KvResultMessage> results = Flush();
  KVD_CHECK(results.size() == 1);
  return std::move(results[0]);
}

Result<std::vector<uint8_t>> KvEndpoint::Get(std::span<const uint8_t> key) {
  return ValueOf(Call(MakeOp(Opcode::kGet, key)));
}

Status KvEndpoint::Put(std::span<const uint8_t> key, std::span<const uint8_t> value) {
  KvOperation op = MakeOp(Opcode::kPut, key);
  op.value.assign(value.begin(), value.end());
  return ToStatus(Call(std::move(op)).code);
}

Status KvEndpoint::Delete(std::span<const uint8_t> key) {
  return ToStatus(Call(MakeOp(Opcode::kDelete, key)).code);
}

Result<uint64_t> KvEndpoint::Update(std::span<const uint8_t> key, uint64_t param,
                                    uint16_t function_id, uint8_t element_width) {
  return ScalarOf(
      Call(MakeOp(Opcode::kUpdateScalar, key, param, function_id, element_width)));
}

Result<std::vector<uint8_t>> KvEndpoint::UpdateVectorWithScalar(
    std::span<const uint8_t> key, uint64_t param, uint16_t function_id,
    uint8_t element_width) {
  return ValueOf(Call(
      MakeOp(Opcode::kUpdateScalarVector, key, param, function_id, element_width)));
}

Result<std::vector<uint8_t>> KvEndpoint::UpdateVectorWithVector(
    std::span<const uint8_t> key, std::span<const uint8_t> params,
    uint16_t function_id, uint8_t element_width) {
  KvOperation op = MakeOp(Opcode::kUpdateVector, key, 0, function_id, element_width);
  op.value.assign(params.begin(), params.end());
  return ValueOf(Call(std::move(op)));
}

Result<uint64_t> KvEndpoint::Reduce(std::span<const uint8_t> key, uint64_t initial,
                                    uint16_t function_id, uint8_t element_width) {
  return ScalarOf(Call(MakeOp(Opcode::kReduce, key, initial, function_id, element_width)));
}

Result<std::vector<uint8_t>> KvEndpoint::Filter(std::span<const uint8_t> key,
                                                uint64_t param, uint16_t function_id,
                                                uint8_t element_width) {
  return ValueOf(Call(MakeOp(Opcode::kFilter, key, param, function_id, element_width)));
}

}  // namespace kvd

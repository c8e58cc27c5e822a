#include "src/check/history.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "src/common/assert.h"

namespace kvd {

void AppendHex(std::string& out, const std::vector<uint8_t>& bytes,
               size_t max_bytes) {
  static const char kHex[] = "0123456789abcdef";
  const size_t n = std::min(bytes.size(), max_bytes);
  for (size_t i = 0; i < n; i++) {
    out.push_back(kHex[bytes[i] >> 4]);
    out.push_back(kHex[bytes[i] & 0xf]);
  }
  if (bytes.size() > max_bytes) {
    out += "..";
  }
}

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

uint64_t ReadU64(const std::vector<uint8_t>& v) {
  uint64_t x = 0;
  if (!v.empty()) {
    std::memcpy(&x, v.data(), std::min<size_t>(8, v.size()));
  }
  return x;
}

std::string HistoryOp::ToString() const {
  std::string out;
  Appendf(out, "[s%" PRIu64 "#%" PRIu64 "] ", session, op_in_session);
  if (returned) {
    Appendf(out, "%" PRIu64 "..%" PRIu64 " ", invoke, ret);
  } else {
    Appendf(out, "%" PRIu64 "..pending ", invoke);
  }
  out += OpcodeName(op.opcode);
  out += " k=";
  AppendHex(out, op.key);
  if (op.opcode == Opcode::kPut) {
    out += " v=";
    AppendHex(out, op.value);
  } else if (op.opcode == Opcode::kUpdateScalar) {
    Appendf(out, " fn=%u d=%" PRIu64, op.function_id, op.param);
  }
  out += " -> ";
  if (!returned) {
    out += "?";
    return out;
  }
  out += ResultCodeName(result.code);
  if (result.code == ResultCode::kOk) {
    if (op.opcode == Opcode::kGet) {
      out += " v=";
      AppendHex(out, result.value);
    } else if (op.opcode == Opcode::kUpdateScalar) {
      Appendf(out, " orig=%" PRIu64, result.scalar);
    }
  }
  return out;
}

std::string History::ToString(size_t max_ops) const {
  std::string out;
  const size_t n =
      max_ops == 0 ? ops.size() : std::min(ops.size(), max_ops);
  for (size_t i = 0; i < n; i++) {
    Appendf(out, "%4zu ", i);
    out += ops[i].ToString();
    out += "\n";
  }
  if (n < ops.size()) {
    Appendf(out, "  ... %zu more ops elided\n", ops.size() - n);
  }
  return out;
}

std::string History::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  auto mix_byte = [&h](uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  auto mix_u64 = [&](uint64_t v) {
    for (int i = 0; i < 8; i++) {
      mix_byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  auto mix_bytes = [&](const std::vector<uint8_t>& bytes) {
    mix_u64(bytes.size());
    for (uint8_t b : bytes) {
      mix_byte(b);
    }
  };
  mix_u64(ops.size());
  for (const HistoryOp& o : ops) {
    mix_u64(o.session);
    mix_u64(o.invoke);
    mix_u64(o.returned ? o.ret : kNoReturn);
    mix_byte(static_cast<uint8_t>(o.op.opcode));
    mix_bytes(o.op.key);
    mix_bytes(o.op.value);
    mix_u64(o.op.param);
    mix_byte(static_cast<uint8_t>(o.result.code));
    mix_bytes(o.result.value);
    mix_u64(o.result.scalar);
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

size_t HistoryRecorder::RecordInvoke(uint64_t session, const KvOperation& op,
                                     SimTime now) {
  KVD_CHECK_MSG(session < next_session_, "RecordInvoke on an unopened session");
  if (ops_in_session_.size() <= session) {
    ops_in_session_.resize(session + 1, 0);
  }
  HistoryOp rec;
  rec.session = session;
  rec.op_in_session = ops_in_session_[session]++;
  rec.invoke = now;
  rec.op = op;
  history_.ops.push_back(std::move(rec));
  return history_.ops.size() - 1;
}

void HistoryRecorder::RecordReturn(size_t handle,
                                   const KvResultMessage& result, SimTime now) {
  KVD_CHECK(handle < history_.ops.size());
  HistoryOp& rec = history_.ops[handle];
  KVD_CHECK_MSG(!rec.returned, "RecordReturn called twice for one op");
  rec.returned = true;
  rec.ret = now;
  rec.result = result;
  KVD_CHECK_MSG(rec.ret >= rec.invoke, "return precedes invoke");
}

}  // namespace kvd

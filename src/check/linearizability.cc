#include "src/check/linearizability.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_set>
#include <utility>

namespace kvd {
namespace {

enum class OpKind : uint8_t { kGet, kPut, kDelete, kAdd };

// One history op projected onto its key's search.
struct KeyOp {
  size_t hist_index = 0;
  SimTime invoke = 0;
  SimTime ret = kNoReturn;  // kNoReturn for ambiguous ops: open interval
  bool ambiguous = false;
  OpKind kind = OpKind::kGet;
  uint64_t delta = 0;
  std::vector<uint8_t> put_value;
  // Observed response (definite ops only).
  ResultCode code = ResultCode::kOk;
  std::vector<uint8_t> observed_value;
  uint64_t observed_scalar = 0;
};

// The model: one register of bytes, present or absent.
using State = std::optional<std::vector<uint8_t>>;

void WriteU64(std::vector<uint8_t>& v, uint64_t x) {
  if (!v.empty()) {
    std::memcpy(v.data(), &x, std::min<size_t>(8, v.size()));
  }
}

std::string StateString(const State& s) {
  if (!s.has_value()) {
    return "<absent>";
  }
  std::string out;
  AppendHex(out, *s);
  return out;
}

// Unconditional server semantics — used when linearizing an ambiguous write,
// whose response (and thus result constraint) was never observed.
void ApplyEffect(State& s, const KeyOp& o) {
  switch (o.kind) {
    case OpKind::kGet:
      break;
    case OpKind::kPut:
      s = o.put_value;
      break;
    case OpKind::kDelete:
      s.reset();
      break;
    case OpKind::kAdd:
      if (s.has_value() && s->size() >= 8) {
        WriteU64(*s, ReadU64(*s) + o.delta);
      }
      break;
  }
}

// Applies a definite op: the observed result must match the model. Returns
// false (state untouched may be partially moot — caller copies) on mismatch;
// `why`, when non-null, receives the mismatch explanation.
bool ApplyDefinite(State& s, const KeyOp& o, std::string* why) {
  auto fail = [&](const char* fmt, auto... args) {
    if (why != nullptr) {
      Appendf(*why, fmt, args...);
    }
    return false;
  };
  switch (o.kind) {
    case OpKind::kGet:
      if (o.code == ResultCode::kOk) {
        if (!s.has_value()) {
          return fail("GET observed a value but the register is absent");
        }
        if (*s != o.observed_value) {
          return fail("GET observed %s but the register holds %s",
                      StateString(State(o.observed_value)).c_str(),
                      StateString(s).c_str());
        }
        return true;
      }
      if (s.has_value()) {
        return fail("GET observed NOT_FOUND but the register holds %s",
                    StateString(s).c_str());
      }
      return true;
    case OpKind::kPut:
      if (o.code != ResultCode::kOk) {
        return fail("PUT observed %s", ResultCodeName(o.code));
      }
      s = o.put_value;
      return true;
    case OpKind::kDelete:
      if (o.code == ResultCode::kOk) {
        if (!s.has_value()) {
          return fail("DELETE acked but the register is absent");
        }
        s.reset();
        return true;
      }
      if (s.has_value()) {
        return fail("DELETE observed NOT_FOUND but the register holds %s",
                    StateString(s).c_str());
      }
      return true;
    case OpKind::kAdd:
      if (o.code == ResultCode::kOk) {
        if (!s.has_value()) {
          return fail("fetch-add observed original %" PRIu64
                      " but the register is absent",
                      o.observed_scalar);
        }
        if (s->size() < 8) {
          return fail("fetch-add on a %zu-byte value", s->size());
        }
        const uint64_t old = ReadU64(*s);
        if (old != o.observed_scalar) {
          return fail("fetch-add observed original %" PRIu64
                      " but the register holds %" PRIu64,
                      o.observed_scalar, old);
        }
        WriteU64(*s, old + o.delta);
        return true;
      }
      if (s.has_value()) {
        return fail("fetch-add observed NOT_FOUND but the register holds %s",
                    StateString(s).c_str());
      }
      return true;
  }
  return false;
}

// Wing & Gong search over one key's ops.
class KeySearcher {
 public:
  KeySearcher(std::vector<KeyOp> ops, State initial, uint64_t budget)
      : ops_(std::move(ops)), initial_(std::move(initial)), budget_(budget) {
    // Deterministic candidate order: by interval, then history position.
    std::sort(ops_.begin(), ops_.end(), [](const KeyOp& a, const KeyOp& b) {
      if (a.invoke != b.invoke) return a.invoke < b.invoke;
      if (a.ret != b.ret) return a.ret < b.ret;
      return a.hist_index < b.hist_index;
    });
    remaining_.assign((ops_.size() + 63) / 64, 0);
    for (size_t i = 0; i < ops_.size(); i++) {
      remaining_[i / 64] |= 1ull << (i % 64);
      if (!ops_[i].ambiguous) {
        remaining_definite_++;
      }
    }
  }

  CheckStatus Run() {
    if (Search(initial_)) {
      return CheckStatus::kOk;
    }
    return limit_hit_ ? CheckStatus::kLimitExceeded : CheckStatus::kViolation;
  }

  uint64_t configurations() const { return configurations_; }

  // The longest linearizable prefix the failed search reached, the state it
  // left the model in, and why each minimal candidate is stuck there.
  std::string FrontierString() const {
    std::string out;
    Appendf(out, "  longest linearizable prefix: %zu of %zu ops\n",
            frontier_order_.size(), ops_.size());
    const size_t start =
        frontier_order_.size() > 8 ? frontier_order_.size() - 8 : 0;
    if (start > 0) {
      Appendf(out, "    ... %zu earlier linearized ops elided\n", start);
    }
    for (size_t i = start; i < frontier_order_.size(); i++) {
      const auto& [index, applied] = frontier_order_[i];
      Appendf(out, "    %s hist[%zu]\n",
              applied ? "linearized" : "dropped   ", ops_[index].hist_index);
    }
    out += "  model state there: " + StateString(frontier_state_) + "\n";
    if (frontier_reasons_.empty()) {
      out += "  no minimal candidate exists (real-time order is cyclic "
             "against the observed results)\n";
    }
    for (const std::string& reason : frontier_reasons_) {
      out += "  stuck: " + reason + "\n";
    }
    return out;
  }

 private:
  bool Taken(size_t i) const {
    return (remaining_[i / 64] & (1ull << (i % 64))) == 0;
  }
  void Take(size_t i) { remaining_[i / 64] &= ~(1ull << (i % 64)); }
  void Put(size_t i) { remaining_[i / 64] |= 1ull << (i % 64); }

  std::string MemoKey(const State& s) const {
    std::string key;
    key.reserve(remaining_.size() * 8 + 1 + (s.has_value() ? s->size() : 0));
    for (uint64_t word : remaining_) {
      for (int b = 0; b < 8; b++) {
        key.push_back(static_cast<char>(word >> (8 * b)));
      }
    }
    key.push_back(s.has_value() ? 1 : 0);
    if (s.has_value()) {
      key.append(s->begin(), s->end());
    }
    return key;
  }

  bool Search(const State& s) {
    if (remaining_definite_ == 0) {
      // Every remaining op is ambiguous; all of them "never happened".
      return true;
    }
    if (++configurations_ > budget_) {
      limit_hit_ = true;
      return false;
    }
    std::string memo = MemoKey(s);
    if (visited_.count(memo) != 0) {
      return false;
    }

    // A remaining op is a linearization candidate iff nothing remaining is
    // real-time ordered before it: its invoke precedes every remaining
    // return.
    SimTime min_ret = kNoReturn;
    for (size_t i = 0; i < ops_.size(); i++) {
      if (!Taken(i)) {
        min_ret = std::min(min_ret, ops_[i].ret);
      }
    }

    // Frontier tracking for the violation report: the deepest node wins.
    bool at_frontier = order_.size() >= frontier_order_.size();
    if (at_frontier) {
      frontier_order_ = order_;
      frontier_state_ = s;
      frontier_reasons_.clear();
    }

    for (size_t i = 0; i < ops_.size(); i++) {
      if (Taken(i) || ops_[i].invoke > min_ret) {
        continue;
      }
      const KeyOp& o = ops_[i];
      if (o.ambiguous) {
        // Branch 1: the write took effect here.
        State applied = s;
        ApplyEffect(applied, o);
        Take(i);
        order_.emplace_back(i, true);
        if (Search(applied)) {
          return true;
        }
        // Branch 2: the write never took effect — consume it with no state
        // change (sound: an unobserved response constrains nothing).
        order_.back().second = false;
        if (Search(s)) {
          return true;
        }
        order_.pop_back();
        Put(i);
      } else {
        State applied = s;
        std::string* why = nullptr;
        std::string reason;
        if (at_frontier && order_.size() + 1 > frontier_order_.size()) {
          // Still the best node: collect the mismatch for the report.
          why = &reason;
        }
        if (ApplyDefinite(applied, o, why)) {
          Take(i);
          remaining_definite_--;
          order_.emplace_back(i, true);
          if (Search(applied)) {
            return true;
          }
          order_.pop_back();
          remaining_definite_++;
          Put(i);
        } else if (why != nullptr && frontier_reasons_.size() < 8) {
          std::string line;
          Appendf(line, "hist[%zu]: ", o.hist_index);
          frontier_reasons_.push_back(line + reason);
        }
      }
      if (at_frontier && order_.size() < frontier_order_.size()) {
        at_frontier = false;  // a deeper node took over the report
      }
      if (limit_hit_) {
        return false;
      }
    }
    visited_.insert(std::move(memo));
    return false;
  }

  std::vector<KeyOp> ops_;
  State initial_;
  uint64_t budget_;
  std::vector<uint64_t> remaining_;  // bit set = not yet linearized
  size_t remaining_definite_ = 0;
  std::vector<std::pair<size_t, bool>> order_;  // (op index, applied?)
  std::unordered_set<std::string> visited_;
  uint64_t configurations_ = 0;
  bool limit_hit_ = false;

  std::vector<std::pair<size_t, bool>> frontier_order_;
  State frontier_state_;
  std::vector<std::string> frontier_reasons_;
};

bool SupportedOpcode(const KvOperation& op) {
  switch (op.opcode) {
    case Opcode::kGet:
    case Opcode::kPut:
    case Opcode::kDelete:
      return true;
    case Opcode::kUpdateScalar:
      return op.function_id == kFnAddU64;
    default:
      return false;
  }
}

OpKind KindOf(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPut:
      return OpKind::kPut;
    case Opcode::kDelete:
      return OpKind::kDelete;
    case Opcode::kUpdateScalar:
      return OpKind::kAdd;
    default:
      return OpKind::kGet;
  }
}

}  // namespace

CheckReport CheckLinearizability(const History& history,
                                 const CheckOptions& options) {
  CheckReport report;

  // Project the history per key (P-compositionality), applying the ambiguity
  // rules from the header.
  std::map<std::vector<uint8_t>, std::vector<KeyOp>> per_key;
  for (size_t i = 0; i < history.ops.size(); i++) {
    const HistoryOp& h = history.ops[i];
    if (!SupportedOpcode(h.op)) {
      report.ops_unsupported++;
      continue;
    }
    const bool ambiguous = !h.returned || IsAmbiguousResult(h.result.code);
    if (ambiguous && !IsWriteOpcode(h.op.opcode)) {
      report.ops_discarded++;  // an unanswered read constrains nothing
      continue;
    }
    if (!ambiguous && h.result.code != ResultCode::kOk &&
        h.result.code != ResultCode::kNotFound) {
      report.ops_discarded++;  // definite rejection without effect
      continue;
    }
    KeyOp op;
    op.hist_index = i;
    op.invoke = h.invoke;
    op.ret = ambiguous ? kNoReturn : h.ret;
    op.ambiguous = ambiguous;
    op.kind = KindOf(h.op.opcode);
    op.delta = h.op.param;
    op.put_value = h.op.value;
    if (!ambiguous) {
      op.code = h.result.code;
      op.observed_value = h.result.value;
      op.observed_scalar = h.result.scalar;
    }
    per_key[h.op.key].push_back(std::move(op));
    report.ops_checked++;
  }

  for (auto& [key, ops] : per_key) {
    report.keys_checked++;
    const size_t num_ops = ops.size();
    const uint64_t budget =
        options.max_configurations > report.configurations
            ? options.max_configurations - report.configurations
            : 0;
    State initial;
    auto seeded = options.initial_values.find(key);
    if (seeded != options.initial_values.end()) {
      initial = seeded->second;
    }
    KeySearcher searcher(std::move(ops), std::move(initial), budget);
    const CheckStatus status = searcher.Run();
    report.configurations += searcher.configurations();
    if (status == CheckStatus::kOk) {
      continue;
    }
    KeyCheckReport key_report;
    key_report.key = key;
    key_report.status = status;
    key_report.ops = num_ops;
    key_report.configurations = searcher.configurations();
    if (status == CheckStatus::kViolation) {
      key_report.detail = searcher.FrontierString();
      key_report.detail += "  sub-history of the key:\n";
      size_t printed = 0;
      for (size_t i = 0;
           i < history.ops.size() && printed < options.max_report_ops; i++) {
        if (history.ops[i].op.key != key) {
          continue;
        }
        std::string line;
        Appendf(line, "    hist[%zu] ", i);
        key_report.detail += line + history.ops[i].ToString() + "\n";
        printed++;
      }
      if (printed == options.max_report_ops && printed < num_ops) {
        key_report.detail += "    ...\n";
      }
    } else {
      key_report.detail = "  search budget exhausted before a verdict\n";
    }
    report.keys.push_back(std::move(key_report));
  }

  for (const KeyCheckReport& key_report : report.keys) {
    if (key_report.status == CheckStatus::kViolation) {
      report.status = CheckStatus::kViolation;
      break;
    }
    report.status = CheckStatus::kLimitExceeded;
  }
  return report;
}

std::string CheckReport::ToString() const {
  std::string out;
  Appendf(out,
          "linearizability: %s (%zu keys, %zu ops checked, %zu discarded, "
          "%zu unsupported, %" PRIu64 " configurations)\n",
          CheckStatusName(status), keys_checked, ops_checked, ops_discarded,
          ops_unsupported, configurations);
  for (const KeyCheckReport& key_report : keys) {
    std::string key_hex;
    AppendHex(key_hex, key_report.key);
    Appendf(out, "key %s: %s (%zu ops, %" PRIu64 " configurations)\n",
            key_hex.c_str(), CheckStatusName(key_report.status),
            key_report.ops, key_report.configurations);
    out += key_report.detail;
  }
  return out;
}

}  // namespace kvd

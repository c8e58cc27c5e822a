#include "src/check/session_audit.h"

#include <algorithm>
#include <cinttypes>
#include <set>

namespace kvd {
namespace {

bool IsAdd(const KvOperation& op) {
  return op.opcode == Opcode::kUpdateScalar && op.function_id == kFnAddU64;
}

// Ambiguity classification mirrors linearizability.cc.
bool Ambiguous(const HistoryOp& h) {
  return !h.returned || IsAmbiguousResult(h.result.code);
}

// Definite rejection without effect — invisible to every auditor.
bool Discarded(const HistoryOp& h) {
  return !Ambiguous(h) && h.result.code != ResultCode::kOk &&
         h.result.code != ResultCode::kNotFound;
}

// Strict real-time precedence: a's effect is definitely visible before b
// begins. Ambiguous ops never strictly precede anything (open interval).
bool Precedes(const HistoryOp& a, const HistoryOp& b) {
  return a.returned && !Ambiguous(a) && a.ret < b.invoke;
}

struct KeyOps {
  std::vector<size_t> indices;  // into history.ops, ascending
  bool has_put = false;         // any put, definite or ambiguous
  bool has_delete = false;
  bool has_add = false;
  std::set<uint64_t> put_sessions;
};

std::map<std::vector<uint8_t>, KeyOps> GroupByKey(const History& history) {
  std::map<std::vector<uint8_t>, KeyOps> keys;
  for (size_t i = 0; i < history.ops.size(); i++) {
    const HistoryOp& h = history.ops[i];
    if (Discarded(h)) {
      continue;
    }
    KeyOps& k = keys[h.op.key];
    k.indices.push_back(i);
    switch (h.op.opcode) {
      case Opcode::kPut:
        k.has_put = true;
        k.put_sessions.insert(h.session);
        break;
      case Opcode::kDelete:
        k.has_delete = true;
        break;
      case Opcode::kUpdateScalar:
        k.has_add = true;
        break;
      default:
        break;
    }
  }
  return keys;
}

void AuditCounterKey(const History& history, const std::vector<uint8_t>& key,
                     const KeyOps& k, AuditReport& report) {
  // For every definite read, the floor it must observe: the largest value
  // its own session definitely established earlier — via an acked fetch-add
  // (original + delta) or an earlier definite read.
  for (size_t gi : k.indices) {
    const HistoryOp& g = history.ops[gi];
    if (g.op.opcode != Opcode::kGet || Ambiguous(g)) {
      continue;
    }
    uint64_t add_floor = 0;
    size_t add_floor_index = 0;
    uint64_t read_floor = 0;
    size_t read_floor_index = 0;
    bool have_add_floor = false;
    bool have_read_floor = false;
    for (size_t ei : k.indices) {
      const HistoryOp& e = history.ops[ei];
      if (e.session != g.session || !Precedes(e, g)) {
        continue;
      }
      if (IsAdd(e.op) && e.result.code == ResultCode::kOk) {
        const uint64_t after = e.result.scalar + e.op.param;
        if (!have_add_floor || after > add_floor) {
          add_floor = after;
          add_floor_index = ei;
          have_add_floor = true;
        }
      } else if (e.op.opcode == Opcode::kGet &&
                 e.result.code == ResultCode::kOk) {
        const uint64_t seen = ReadU64(e.result.value);
        if (!have_read_floor || seen > read_floor) {
          read_floor = seen;
          read_floor_index = ei;
          have_read_floor = true;
        }
      }
    }
    if (!have_add_floor && !have_read_floor) {
      continue;
    }
    const bool not_found = g.result.code == ResultCode::kNotFound;
    const uint64_t value = not_found ? 0 : ReadU64(g.result.value);
    if (have_add_floor && (not_found || value < add_floor)) {
      AuditViolation v;
      v.auditor = "read-your-writes";
      v.session = g.session;
      v.key = key;
      v.hist_index = gi;
      if (not_found) {
        Appendf(v.detail,
                "read observed NOT_FOUND after own acked fetch-add hist[%zu] "
                "established %" PRIu64,
                add_floor_index, add_floor);
      } else {
        Appendf(v.detail,
                "read observed %" PRIu64 " but own acked fetch-add hist[%zu] "
                "established %" PRIu64,
                value, add_floor_index, add_floor);
      }
      report.violations.push_back(std::move(v));
      continue;  // one violation per op — the sharper auditor wins
    }
    if (have_read_floor && (not_found || value < read_floor)) {
      AuditViolation v;
      v.auditor = "monotonic-reads";
      v.session = g.session;
      v.key = key;
      v.hist_index = gi;
      if (not_found) {
        Appendf(v.detail,
                "read observed NOT_FOUND after earlier read hist[%zu] "
                "observed %" PRIu64,
                read_floor_index, read_floor);
      } else {
        Appendf(v.detail,
                "read observed %" PRIu64 " after earlier read hist[%zu] "
                "observed %" PRIu64 " (counter values never decrease)",
                value, read_floor_index, read_floor);
      }
      report.violations.push_back(std::move(v));
    }
  }
}

void AuditRegisterKey(const History& history, const std::vector<uint8_t>& key,
                      const KeyOps& k, AuditReport& report) {
  std::vector<size_t> puts;  // all puts (one session writes this key)
  for (size_t i : k.indices) {
    if (history.ops[i].op.opcode == Opcode::kPut) {
      puts.push_back(i);
    }
  }
  for (size_t gi : k.indices) {
    const HistoryOp& g = history.ops[gi];
    if (g.op.opcode != Opcode::kGet || Ambiguous(g)) {
      continue;
    }
    // An acked put that completed before this read pins the register to some
    // written value: the pre-history base can no longer show through.
    bool acked_put_before = false;
    for (size_t pi : puts) {
      const HistoryOp& p = history.ops[pi];
      if (!Ambiguous(p) && p.result.code == ResultCode::kOk &&
          Precedes(p, g)) {
        acked_put_before = true;
        break;
      }
    }
    if (!acked_put_before) {
      continue;
    }
    if (g.result.code == ResultCode::kNotFound) {
      AuditViolation v;
      v.auditor = "read-your-writes";
      v.session = g.session;
      v.key = key;
      v.hist_index = gi;
      v.detail = "read observed NOT_FOUND after an acked put completed "
                 "(no deletes in this history)";
      report.violations.push_back(std::move(v));
      continue;
    }
    // Which puts could have produced the observed value?
    std::vector<size_t> sources;
    for (size_t pi : puts) {
      if (history.ops[pi].op.value == g.result.value) {
        sources.push_back(pi);
      }
    }
    if (sources.empty()) {
      AuditViolation v;
      v.auditor = "read-your-writes";
      v.session = g.session;
      v.key = key;
      v.hist_index = gi;
      v.detail = "read observed a value no put ever wrote (after an acked "
                 "put completed)";
      report.violations.push_back(std::move(v));
      continue;
    }
    // Stale read: every candidate source was acked and then definitely
    // overwritten by another acked put that completed before this read.
    bool all_overwritten = true;
    size_t example_put = 0;
    size_t example_overwriter = 0;
    for (size_t pi : sources) {
      const HistoryOp& p = history.ops[pi];
      if (Ambiguous(p) || p.result.code != ResultCode::kOk) {
        all_overwritten = false;  // could have landed late — not stale
        break;
      }
      bool overwritten = false;
      for (size_t qi : puts) {
        const HistoryOp& q = history.ops[qi];
        if (qi != pi && !Ambiguous(q) && q.result.code == ResultCode::kOk &&
            Precedes(p, q) && Precedes(q, g)) {
          overwritten = true;
          example_put = pi;
          example_overwriter = qi;
          break;
        }
      }
      if (!overwritten) {
        all_overwritten = false;
        break;
      }
    }
    if (all_overwritten) {
      AuditViolation v;
      v.auditor = "read-your-writes";
      v.session = g.session;
      v.key = key;
      v.hist_index = gi;
      Appendf(v.detail,
              "stale read: observed the value of put hist[%zu], which was "
              "definitely overwritten by put hist[%zu] before this read "
              "began",
              example_put, example_overwriter);
      report.violations.push_back(std::move(v));
    }
  }
  // Monotonic reads: a later read must not observe a definitely-older put
  // than an earlier read by the same session.
  for (size_t ai = 0; ai < k.indices.size(); ai++) {
    const HistoryOp& g1 = history.ops[k.indices[ai]];
    if (g1.op.opcode != Opcode::kGet || Ambiguous(g1) ||
        g1.result.code != ResultCode::kOk) {
      continue;
    }
    for (size_t bi = ai + 1; bi < k.indices.size(); bi++) {
      const HistoryOp& g2 = history.ops[k.indices[bi]];
      if (g2.op.opcode != Opcode::kGet || Ambiguous(g2) ||
          g2.result.code != ResultCode::kOk || g2.session != g1.session ||
          !Precedes(g1, g2)) {
        continue;
      }
      // Only conclusive when each value maps to exactly one definite put.
      auto unique_source = [&](const HistoryOp& g) -> const HistoryOp* {
        const HistoryOp* found = nullptr;
        for (size_t pi : puts) {
          if (history.ops[pi].op.value == g.result.value) {
            if (found != nullptr) {
              return nullptr;
            }
            found = &history.ops[pi];
          }
        }
        if (found == nullptr || Ambiguous(*found) ||
            found->result.code != ResultCode::kOk) {
          return nullptr;
        }
        return found;
      };
      const HistoryOp* p1 = unique_source(g1);
      const HistoryOp* p2 = unique_source(g2);
      if (p1 != nullptr && p2 != nullptr && Precedes(*p2, *p1)) {
        AuditViolation v;
        v.auditor = "monotonic-reads";
        v.session = g2.session;
        v.key = key;
        v.hist_index = k.indices[bi];
        Appendf(v.detail,
                "later read observed an older put than read hist[%zu] "
                "(the observed put returned before the earlier one began)",
                k.indices[ai]);
        report.violations.push_back(std::move(v));
      }
    }
  }
}

}  // namespace

std::string AuditViolation::ToString() const {
  std::string out = auditor;
  std::string key_hex;
  AppendHex(key_hex, key);
  Appendf(out, " violation at hist[%zu] (session %" PRIu64 ", key %s): ",
          hist_index, session, key_hex.c_str());
  out += detail;
  return out;
}

std::string AuditReport::ToString() const {
  std::string out;
  Appendf(out,
          "session audit: %s (%zu counter keys, %zu register keys, "
          "%zu skipped, %zu violations)\n",
          ok() ? "ok" : "violation", counter_keys, register_keys,
          skipped_keys, violations.size());
  for (const AuditViolation& v : violations) {
    out += "  " + v.ToString() + "\n";
  }
  return out;
}

AuditReport AuditSessionGuarantees(const History& history) {
  AuditReport report;
  for (const auto& [key, k] : GroupByKey(history)) {
    if (!k.has_put && !k.has_delete) {
      report.counter_keys++;
      AuditCounterKey(history, key, k, report);
    } else if (!k.has_add && !k.has_delete && k.put_sessions.size() <= 1) {
      report.register_keys++;
      AuditRegisterKey(history, key, k, report);
    } else {
      report.skipped_keys++;
    }
  }
  return report;
}

AuditReport AuditExactlyOnceCounters(
    const History& history,
    const std::map<std::vector<uint8_t>, uint64_t>& base) {
  AuditReport report;
  for (const auto& [key, k] : GroupByKey(history)) {
    if (k.has_put || k.has_delete) {
      report.skipped_keys++;
      continue;
    }
    auto base_it = base.find(key);
    if (base_it == base.end()) {
      report.skipped_keys++;
      continue;
    }
    report.counter_keys++;
    // Final read: the definite read with the latest invoke.
    const HistoryOp* final_read = nullptr;
    size_t final_index = 0;
    for (size_t i : k.indices) {
      const HistoryOp& h = history.ops[i];
      if (h.op.opcode == Opcode::kGet && !Ambiguous(h) &&
          (final_read == nullptr || h.invoke >= final_read->invoke)) {
        final_read = &h;
        final_index = i;
      }
    }
    if (final_read == nullptr) {
      report.skipped_keys++;
      continue;
    }
    // Floor: adds definitely applied before the read began. Ceiling adds the
    // ambiguous and still-in-flight ones (they may land either side of it).
    uint64_t floor = base_it->second;
    uint64_t ceiling = base_it->second;
    size_t pending = 0;
    for (size_t i : k.indices) {
      const HistoryOp& h = history.ops[i];
      if (!IsAdd(h.op)) {
        continue;
      }
      if (!Ambiguous(h) && h.result.code == ResultCode::kOk) {
        ceiling += h.op.param;
        if (Precedes(h, *final_read)) {
          floor += h.op.param;
        } else {
          pending++;
        }
      } else if (Ambiguous(h)) {
        ceiling += h.op.param;
        pending++;
      }
    }
    const bool not_found = final_read->result.code == ResultCode::kNotFound;
    const uint64_t value = not_found ? 0 : ReadU64(final_read->result.value);
    if (!not_found && value >= floor && value <= ceiling) {
      continue;
    }
    AuditViolation v;
    v.auditor = "exactly-once";
    v.session = final_read->session;
    v.key = key;
    v.hist_index = final_index;
    if (not_found) {
      Appendf(v.detail,
              "final read observed NOT_FOUND but the key was loaded with "
              "base %" PRIu64,
              base_it->second);
    } else if (value < floor) {
      Appendf(v.detail,
              "lost acked write: final read observed %" PRIu64
              " but acked fetch-adds guarantee at least %" PRIu64
              " (base %" PRIu64 ", %zu ambiguous/in-flight adds excluded)",
              value, floor, base_it->second, pending);
    } else {
      Appendf(v.detail,
              "duplicated write: final read observed %" PRIu64
              " but even every ambiguous fetch-add applied once caps the "
              "value at %" PRIu64 " (base %" PRIu64 ")",
              value, ceiling, base_it->second);
    }
    report.violations.push_back(std::move(v));
  }
  return report;
}

}  // namespace kvd

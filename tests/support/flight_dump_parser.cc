#include "tests/support/flight_dump_parser.h"

#include <cstdlib>
#include <string>

namespace kvd {

// ParseFlightDump — a small validating recursive-descent parser. It fully
// tokenizes the document (so truncation anywhere is an error), extracts the
// fields ParsedFlightDump needs, skips unknown keys, and enforces a hard
// bound on the total span count before allocating.

namespace {

class DumpParser {
 public:
  DumpParser(std::string_view in, ParsedFlightDump* out, size_t max_spans)
      : in_(in), out_(out), max_spans_(max_spans) {}

  Status Run() {
    SkipWs();
    if (!Consume('{')) {
      return Error("expected top-level object");
    }
    bool saw_dump = false;
    if (!ParseObjectBody([&](const std::string& key) {
          if (key == "flight_dump") {
            saw_dump = true;
            return ParseDumpBody();
          }
          return SkipValue(0);
        })) {
      return Error(error_.empty() ? "malformed object" : error_);
    }
    SkipWs();
    if (pos_ != in_.size()) {
      return Error("trailing bytes after document");
    }
    if (!saw_dump) {
      return Error("missing flight_dump object");
    }
    return Status::Ok();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("flight dump: " + msg);
  }
  bool Fail(std::string msg) {
    if (error_.empty()) {
      error_ = std::move(msg);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < in_.size()) {
      const char c = in_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      pos_++;
    }
  }

  bool Consume(char expected) {
    SkipWs();
    if (pos_ >= in_.size() || in_[pos_] != expected) {
      return false;
    }
    pos_++;
    return true;
  }

  bool AtChar(char c) {
    SkipWs();
    return pos_ < in_.size() && in_[pos_] == c;
  }

  bool ParseString(std::string* s) {
    if (!Consume('"')) {
      return Fail("expected string");
    }
    s->clear();
    while (pos_ < in_.size()) {
      const char c = in_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= in_.size()) {
          break;
        }
        const char esc = in_[pos_++];
        switch (esc) {
          case '"': *s += '"'; break;
          case '\\': *s += '\\'; break;
          case '/': *s += '/'; break;
          case 'n': *s += '\n'; break;
          case 'r': *s += '\r'; break;
          case 't': *s += '\t'; break;
          case 'b': *s += '\b'; break;
          case 'f': *s += '\f'; break;
          case 'u': {
            if (pos_ + 4 > in_.size()) {
              return Fail("truncated \\u escape");
            }
            // Decoded only far enough to round-trip our own ASCII output.
            char buf[5] = {in_[pos_], in_[pos_ + 1], in_[pos_ + 2],
                           in_[pos_ + 3], '\0'};
            pos_ += 4;
            const unsigned long code = std::strtoul(buf, nullptr, 16);
            *s += static_cast<char>(code < 0x80 ? code : '?');
            break;
          }
          default:
            return Fail("bad escape");
        }
      } else {
        *s += c;
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumberToken(std::string* token) {
    SkipWs();
    const size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') {
      pos_++;
    }
    while (pos_ < in_.size()) {
      const char c = in_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        pos_++;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Fail("expected number");
    }
    *token = std::string(in_.substr(start, pos_ - start));
    return true;
  }

  bool ParseUint(uint64_t* v) {
    std::string token;
    if (!ParseNumberToken(&token)) {
      return false;
    }
    if (!token.empty() && token[0] == '-') {
      return Fail("expected non-negative integer");
    }
    *v = std::strtoull(token.c_str(), nullptr, 10);
    return true;
  }

  // `body(key)` parses the value for `key` (or skips it); called once per key.
  template <typename Fn>
  bool ParseObjectBody(Fn body) {
    if (Consume('}')) {
      return true;
    }
    while (true) {
      std::string key;
      if (!ParseString(&key)) {
        return Fail("expected object key");
      }
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      if (!body(key)) {
        return false;
      }
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  template <typename Fn>
  bool ParseArrayBody(Fn element) {
    if (Consume(']')) {
      return true;
    }
    while (true) {
      if (!element()) {
        return false;
      }
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool SkipLiteral(std::string_view word) {
    if (in_.substr(pos_).substr(0, word.size()) != word) {
      return Fail("bad literal");
    }
    pos_ += word.size();
    return true;
  }

  bool SkipValue(int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    SkipWs();
    if (pos_ >= in_.size()) {
      return Fail("truncated value");
    }
    const char c = in_[pos_];
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (c == '{') {
      pos_++;
      return ParseObjectBody([&](const std::string&) {
        return SkipValue(depth + 1);
      });
    }
    if (c == '[') {
      pos_++;
      return ParseArrayBody([&] { return SkipValue(depth + 1); });
    }
    if (c == 't') {
      return SkipLiteral("true");
    }
    if (c == 'f') {
      return SkipLiteral("false");
    }
    if (c == 'n') {
      return SkipLiteral("null");
    }
    std::string ignored;
    return ParseNumberToken(&ignored);
  }

  bool ParseOpcodeName(const std::string& name, Opcode* opcode) {
    for (size_t i = 0; i < LatencyBreakdown::kNumOpcodes; i++) {
      if (name == OpcodeName(static_cast<Opcode>(i))) {
        *opcode = static_cast<Opcode>(i);
        return true;
      }
    }
    return Fail("unknown opcode '" + name + "'");
  }

  bool ParseResultName(const std::string& name, ResultCode* code) {
    for (uint8_t i = 0; i <= kMaxResultCodeByte; i++) {
      if (name == ResultCodeName(static_cast<ResultCode>(i))) {
        *code = static_cast<ResultCode>(i);
        return true;
      }
    }
    return Fail("unknown result code '" + name + "'");
  }

  bool ParsePoints(OpTrace* trace) {
    if (!Consume('{')) {
      return Fail("expected points object");
    }
    return ParseObjectBody([&](const std::string& key) {
      for (size_t i = 0; i < kNumTracePoints; i++) {
        if (key == TracePointName(static_cast<TracePoint>(i))) {
          return ParseUint(&trace->points[i]);
        }
      }
      return Fail("unknown trace point '" + key + "'");
    });
  }

  bool ParseSpan(OpTrace* trace) {
    if (!Consume('{')) {
      return Fail("expected span object");
    }
    if (++spans_seen_ > max_spans_) {
      return Fail("span count exceeds bound");
    }
    TraceSpan span;
    if (!ParseObjectBody([&](const std::string& key) {
          if (key == "kind") {
            std::string name;
            if (!ParseString(&name)) {
              return false;
            }
            for (size_t i = 0; i < kNumSpanKinds; i++) {
              if (name == SpanKindName(static_cast<SpanKind>(i))) {
                span.kind = static_cast<SpanKind>(i);
                return true;
              }
            }
            return Fail("unknown span kind '" + name + "'");
          }
          if (key == "start_ps") {
            return ParseUint(&span.start);
          }
          if (key == "end_ps") {
            return ParseUint(&span.end);
          }
          if (key == "detail") {
            return ParseUint(&span.detail);
          }
          return SkipValue(0);
        })) {
      return false;
    }
    trace->spans.push_back(span);
    return true;
  }

  bool ParseTrace(OpTrace* trace) {
    if (!Consume('{')) {
      return Fail("expected trace object");
    }
    return ParseObjectBody([&](const std::string& key) {
      if (key == "id") {
        return ParseUint(&trace->id);
      }
      if (key == "opcode") {
        std::string name;
        return ParseString(&name) && ParseOpcodeName(name, &trace->opcode);
      }
      if (key == "sequence") {
        return ParseUint(&trace->sequence);
      }
      if (key == "op_index") {
        uint64_t v = 0;
        if (!ParseUint(&v)) {
          return false;
        }
        trace->op_index = static_cast<uint32_t>(v);
        return true;
      }
      if (key == "attempts") {
        uint64_t v = 0;
        if (!ParseUint(&v)) {
          return false;
        }
        trace->attempts = static_cast<uint32_t>(v);
        return true;
      }
      if (key == "result") {
        std::string name;
        return ParseString(&name) && ParseResultName(name, &trace->result);
      }
      if (key == "points") {
        return ParsePoints(trace);
      }
      if (key == "spans") {
        if (!Consume('[')) {
          return Fail("expected spans array");
        }
        return ParseArrayBody([&] { return ParseSpan(trace); });
      }
      return SkipValue(0);
    });
  }

  bool ParseTraceList(std::vector<OpTrace>* list) {
    if (!Consume('[')) {
      return Fail("expected trace array");
    }
    return ParseArrayBody([&] {
      OpTrace trace;
      if (!ParseTrace(&trace)) {
        return false;
      }
      list->push_back(std::move(trace));
      return true;
    });
  }

  bool ParseDumpBody() {
    if (!Consume('{')) {
      return Fail("expected flight_dump object");
    }
    return ParseObjectBody([&](const std::string& key) {
      if (key == "trigger") {
        return ParseString(&out_->trigger);
      }
      if (key == "detail") {
        return ParseString(&out_->detail);
      }
      if (key == "sim_time_ps") {
        return ParseUint(&out_->sim_time);
      }
      if (key == "traces") {
        return ParseTraceList(&out_->traces);
      }
      if (key == "live_traces") {
        return ParseTraceList(&out_->live_traces);
      }
      return SkipValue(0);
    });
  }

  std::string_view in_;
  size_t pos_ = 0;
  ParsedFlightDump* out_;
  size_t max_spans_;
  uint64_t spans_seen_ = 0;
  std::string error_;

 public:
  uint64_t spans_seen() const { return spans_seen_; }
};

}  // namespace

Status ParseFlightDump(std::string_view json, ParsedFlightDump* out,
                       size_t max_spans) {
  *out = ParsedFlightDump();
  DumpParser parser(json, out, max_spans);
  Status status = parser.Run();
  if (!status.ok()) {
    *out = ParsedFlightDump();
    return status;
  }
  out->total_spans = parser.spans_seen();
  return Status::Ok();
}

}  // namespace kvd

// Validated loader for flight-recorder dump JSON, the tests' reference reader
// for FlightRecorder dumps. It is the negative-test surface too: a truncated
// file or a hostile span count must produce an error Status, not a crash or
// an unbounded allocation.
#ifndef TESTS_SUPPORT_FLIGHT_DUMP_PARSER_H_
#define TESTS_SUPPORT_FLIGHT_DUMP_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/tracer.h"

namespace kvd {

struct ParsedFlightDump {
  std::string trigger;
  std::string detail;
  SimTime sim_time = 0;
  std::vector<OpTrace> traces;       // completed ring, oldest first
  std::vector<OpTrace> live_traces;  // in flight at trigger time
  uint64_t total_spans = 0;
};

Status ParseFlightDump(std::string_view json, ParsedFlightDump* out,
                       size_t max_spans = 1u << 16);

}  // namespace kvd

#endif  // TESTS_SUPPORT_FLIGHT_DUMP_PARSER_H_

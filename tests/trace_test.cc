// Per-operation request tracing and the flight recorder (DESIGN.md §10).
//
// Covers trace-context propagation through the full stack (client send ->
// wire -> decode -> pipeline -> memory -> response, plus the replication
// stages for writes), latency attribution (stage sums tile the end-to-end
// interval), flight-recorder triggers (ECC demotion, primary crash, kBusy
// bursts, SLO breaches) firing exactly once per cause, same-seed bit-identical
// dumps, fuzz-style negative parsing of dump JSON, exact histogram merging,
// trace-handle and packet-table bounds shared across clients, and the event
// ring's overwrite surfacing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/core/kv_direct.h"
#include "src/core/multi_nic.h"
#include "src/fault/fault_injector.h"
#include "src/obs/tracer.h"
#include "src/replica/replicated_client.h"
#include "src/replica/replication_group.h"
#include "tests/support/flight_dump_parser.h"

namespace kvd {
namespace {

std::vector<uint8_t> Key(uint64_t id) {
  std::vector<uint8_t> key(8);
  std::memcpy(key.data(), &id, 8);
  return key;
}

std::vector<uint8_t> U64Value(uint64_t v) {
  std::vector<uint8_t> value(8);
  std::memcpy(value.data(), &v, 8);
  return value;
}

ServerConfig TracedServerConfig() {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  config.enable_request_tracing = true;
  return config;
}

// All traces from a dump, completed ring first, then the in-flight ones.
std::vector<OpTrace> AllTraces(const ParsedFlightDump& dump) {
  std::vector<OpTrace> all = dump.traces;
  all.insert(all.end(), dump.live_traces.begin(), dump.live_traces.end());
  return all;
}

// Sum of the trace's stage durations (consecutive present points), in ps.
SimTime StageSumPs(const OpTrace& trace) {
  SimTime sum = 0;
  SimTime prev = OpTrace::kAbsent;
  for (size_t i = 0; i < kNumTracePoints; i++) {
    const SimTime at = trace.points[i];
    if (at == OpTrace::kAbsent) {
      continue;
    }
    if (prev != OpTrace::kAbsent) {
      sum += at - prev;
    }
    prev = at;
  }
  return sum;
}

// --- LatencyHistogram::Merge (exact aggregation) ---

TEST(LatencyHistogramMergeTest, MergeMatchesPooledSamplesExactly) {
  // Two shards with very different distributions; merging their histograms
  // must give the same quantiles as one histogram fed every sample, because
  // Merge sums per-bucket counts (no re-bucketing, no approximation beyond
  // the shared bucket layout).
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram pooled;
  Rng rng(42);
  for (int i = 0; i < 5000; i++) {
    const uint64_t low = 100 + rng.NextBelow(900);  // 100..999 ns
    a.Add(low);
    pooled.Add(low);
    const uint64_t high = 10000 + rng.NextBelow(90000);  // 10..100 us
    b.Add(high);
    pooled.Add(high);
  }
  LatencyHistogram merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.count(), pooled.count());
  EXPECT_EQ(merged.min(), pooled.min());
  EXPECT_EQ(merged.max(), pooled.max());
  EXPECT_DOUBLE_EQ(merged.mean(), pooled.mean());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    EXPECT_EQ(merged.Percentile(q), pooled.Percentile(q)) << "quantile " << q;
  }
}

TEST(LatencyHistogramMergeTest, ClusterReportingUsesMerge) {
  // MultiNicServer::MergedLatency pools the per-NIC distributions.
  ServerConfig config;
  config.kvs_memory_bytes = 4 * kMiB;
  config.nic_dram.capacity_bytes = 512 * kKiB;
  MultiNicServer cluster(2, config);
  for (uint64_t k = 0; k < 64; k++) {
    ASSERT_TRUE(cluster.Load(Key(k), U64Value(k)).ok());
  }
  MultiNicClient client(cluster);
  for (uint64_t k = 0; k < 64; k++) {
    ASSERT_TRUE(client.Get(Key(k)).ok());
  }
  uint64_t per_nic = 0;
  for (uint32_t i = 0; i < cluster.num_nics(); i++) {
    per_nic += cluster.nic(i).processor().stats().latency_ns.count();
  }
  EXPECT_GT(per_nic, 0u);
  EXPECT_EQ(cluster.MergedLatency().count(), per_nic);
}

// --- tracing defaults and single-server propagation ---

TEST(RequestTraceTest, TracingIsOffByDefault) {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  KvDirectServer server(config);
  Client client(server);
  ASSERT_TRUE(client.Put(Key(1), U64Value(7)).ok());
  ASSERT_TRUE(client.Get(Key(1)).ok());
  EXPECT_FALSE(server.tracer().enabled());
  EXPECT_EQ(server.tracer().started(), 0u);
  EXPECT_EQ(server.breakdown().recorded(), 0u);
  // The trace metric families stay out of the default exposition.
  EXPECT_EQ(server.metrics().PrometheusText().find("kvd_trace_"),
            std::string::npos);
}

// Clients get disjoint 2^40-sequence spaces (KvDirectServer hands out
// `id << 40`), and one tracer serves them all: every Start must mint a
// distinct, nonzero handle whatever sequence the op rides on.
TEST(TracerHandleTest, HandlesAreUniqueAcrossClientSequenceSpaces) {
  Simulator sim;
  Tracer tracer(sim, /*enabled=*/true);
  const uint64_t client1 = tracer.Start(Opcode::kGet, 1ull << 40, 0);
  const uint64_t client257 = tracer.Start(Opcode::kGet, 257ull << 40, 0);
  const uint64_t client256 = tracer.Start(Opcode::kGet, 256ull << 40, 0);
  // Cluster clients mark their sequences with bit 63.
  const uint64_t cluster = tracer.Start(Opcode::kGet, (1ull << 63) | 1, 0);
  const uint64_t plain = tracer.Start(Opcode::kGet, 1, 0);
  const std::vector<uint64_t> handles = {client1, client257, client256, cluster,
                                         plain};
  for (size_t i = 0; i < handles.size(); i++) {
    EXPECT_NE(handles[i], 0u) << i;
    for (size_t j = i + 1; j < handles.size(); j++) {
      EXPECT_NE(handles[i], handles[j]) << i << " vs " << j;
    }
  }
  EXPECT_EQ(tracer.LiveTraces().size(), handles.size());
  EXPECT_EQ(tracer.started(), handles.size());
  // Each trace keeps the wire identity it started on.
  ASSERT_NE(tracer.Live(client257), nullptr);
  EXPECT_EQ(tracer.Live(client257)->sequence, 257ull << 40);
}

// A full packet table evicts the registration that arrived first, not the
// smallest sequence: with two clients the smallest sequence belongs to the
// lower client id, whose newest packet must still resolve server-side.
TEST(TracerHandleTest, PacketTableEvictsInRegistrationOrderAcrossClients) {
  Simulator sim;
  Tracer tracer(sim, /*enabled=*/true);
  const uint64_t client1 = 1ull << 40;
  const uint64_t client2 = 2ull << 40;
  for (uint64_t i = 0; i < Tracer::kMaxPackets; i++) {
    tracer.RegisterPacket(client2 + i, {i + 1});
  }
  tracer.RegisterPacket(client1, {777});
  tracer.RegisterPacket(client2 + Tracer::kMaxPackets, {888});
  EXPECT_EQ(tracer.LookupOp(client1, 0), 777u);
  EXPECT_EQ(tracer.LookupOp(client2 + Tracer::kMaxPackets, 0), 888u);
  // The two oldest registrations made room.
  EXPECT_EQ(tracer.LookupOp(client2, 0), 0u);
  EXPECT_EQ(tracer.LookupOp(client2 + 1, 0), 0u);
  EXPECT_EQ(tracer.LookupOp(client2 + 2, 0), 3u);
}

TEST(RequestTraceTest, SpansNestInsideStagesInsideEndToEnd) {
  ServerConfig config = TracedServerConfig();
  KvDirectServer server(config);
  for (uint64_t k = 0; k < 32; k++) {
    ASSERT_TRUE(server.Load(Key(k), U64Value(k)).ok());
  }
  Client client(server);
  for (uint64_t k = 0; k < 32; k++) {
    KvOperation op;
    op.opcode = (k % 2 == 0) ? Opcode::kGet : Opcode::kPut;
    op.key = Key(k);
    if (op.opcode == Opcode::kPut) {
      op.value = U64Value(k * 2);
    }
    client.Enqueue(std::move(op));
  }
  auto results = client.Flush();
  ASSERT_EQ(results.size(), 32u);
  for (const auto& r : results) {
    EXPECT_EQ(r.code, ResultCode::kOk);
  }
  EXPECT_EQ(server.tracer().finished(), 32u);
  EXPECT_EQ(server.breakdown().recorded(), 32u);

  ASSERT_TRUE(server.flight_recorder().Trigger(FlightTrigger::kManual, "test"));
  ParsedFlightDump dump;
  ASSERT_TRUE(
      ParseFlightDump(server.flight_recorder().dumps()[0].json, &dump).ok());
  ASSERT_FALSE(dump.traces.empty());
  for (const OpTrace& trace : dump.traces) {
    ASSERT_TRUE(trace.Has(TracePoint::kClientSend));
    ASSERT_TRUE(trace.Has(TracePoint::kClientReceive));
    // Points are monotone along the checkpoint sequence.
    SimTime prev = 0;
    for (size_t i = 0; i < kNumTracePoints; i++) {
      if (trace.points[i] == OpTrace::kAbsent) {
        continue;
      }
      EXPECT_GE(trace.points[i], prev);
      prev = trace.points[i];
    }
    // The stages tile the end-to-end interval exactly.
    EXPECT_EQ(StageSumPs(trace), trace.EndToEndPs());
    // Every span nests inside the end-to-end interval; memory spans nest
    // inside the execute window.
    ASSERT_FALSE(trace.spans.empty());
    bool mem = false;
    for (const TraceSpan& span : trace.spans) {
      EXPECT_LE(span.start, span.end);
      EXPECT_GE(span.start, trace.At(TracePoint::kClientSend));
      EXPECT_LE(span.end, trace.At(TracePoint::kClientReceive));
      if (span.kind == SpanKind::kMemAccess) {
        mem = true;
        EXPECT_GE(span.start, trace.At(TracePoint::kSubmit));
        EXPECT_LE(span.end, trace.At(TracePoint::kRetire));
      }
    }
    EXPECT_TRUE(mem);  // every GET/PUT touches memory
  }

  // The aggregated view agrees: per opcode, total stage time == total e2e
  // time up to the per-stage nanosecond rounding.
  const LatencyBreakdown& breakdown = server.breakdown();
  for (const Opcode opcode : {Opcode::kGet, Opcode::kPut}) {
    const LatencyHistogram& e2e = breakdown.EndToEnd(opcode);
    ASSERT_GT(e2e.count(), 0u);
    double stage_total = 0;
    for (size_t point = 1; point < kNumTracePoints; point++) {
      const LatencyHistogram& stage =
          breakdown.Stage(opcode, static_cast<TracePoint>(point));
      stage_total += stage.mean() * static_cast<double>(stage.count());
    }
    const double e2e_total = e2e.mean() * static_cast<double>(e2e.count());
    EXPECT_NEAR(stage_total, e2e_total, 0.01 * e2e_total);
  }
}

TEST(RequestTraceTest, RetransmittedOpKeepsOneTraceAcrossAttempts) {
  ServerConfig config = TracedServerConfig();
  // Drop the first two request frames on the wire: the op completes on a
  // timeout-driven retransmission, under the same trace.
  config.faults.schedule.push_back({FaultSite::kNetDropToServer, 1});
  config.faults.schedule.push_back({FaultSite::kNetDropToServer, 2});
  KvDirectServer server(config);
  ASSERT_TRUE(server.Load(Key(1), U64Value(5)).ok());
  Client::Options options;
  options.timeout = 100 * kMicrosecond;
  Client client(server, options);
  ASSERT_TRUE(client.Get(Key(1)).ok());
  ASSERT_TRUE(client.Put(Key(1), U64Value(6)).ok());
  EXPECT_GT(client.stats().retransmits, 0u);

  ASSERT_TRUE(server.flight_recorder().Trigger(FlightTrigger::kManual, "test"));
  ParsedFlightDump dump;
  ASSERT_TRUE(
      ParseFlightDump(server.flight_recorder().dumps()[0].json, &dump).ok());
  bool retransmitted = false;
  for (const OpTrace& trace : dump.traces) {
    if (trace.attempts < 2) {
      continue;
    }
    retransmitted = true;
    // One trace spans all attempts: the e2e interval covers the backoff, and
    // the retransmissions are annotated as spans.
    EXPECT_EQ(StageSumPs(trace), trace.EndToEndPs());
    const bool has_marker = std::any_of(
        trace.spans.begin(), trace.spans.end(), [](const TraceSpan& span) {
          return span.kind == SpanKind::kRetransmit;
        });
    EXPECT_TRUE(has_marker);
  }
  EXPECT_TRUE(retransmitted);
}

// --- replicated writes ---

ReplicationConfig TracedGroupConfig() {
  ReplicationConfig config;
  config.num_replicas = 3;
  config.server.kvs_memory_bytes = 8 * kMiB;
  config.server.nic_dram.capacity_bytes = 1 * kMiB;
  config.enable_request_tracing = true;
  return config;
}

TEST(ReplicatedTraceTest, WriteTracesCarryReplicationStages) {
  ReplicationConfig config = TracedGroupConfig();
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  for (uint64_t k = 0; k < 16; k++) {
    KvOperation op;
    op.opcode = Opcode::kPut;
    op.key = Key(k);
    op.value = U64Value(k);
    client.Enqueue(std::move(op));
  }
  for (const auto& r : client.Flush()) {
    ASSERT_EQ(r.code, ResultCode::kOk);
  }
  // The commit-wait histogram records append -> quorum-ack per write packet.
  EXPECT_GT(group.commit_wait_ns().count(), 0u);

  ASSERT_TRUE(group.flight_recorder().Trigger(FlightTrigger::kManual, "test"));
  ParsedFlightDump dump;
  ASSERT_TRUE(
      ParseFlightDump(group.flight_recorder().dumps()[0].json, &dump).ok());
  bool replicated_write = false;
  for (const OpTrace& trace : dump.traces) {
    if (trace.opcode != Opcode::kPut) {
      continue;
    }
    replicated_write = true;
    // The write passed through append and quorum commit, in order, and the
    // stages still tile the end-to-end interval.
    ASSERT_TRUE(trace.Has(TracePoint::kReplAppend));
    ASSERT_TRUE(trace.Has(TracePoint::kReplCommit));
    EXPECT_GE(trace.At(TracePoint::kReplAppend),
              trace.At(TracePoint::kRetire));
    EXPECT_GE(trace.At(TracePoint::kReplCommit),
              trace.At(TracePoint::kReplAppend));
    EXPECT_EQ(StageSumPs(trace), trace.EndToEndPs());
    const bool shipped = std::any_of(
        trace.spans.begin(), trace.spans.end(), [](const TraceSpan& span) {
          return span.kind == SpanKind::kReplShip;
        });
    EXPECT_TRUE(shipped);  // the entry rode an append window to the backups
  }
  EXPECT_TRUE(replicated_write);
  // The replication-stage histograms aggregate the same structure.
  EXPECT_GT(group.breakdown()
                .Stage(Opcode::kPut, TracePoint::kReplCommit)
                .count(),
            0u);
  // Satellite health metrics exist in the group registry.
  EXPECT_TRUE(group.metrics().GaugeValue("kvd_repl_match_lag",
                                         {{"replica", "1"}})
                  .has_value());
  EXPECT_TRUE(
      group.metrics().HistogramValue("kvd_repl_commit_wait_ns").has_value());
}

// A replica's reads take its node's packet path, so a read served by any
// replica, a backup included, stamps kResponseSent and its stages still tile
// the end-to-end interval.
TEST(ReplicatedTraceTest, ReplicaReadsStampTheResponse) {
  ReplicationConfig config = TracedGroupConfig();
  ReplicationGroup group(config);
  constexpr uint64_t kReads = 12;  // four rounds over the three replicas
  for (uint64_t k = 0; k < kReads; k++) {
    ASSERT_TRUE(group.Load(Key(k), U64Value(k)).ok());
  }
  ReplicatedClient client(group);
  for (uint64_t k = 0; k < kReads; k++) {
    // One packet per read: read packets rotate round-robin over the replicas.
    ASSERT_TRUE(client.Get(Key(k)).ok());
  }
  for (uint32_t id = 0; id < group.num_replicas(); id++) {
    EXPECT_EQ(group.metrics().GaugeValue("kvd_repl_packet_records_peak",
                                         {{"replica", std::to_string(id)}}),
              1.0)
        << "replica " << id;
    EXPECT_EQ(group.replica(id).packets_live(), 0u) << "replica " << id;
  }

  ASSERT_TRUE(group.flight_recorder().Trigger(FlightTrigger::kManual, "test"));
  ParsedFlightDump dump;
  ASSERT_TRUE(
      ParseFlightDump(group.flight_recorder().dumps().back().json, &dump).ok());
  uint64_t reads = 0;
  for (const OpTrace& trace : AllTraces(dump)) {
    if (trace.opcode != Opcode::kGet) {
      continue;
    }
    reads++;
    EXPECT_TRUE(trace.Has(TracePoint::kResponseSent));
    EXPECT_EQ(StageSumPs(trace), trace.EndToEndPs());
  }
  EXPECT_EQ(reads, kReads);
  EXPECT_EQ(group.breakdown().Stage(Opcode::kGet, TracePoint::kResponseSent).count(),
            kReads);
}

// One knob traces the whole group: every replica's hardware events land in
// the group's single timeline, next to the group's protocol events.
TEST(ReplicatedTraceTest, GroupTimelineHoldsReplicaHardwareAndProtocolEvents) {
  ReplicationConfig config = TracedGroupConfig();
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  for (uint64_t k = 0; k < 32; k++) {
    ASSERT_TRUE(client.Put(Key(k), U64Value(k)).ok());
  }
  group.CrashReplica(0);
  Simulator& sim = group.simulator();
  sim.RunUntil(sim.Now() + 5 * kMillisecond);
  for (uint64_t k = 0; k < 32; k++) {
    ASSERT_TRUE(client.Get(Key(k)).ok());
  }
  EXPECT_GE(group.stats().failovers, 1u);

  const std::string trace = group.tracer().ToChromeTraceJson();
  for (const char* category :
       {"pcie", "dispatch", "nic_dram", "station", "proc", "net", "replica"}) {
    EXPECT_NE(trace.find("{\"name\":\"" + std::string(category) + "\"}"),
              std::string::npos)
        << category;
  }
  for (const char* event : {"crash", "election", "promote"}) {
    EXPECT_NE(trace.find("\"name\":\"" + std::string(event) +
                         "\",\"cat\":\"replica\""),
              std::string::npos)
        << event;
  }
  // No replica keeps a timeline of its own.
  for (uint32_t id = 0; id < group.num_replicas(); id++) {
    EXPECT_EQ(&group.replica(id).tracer(), &group.tracer());
  }
}

// --- flight-recorder triggers ---

TEST(FlightRecorderTest, EccDemotionTriggersExactlyOneDump) {
  ServerConfig config = TracedServerConfig();
  config.dispatch_policy = DispatchPolicy::kCacheAll;
  // Script exactly one uncorrectable ECC flip. Every access is traced (no
  // untimed preload), so the demoted access belongs to a live traced op.
  config.faults.schedule.push_back({FaultSite::kDramUncorrectableFlip, 1});
  KvDirectServer server(config);
  Client client(server);
  // More keys than reservation-station slots, so reads outlive the station's
  // data-forwarding cache and must consult NIC DRAM (where ECC is checked).
  constexpr uint64_t kKeys = 2048;
  constexpr uint64_t kBatch = 64;
  for (uint64_t base = 0; base < kKeys; base += kBatch) {
    for (uint64_t k = base; k < base + kBatch; k++) {
      KvOperation op;
      op.opcode = Opcode::kPut;
      op.key = Key(k);
      op.value = U64Value(k);
      client.Enqueue(std::move(op));
    }
    for (const auto& r : client.Flush()) {
      ASSERT_EQ(r.code, ResultCode::kOk);
    }
  }
  for (uint64_t base = 0; base < kKeys; base += kBatch) {
    for (uint64_t k = base; k < base + kBatch; k++) {
      KvOperation op;
      op.opcode = Opcode::kGet;
      op.key = Key(k);
      client.Enqueue(std::move(op));
    }
    for (const auto& r : client.Flush()) {
      ASSERT_EQ(r.code, ResultCode::kOk);
    }
  }
  EXPECT_GT(server.nic_dram().ecc_uncorrectable_injected(), 0u);

  const FlightRecorder& flight = server.flight_recorder();
  ASSERT_EQ(flight.dumps().size(), 1u);
  EXPECT_EQ(flight.dumps()[0].trigger, FlightTrigger::kEccDemotion);
  ParsedFlightDump dump;
  ASSERT_TRUE(ParseFlightDump(flight.dumps()[0].json, &dump).ok());
  EXPECT_EQ(dump.trigger, "ecc_demotion");
  // The dump contains the affected op's span tree: a memory access routed
  // through the ECC-demotion recovery path.
  bool demoted_span = false;
  for (const OpTrace& trace : AllTraces(dump)) {
    for (const TraceSpan& span : trace.spans) {
      if (span.kind == SpanKind::kMemAccess &&
          span.detail == kRouteEccDemotion) {
        demoted_span = true;
      }
    }
  }
  EXPECT_TRUE(demoted_span);
}

// Once the event ring is full, a dump's trailing window must still show the
// newest events, not the ones recorded when the ring filled up.
TEST(FlightRecorderTest, EventWindowFollowsTheRingAfterItFills) {
  Simulator sim;
  FlightRecorderConfig config;
  config.event_window = 2;
  Tracer tracer(sim, /*enabled=*/true, SloConfig{}, config, /*registry=*/nullptr,
                /*max_events=*/4);
  FlightRecorder& flight = tracer.flight_recorder();
  constexpr const char* kNames[] = {"e0", "e1", "e2", "e3", "e4",
                                    "e5", "e6", "e7", "e8", "e9"};
  for (const char* name : kNames) {
    tracer.Instant("test", name);
  }
  ASSERT_TRUE(flight.Trigger(FlightTrigger::kManual, "window"));
  const std::string& json = flight.dumps()[0].json;
  const size_t e8 = json.find("\"name\":\"e8\"");
  const size_t e9 = json.find("\"name\":\"e9\"");
  ASSERT_NE(e8, std::string::npos);
  ASSERT_NE(e9, std::string::npos);
  EXPECT_LT(e8, e9);
  EXPECT_EQ(json.find("\"name\":\"e7\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"e3\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":6"), std::string::npos);
}

// Scripted failover scenario shared by the trigger and determinism tests.
struct FailoverRun {
  std::vector<FlightRecorder::Dump> dumps;
  std::string breakdown_json;
  uint64_t failovers = 0;
};

FailoverRun RunScriptedFailover(uint64_t seed) {
  ReplicationConfig config = TracedGroupConfig();
  config.faults.seed = seed;
  // The first kReplicaCrash consult is replica 0 — the initial primary — at
  // the first heartbeat tick, mid-workload.
  config.faults.schedule.push_back({FaultSite::kReplicaCrash, 1});
  ReplicationGroup group(config);
  ReplicatedClient client(group);
  Simulator& sim = group.simulator();
  Rng mix(seed ^ 0xfa110f);
  uint64_t next_key = 0;
  for (int batch = 0; batch < 12; batch++) {
    for (int i = 0; i < 8; i++) {
      KvOperation op;
      op.opcode = Opcode::kPut;
      op.key = Key(next_key++);
      op.value = U64Value(mix.Next());
      client.Enqueue(std::move(op));
    }
    client.Flush();
    sim.RunUntil(sim.Now() + 100 * kMicrosecond);
  }
  FailoverRun run;
  run.dumps = group.flight_recorder().dumps();
  // The failover dump carries the timeline that led to it: the primary's
  // crash, then the election it caused, both from the group's protocol.
  for (const FlightRecorder::Dump& dump : run.dumps) {
    if (dump.trigger != FlightTrigger::kFailover) {
      continue;
    }
    const size_t crash = dump.json.find(
        "{\"name\":\"crash\",\"cat\":\"replica\",\"ph\":\"i\"");
    const size_t election = dump.json.find(
        "{\"name\":\"election\",\"cat\":\"replica\",\"ph\":\"i\"");
    EXPECT_NE(crash, std::string::npos);
    EXPECT_NE(election, std::string::npos);
    EXPECT_LT(crash, election);
    if (crash != std::string::npos) {
      const size_t end = dump.json.find('}', crash);
      EXPECT_NE(dump.json.substr(crash, end - crash).find("\"args\":{\"replica\":0,"),
                std::string::npos);
    }
  }
  run.breakdown_json = LatencyBreakdownReport::ToJson(group.breakdown());
  run.failovers = group.stats().failovers;
  return run;
}

TEST(FlightRecorderTest, PrimaryCrashTriggersExactlyOneFailoverDump) {
  const FailoverRun run = RunScriptedFailover(7);
  ASSERT_GE(run.failovers, 1u);
  size_t failover_dumps = 0;
  for (const FlightRecorder::Dump& dump : run.dumps) {
    if (dump.trigger == FlightTrigger::kFailover) {
      failover_dumps++;
      ParsedFlightDump parsed;
      ASSERT_TRUE(ParseFlightDump(dump.json, &parsed).ok());
      EXPECT_EQ(parsed.trigger, "failover");
      // The ring preserves the pre-crash completed traces for postmortem.
      EXPECT_FALSE(parsed.traces.empty());
    }
  }
  // once_per_trigger: even with multiple election rounds, one dump.
  EXPECT_EQ(failover_dumps, 1u);
}

TEST(FlightRecorderTest, ScriptedFailoverDumpsAreBitIdentical) {
  const FailoverRun first = RunScriptedFailover(7);
  const FailoverRun second = RunScriptedFailover(7);
  ASSERT_EQ(first.dumps.size(), second.dumps.size());
  ASSERT_FALSE(first.dumps.empty());
  for (size_t i = 0; i < first.dumps.size(); i++) {
    EXPECT_EQ(first.dumps[i].trigger, second.dumps[i].trigger);
    EXPECT_EQ(first.dumps[i].sim_time, second.dumps[i].sim_time);
    EXPECT_EQ(first.dumps[i].json, second.dumps[i].json);
  }
  EXPECT_EQ(first.breakdown_json, second.breakdown_json);
}

// Chaos soak with tracing on: simultaneous network, PCIe, and DRAM faults.
struct ChaosRun {
  std::vector<FlightRecorder::Dump> dumps;
  std::string breakdown_json;
};

ChaosRun RunTracedChaos(uint64_t seed) {
  ServerConfig config = TracedServerConfig();
  config.faults.seed = seed;
  config.faults.at(FaultSite::kNetDropToServer) = 0.02;
  config.faults.at(FaultSite::kNetDropToClient) = 0.02;
  config.faults.at(FaultSite::kNetCorruptToServer) = 0.01;
  config.faults.at(FaultSite::kPcieReadCompletion) = 0.01;
  config.faults.at(FaultSite::kDramCorrectableFlip) = 0.02;
  // Opt in: the first injection takes the (single) fault dump.
  config.flight.trigger_on_fault_injection = true;
  KvDirectServer server(config);
  for (uint64_t k = 0; k < 32; k++) {
    EXPECT_TRUE(server.Load(Key(k), U64Value(0)).ok());
  }
  Client::Options options;
  options.timeout = 100 * kMicrosecond;
  Client client(server, options);
  Rng mix(seed ^ 0x9c5b);
  for (int batch = 0; batch < 10; batch++) {
    for (int i = 0; i < 64; i++) {
      const uint64_t k = mix.NextBelow(32);
      KvOperation op;
      op.key = Key(k);
      if (mix.NextDouble() < 0.5) {
        op.opcode = Opcode::kGet;
      } else {
        op.opcode = Opcode::kUpdateScalar;
        op.param = 1;
      }
      client.Enqueue(std::move(op));
    }
    for (const auto& r : client.Flush()) {
      EXPECT_EQ(r.code, ResultCode::kOk);
    }
  }
  ChaosRun run;
  run.dumps = server.flight_recorder().dumps();
  run.breakdown_json = LatencyBreakdownReport::ToJson(server.breakdown());
  return run;
}

TEST(FlightRecorderTest, ChaosSoakDumpsAreBitIdentical) {
  const ChaosRun first = RunTracedChaos(2026);
  const ChaosRun second = RunTracedChaos(2026);
  ASSERT_FALSE(first.dumps.empty());  // at least the fault-injection dump
  ASSERT_EQ(first.dumps.size(), second.dumps.size());
  for (size_t i = 0; i < first.dumps.size(); i++) {
    EXPECT_EQ(first.dumps[i].json, second.dumps[i].json);
  }
  EXPECT_EQ(first.breakdown_json, second.breakdown_json);
  ParsedFlightDump parsed;
  ASSERT_TRUE(ParseFlightDump(first.dumps[0].json, &parsed).ok());
}

TEST(FlightRecorderTest, BusyBurstTriggersOneDumpPerWindow) {
  ServerConfig config = TracedServerConfig();
  config.processor.admission.max_backlog = 2;
  config.processor.busy_burst_threshold = 8;
  // A tiny in-flight budget makes the station reject quickly, so the
  // admission backlog fills and submissions bounce with kBusy.
  config.processor.ooo.max_inflight = 4;
  KvDirectServer server(config);
  uint64_t busy = 0;
  for (int i = 0; i < 64; i++) {
    KvOperation op;
    op.opcode = Opcode::kGet;
    op.key = Key(1);
    server.Submit(std::move(op), [&busy](KvResultMessage result) {
      if (result.code == ResultCode::kBusy) {
        busy++;
      }
    });
  }
  server.simulator().RunUntilIdle();
  EXPECT_GE(busy, 8u);
  size_t burst_dumps = 0;
  for (const FlightRecorder::Dump& dump : server.flight_recorder().dumps()) {
    if (dump.trigger == FlightTrigger::kBusyBurst) {
      burst_dumps++;
    }
  }
  EXPECT_EQ(burst_dumps, 1u);
}

TEST(FlightRecorderTest, SloBreachTriggersDump) {
  ServerConfig config = TracedServerConfig();
  config.slo.window = 100 * kMicrosecond;
  config.slo.p99_target_ns = 1;  // everything breaches
  KvDirectServer server(config);
  for (uint64_t k = 0; k < 8; k++) {
    ASSERT_TRUE(server.Load(Key(k), U64Value(k)).ok());
  }
  Client client(server);
  Simulator& sim = server.simulator();
  for (int round = 0; round < 8; round++) {
    for (uint64_t k = 0; k < 8; k++) {
      KvOperation op;
      op.opcode = Opcode::kGet;
      op.key = Key(k);
      client.Enqueue(std::move(op));
    }
    client.Flush();
    // Windows tumble lazily (on the next Record past the boundary), so step
    // simulated time past the window between rounds to close each one.
    sim.ScheduleAt(sim.Now() + 150 * kMicrosecond, [] {});
    sim.RunUntilIdle();
  }
  EXPECT_GT(server.slo_monitor().p99_breaches(), 0u);
  size_t slo_dumps = 0;
  for (const FlightRecorder::Dump& dump : server.flight_recorder().dumps()) {
    if (dump.trigger == FlightTrigger::kSloBreach) {
      slo_dumps++;
    }
  }
  EXPECT_EQ(slo_dumps, 1u);  // once_per_trigger
}

// --- dump JSON negative tests ---

TEST(ParseFlightDumpTest, TruncatedDumpsFailCleanly) {
  ServerConfig config = TracedServerConfig();
  KvDirectServer server(config);
  Client client(server);
  ASSERT_TRUE(client.Put(Key(1), U64Value(1)).ok());
  ASSERT_TRUE(server.flight_recorder().Trigger(FlightTrigger::kManual, "t"));
  const std::string json = server.flight_recorder().dumps()[0].json;

  ParsedFlightDump out;
  EXPECT_FALSE(ParseFlightDump("", &out).ok());
  EXPECT_FALSE(ParseFlightDump("{", &out).ok());
  EXPECT_FALSE(ParseFlightDump("not json at all", &out).ok());
  // Chop the real dump at many offsets: every truncation must error, never
  // crash, never succeed.
  for (size_t cut = 1; cut + 1 < json.size(); cut += json.size() / 97 + 1) {
    ParsedFlightDump partial;
    EXPECT_FALSE(ParseFlightDump(json.substr(0, cut), &partial).ok())
        << "cut at " << cut;
  }
  // The intact dump still parses.
  EXPECT_TRUE(ParseFlightDump(json, &out).ok());
}

TEST(ParseFlightDumpTest, OversizedSpanCountIsRejected) {
  ServerConfig config = TracedServerConfig();
  KvDirectServer server(config);
  Client client(server);
  for (uint64_t k = 0; k < 8; k++) {
    ASSERT_TRUE(client.Put(Key(k), U64Value(k)).ok());
  }
  ASSERT_TRUE(server.flight_recorder().Trigger(FlightTrigger::kManual, "t"));
  const std::string json = server.flight_recorder().dumps()[0].json;
  ParsedFlightDump full;
  ASSERT_TRUE(ParseFlightDump(json, &full).ok());
  ASSERT_GT(full.total_spans, 1u);
  // A hostile span count must hit the cap and error instead of allocating.
  ParsedFlightDump capped;
  EXPECT_FALSE(ParseFlightDump(json, &capped, /*max_spans=*/1).ok());
}

// --- event ring overwrite surfacing ---

TEST(TracerEventRingTest, OverwritesAreCountedAndWarnedInTraceJson) {
  Simulator sim;
  Tracer tracer(sim, /*enabled=*/true, SloConfig{}, FlightRecorderConfig{},
                /*registry=*/nullptr, /*max_events=*/2);
  for (int i = 0; i < 5; i++) {
    tracer.Instant("test", "event");
  }
  EXPECT_EQ(tracer.num_events(), 2u);
  EXPECT_EQ(tracer.dropped_events(), 3u);
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"dropped_events\":3"), std::string::npos);
  EXPECT_NE(json.find("oldest events were overwritten"), std::string::npos);
}

TEST(TracerEventRingTest, DroppedCounterIsRegistered) {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  KvDirectServer server(config);
  const auto value = server.metrics().CounterValue("kvd_events_dropped_total");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, 0u);
}

}  // namespace
}  // namespace kvd

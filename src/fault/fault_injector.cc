#include "src/fault/fault_injector.h"

#include <algorithm>

#include "src/common/assert.h"
#include "src/common/hashing.h"

namespace kvd {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kNetDropToServer:
      return "net_drop_to_server";
    case FaultSite::kNetDropToClient:
      return "net_drop_to_client";
    case FaultSite::kNetDuplicateToServer:
      return "net_duplicate_to_server";
    case FaultSite::kNetDuplicateToClient:
      return "net_duplicate_to_client";
    case FaultSite::kNetCorruptToServer:
      return "net_corrupt_to_server";
    case FaultSite::kNetCorruptToClient:
      return "net_corrupt_to_client";
    case FaultSite::kPcieReadCompletion:
      return "pcie_read_completion";
    case FaultSite::kPcieWriteCompletion:
      return "pcie_write_completion";
    case FaultSite::kDramCorrectableFlip:
      return "dram_correctable_flip";
    case FaultSite::kDramUncorrectableFlip:
      return "dram_uncorrectable_flip";
    case FaultSite::kReplicaCrash:
      return "replica_crash";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan) {
  for (size_t site = 0; site < kNumFaultSites; site++) {
    KVD_CHECK_MSG(plan_.probability[site] >= 0.0 && plan_.probability[site] <= 1.0,
                  "fault probability out of [0,1]");
    // Independent stream per site: nearby seeds diverge through splitmix64.
    rng_[site].Seed(Mix64(plan_.seed) ^ Mix64(site + 1));
  }
  for (const FaultScheduleEntry& entry : plan_.schedule) {
    KVD_CHECK_MSG(entry.nth >= 1, "scheduled fault ordinals are 1-based");
    scheduled_[static_cast<size_t>(entry.site)].push_back(entry.nth);
  }
  for (auto& ordinals : scheduled_) {
    std::sort(ordinals.begin(), ordinals.end());
  }
}

bool FaultInjector::ShouldInject(FaultSite site) {
  const size_t i = static_cast<size_t>(site);
  FaultSiteStats& stats = stats_[i];
  stats.events++;
  bool inject = false;
  if (next_scheduled_[i] < scheduled_[i].size() &&
      scheduled_[i][next_scheduled_[i]] == stats.events) {
    next_scheduled_[i]++;
    inject = true;
  } else if (plan_.probability[i] > 0.0 &&
             rng_[i].NextBool(plan_.probability[i])) {
    inject = true;
  }
  if (inject) {
    stats.injected++;
    if (tracer_ != nullptr) {
      tracer_->Instant("fault", FaultSiteName(site), {{"event", stats.events}});
      FlightRecorder& flight = tracer_->flight_recorder();
      if (flight.config().trigger_on_fault_injection) {
        flight.Trigger(FlightTrigger::kFaultInjected, FaultSiteName(site));
      }
    }
  }
  return inject;
}

void FaultInjector::CorruptBytes(std::span<uint8_t> bytes, FaultSite site) {
  if (bytes.empty()) {
    return;
  }
  Rng& rng = SiteRng(site);
  const uint64_t flips = rng.NextInRange(1, 3);
  for (uint64_t i = 0; i < flips; i++) {
    const uint64_t bit = rng.NextBelow(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (const FaultSiteStats& stats : stats_) {
    total += stats.injected;
  }
  return total;
}

void FaultInjector::RegisterMetrics(MetricRegistry& registry) const {
  for (size_t i = 0; i < kNumFaultSites; i++) {
    const char* name = FaultSiteName(static_cast<FaultSite>(i));
    registry.RegisterCounter("kvd_fault_events_total",
                             "Fault-site events consulted", {{"site", name}},
                             &stats_[i].events);
    registry.RegisterCounter("kvd_fault_injected_total", "Faults injected",
                             {{"site", name}}, &stats_[i].injected);
  }
}

}  // namespace kvd

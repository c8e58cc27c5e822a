// Deterministic fault injection (ROADMAP robustness item; paper §3.3.4 ECC,
// kBusy backpressure, out-of-memory handling).
//
// The simulated hardware is lossless by default, which makes every failure
// path dead code. The FaultInjector turns those paths on under test: each
// *site* (a specific place in a hardware model where a fault can strike) asks
// `ShouldInject(site)` once per event, and the injector answers from
//
//   - a per-site Bernoulli probability, drawn from a per-site RNG stream
//     seeded from (plan.seed, site) — sites never perturb each other's
//     sequences, so enabling one fault does not reshuffle another; and
//   - a scripted schedule of "fail the Nth event at site S" entries for
//     pinpoint regression tests.
//
// Determinism: decisions depend only on the per-site event ordinal, and event
// ordinals follow simulator event order, which is itself deterministic
// ((time, sequence)-ordered queue). Replaying a run with the same seed and
// schedule reproduces every fault bit-for-bit.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/random.h"
#include "src/obs/metric_registry.h"
#include "src/obs/tracer.h"

namespace kvd {

// Every place a fault can be injected. Network sites are per direction so a
// lossy client->server path can be tested against a clean return path.
enum class FaultSite : uint8_t {
  kNetDropToServer = 0,       // request packet lost on the wire
  kNetDropToClient,           // response packet lost on the wire
  kNetDuplicateToServer,      // request delivered twice
  kNetDuplicateToClient,      // response delivered twice
  kNetCorruptToServer,        // request payload bits flipped in flight
  kNetCorruptToClient,        // response payload bits flipped in flight
  kPcieReadCompletion,        // transient DMA read completion error (replayed)
  kPcieWriteCompletion,       // transient DMA write acceptance error (replayed)
  kDramCorrectableFlip,       // single-bit NIC DRAM error (ECC corrects)
  kDramUncorrectableFlip,     // double-bit NIC DRAM error (ECC detects only)
  kReplicaCrash,              // whole-node fail-stop (replication groups);
                              // consulted once per replica per group tick
};
inline constexpr size_t kNumFaultSites =
    static_cast<size_t>(FaultSite::kReplicaCrash) + 1;

// Stable human-readable site name, e.g. "net_drop_to_server".
const char* FaultSiteName(FaultSite site);

// "Fail the `nth` event (1-based) observed at `site`", independent of the
// site's probability. Exact-ordinal matches only.
struct FaultScheduleEntry {
  FaultSite site;
  uint64_t nth;
};

struct FaultPlan {
  uint64_t seed = 1;
  // Per-site Bernoulli fault probability; all zero by default (no injection).
  std::array<double, kNumFaultSites> probability{};
  std::vector<FaultScheduleEntry> schedule;

  double& at(FaultSite site) { return probability[static_cast<size_t>(site)]; }
  double at(FaultSite site) const { return probability[static_cast<size_t>(site)]; }
};

struct FaultSiteStats {
  uint64_t events = 0;    // times the site was consulted
  uint64_t injected = 0;  // times a fault was injected
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Consults the site: counts the event, then answers the scripted schedule
  // first and the site probability second. At most one decision per event.
  bool ShouldInject(FaultSite site);

  // The site's private RNG stream, for shaping an injected fault (which bits
  // to flip, ...). Deterministic per site like the decisions themselves.
  Rng& SiteRng(FaultSite site) { return rng_[static_cast<size_t>(site)]; }

  // Flips 1..3 bits of `bytes` using the site's RNG stream (no-op on empty).
  void CorruptBytes(std::span<uint8_t> bytes, FaultSite site);

  // Runtime probability override — scripts loss windows (retry storms, flaky
  // links) mid-run. Deterministic: the site's RNG stream is untouched, only
  // the threshold its draws are compared against changes, so sites still
  // never perturb each other's sequences.
  void SetProbability(FaultSite site, double probability) {
    plan_.at(site) = probability;
  }

  const FaultPlan& plan() const { return plan_; }
  const FaultSiteStats& stats(FaultSite site) const {
    return stats_[static_cast<size_t>(site)];
  }
  uint64_t total_injected() const;

  // Per-site event/injection counters labelled {site="..."}.
  void RegisterMetrics(MetricRegistry& registry) const;
  // Each injection is a timeline event, and fires the tracer's flight
  // recorder when its config opts in (chaos runs inject thousands of faults
  // by design).
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  FaultPlan plan_;
  Tracer* tracer_ = nullptr;
  std::array<Rng, kNumFaultSites> rng_;
  std::array<FaultSiteStats, kNumFaultSites> stats_{};
  // Scheduled ordinals per site, sorted; consumed front to back.
  std::array<std::vector<uint64_t>, kNumFaultSites> scheduled_;
  std::array<size_t, kNumFaultSites> next_scheduled_{};
};

}  // namespace kvd

#endif  // SRC_FAULT_FAULT_INJECTOR_H_

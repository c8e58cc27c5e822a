// Unit tests for the discrete-event simulator and token pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/sim/simulator.h"
#include "src/sim/token_pool.h"

namespace kvd {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, SameTimestampRunsInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    fired++;
    if (fired < 5) {
      sim.Schedule(10, chain);
    }
  };
  sim.Schedule(10, chain);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Now(), 50u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { fired++; });
  sim.Schedule(100, [&] { fired++; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50u);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(1234);
  EXPECT_EQ(sim.Now(), 1234u);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
}

// Reference event queue: a binary std::priority_queue ordered by (time,
// sequence). Events carry an id; running one records it and applies the same
// re-entrant scheduling rule as the simulator under test. A reserved slot is
// a silent event: it advances the clock when popped, but Step() does not stop
// at it and it is not counted as pending or executed.
class ReferenceQueue {
 public:
  SimTime now = 0;
  uint64_t executed = 0;
  std::vector<uint64_t> order;

  void ScheduleAt(SimTime when, uint64_t id) {
    ScheduleAt(when, next_sequence_++, id);
  }
  uint64_t Reserve(SimTime when) {
    queue_.push(Event{when, next_sequence_, /*reserved=*/true, 0});
    return next_sequence_++;
  }
  void ScheduleAt(SimTime when, uint64_t sequence, uint64_t id) {
    queue_.push(Event{when, sequence, /*reserved=*/false, id});
    real_pending_++;
  }
  bool Passed(uint64_t reserved_sequence) const {
    return passed_.count(reserved_sequence) != 0;
  }
  bool Step() {
    if (real_pending_ == 0) {
      return false;
    }
    while (PopOne()) {
    }
    return true;
  }
  void RunUntil(SimTime deadline) {
    while (!queue_.empty() && queue_.top().when <= deadline) {
      PopOne();
    }
    if (now < deadline) {
      now = deadline;
    }
  }
  void RunUntilIdle() {
    while (!queue_.empty()) {
      PopOne();
    }
  }
  size_t pending() const { return real_pending_; }

  // Every third event schedules a child 0..4 ps later — 0 lands on the
  // current timestamp, behind events already queued there.
  static bool HasChild(uint64_t id) { return id % 3 == 1; }
  static SimTime ChildDelay(uint64_t id) { return id % 5; }
  static uint64_t ChildId(uint64_t id) { return id * 2 + 1'000'000'000; }

 private:
  struct Event {
    SimTime when;
    uint64_t sequence;
    bool reserved;
    uint64_t id;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      if (a.sequence != b.sequence) {
        return a.sequence > b.sequence;
      }
      return !a.reserved && b.reserved;  // a slot passes before its event runs
    }
  };
  // Pops the earliest entry; returns true if it was a reserved slot.
  bool PopOne() {
    const Event event = queue_.top();
    queue_.pop();
    now = event.when;
    if (event.reserved) {
      passed_.insert(event.sequence);
      return true;
    }
    real_pending_--;
    executed++;
    Run(event.id);
    return false;
  }
  void Run(uint64_t id) {
    order.push_back(id);
    if (HasChild(id)) {
      ScheduleAt(now + ChildDelay(id), ChildId(id));
    }
  }

  uint64_t next_sequence_ = 0;
  size_t real_pending_ = 0;
  std::unordered_set<uint64_t> passed_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

TEST(SimulatorTest, MatchesReferenceQueueOverRandomInterleavings) {
  Simulator sim;
  ReferenceQueue reference;
  std::vector<uint64_t> order;
  std::function<void(uint64_t)> run = [&](uint64_t id) {
    order.push_back(id);
    if (ReferenceQueue::HasChild(id)) {
      const uint64_t child = ReferenceQueue::ChildId(id);
      sim.Schedule(ReferenceQueue::ChildDelay(id), [&run, child] { run(child); });
    }
  };
  struct Slot {
    SimTime when;
    uint64_t sequence;
  };
  // Reserved slots that may not have passed yet and hold no event.
  std::vector<Slot> open_slots;
  Rng rng(42);
  uint64_t next_id = 0;
  uint64_t reserved = 0;
  uint64_t filled = 0;
  for (int i = 0; i < 200000; i++) {
    const uint64_t choice = rng.NextBelow(100);
    // Short delays from a small range: many events share a timestamp.
    const SimTime delay = rng.NextBelow(4) == 0 ? 0 : rng.NextBelow(40);
    if (choice < 40) {
      const uint64_t id = next_id++;
      sim.Schedule(delay, [&run, id] { run(id); });
      reference.ScheduleAt(reference.now + delay, id);
    } else if (choice < 48) {
      const uint64_t sequence = sim.Reserve(sim.Now() + delay);
      ASSERT_EQ(sequence, reference.Reserve(reference.now + delay));
      open_slots.push_back(Slot{sim.Now() + delay, sequence});
      reserved++;
    } else if (choice < 55) {
      if (!open_slots.empty()) {
        // Recent slots are the likeliest still open.
        const size_t pick =
            open_slots.size() - 1 - rng.NextBelow(std::min<size_t>(open_slots.size(), 4));
        const Slot slot = open_slots[pick];
        open_slots[pick] = open_slots.back();
        open_slots.pop_back();
        ASSERT_EQ(sim.Passed(slot.when, slot.sequence), reference.Passed(slot.sequence));
        if (!reference.Passed(slot.sequence)) {
          const uint64_t id = next_id++;
          sim.ScheduleAt(slot.when, slot.sequence, [&run, id] { run(id); });
          reference.ScheduleAt(slot.when, slot.sequence, id);
          filled++;
        }
      }
    } else if (choice < 90) {
      EXPECT_EQ(sim.Step(), reference.Step());
    } else {
      const SimTime deadline = sim.Now() + rng.NextBelow(30);
      sim.RunUntil(deadline);
      reference.RunUntil(deadline);
    }
    ASSERT_EQ(sim.Now(), reference.now) << "after operation " << i;
    ASSERT_EQ(sim.pending_events(), reference.pending()) << "after operation " << i;
    ASSERT_EQ(sim.executed_events(), reference.executed) << "after operation " << i;
    ASSERT_EQ(order.size(), reference.order.size()) << "after operation " << i;
    if (!open_slots.empty()) {
      const Slot& slot = open_slots[rng.NextBelow(open_slots.size())];
      ASSERT_EQ(sim.Passed(slot.when, slot.sequence), reference.Passed(slot.sequence))
          << "after operation " << i;
    }
  }
  sim.RunUntilIdle();
  reference.RunUntilIdle();
  EXPECT_EQ(order, reference.order);
  EXPECT_EQ(sim.Now(), reference.now);
  EXPECT_EQ(sim.executed_events(), reference.executed);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_GT(sim.executed_events(), 100000u);
  EXPECT_GT(reserved, 10000u);
  EXPECT_GT(filled, 1000u);
  for (const Slot& slot : open_slots) {
    EXPECT_TRUE(sim.Passed(slot.when, slot.sequence));
  }
}

TEST(SimulatorTest, RunUntilIdleEndsAtTheLatestReservedSlot) {
  Simulator sim;
  sim.Schedule(10, [] {});
  const uint64_t sequence = sim.Reserve(500);
  EXPECT_FALSE(sim.Passed(500, sequence));
  sim.RunUntilIdle();
  EXPECT_EQ(sim.Now(), 500u);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_TRUE(sim.Passed(500, sequence));
}

TEST(SimulatorTest, CallbackPoolGrowsOnlyToPeakPending) {
  Simulator sim;
  for (int wave = 0; wave < 100; wave++) {
    for (int i = 0; i < 50; i++) {
      sim.Schedule(static_cast<SimTime>(i), [] {});
    }
    sim.RunUntilIdle();
  }
  EXPECT_EQ(sim.executed_events(), 5000u);
  EXPECT_EQ(sim.peak_pending_events(), 50u);
}

TEST(TokenPoolTest, ImmediateGrantWhenAvailable) {
  TokenPool pool("test", 4);
  bool granted = false;
  pool.Acquire(2, [&] { granted = true; });
  EXPECT_TRUE(granted);
  EXPECT_EQ(pool.available(), 2u);
}

TEST(TokenPoolTest, WaitersGrantedFifoOnRelease) {
  TokenPool pool("test", 2);
  pool.Acquire(2, [] {});
  std::vector<int> order;
  pool.Acquire(1, [&] { order.push_back(1); });
  pool.Acquire(1, [&] { order.push_back(2); });
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(pool.waiters(), 2u);
  pool.Release(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TokenPoolTest, FifoFairnessEvenWhenTokensFree) {
  TokenPool pool("test", 4);
  pool.Acquire(4, [] {});
  bool big_granted = false;
  bool small_granted = false;
  pool.Acquire(3, [&] { big_granted = true; });
  pool.Release(2);
  // Two tokens are free but the 3-token waiter is at the head; a later
  // 1-token request must not jump the queue.
  pool.Acquire(1, [&] { small_granted = true; });
  EXPECT_FALSE(big_granted);
  EXPECT_FALSE(small_granted);
  pool.Release(1);  // 3 free: head (3-token) waiter granted, 0 left
  EXPECT_TRUE(big_granted);
  EXPECT_FALSE(small_granted);
  pool.Release(1);  // now the small waiter gets its token
  EXPECT_TRUE(small_granted);
}

TEST(TokenPoolTest, TryAcquire) {
  TokenPool pool("test", 2);
  EXPECT_TRUE(pool.TryAcquire(2));
  EXPECT_FALSE(pool.TryAcquire(1));
  pool.Release(2);
  EXPECT_TRUE(pool.TryAcquire(1));
}

TEST(TokenPoolTest, TracksPeakUsage) {
  TokenPool pool("test", 8);
  pool.Acquire(5, [] {});
  pool.Release(3);
  pool.Acquire(1, [] {});
  EXPECT_EQ(pool.peak_in_use(), 5u);
  EXPECT_EQ(pool.total_acquires(), 2u);
}

TEST(TokenPoolTest, CountsGrantsThatWaited) {
  TokenPool pool("test", 2);
  pool.Acquire(2, [] {});
  pool.Acquire(1, [] {});
  pool.Acquire(1, [] {});
  EXPECT_EQ(pool.waited_grants(), 0u);
  pool.Release(2);
  EXPECT_EQ(pool.waited_grants(), 2u);
  EXPECT_EQ(pool.total_acquires(), 3u);
}

TEST(TokenPoolTest, TimedReleaseLandsAtItsInstantWithoutAnEvent) {
  Simulator sim;
  TokenPool pool("test", 1, &sim);
  ASSERT_TRUE(pool.TryAcquire(1));
  pool.ReleaseAt(1, 100);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunUntil(99);
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_FALSE(pool.TryAcquire(1));
  sim.RunUntil(100);
  EXPECT_EQ(pool.available(), 1u);
  EXPECT_TRUE(pool.TryAcquire(1));
  // A waiter turns the next timed release into an event at its instant.
  pool.ReleaseAt(1, 250);
  SimTime granted_at = 0;
  pool.Acquire(1, [&] { granted_at = sim.Now(); });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(granted_at, 250u);
  EXPECT_EQ(pool.waited_grants(), 1u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

// One side of the timed-release proof: a clock, a pool and the grants it
// made. The reference side returns timed tokens with a scheduled Release
// event, the timed side with ReleaseAt; everything else is shared code.
struct PoolSide {
  PoolSide(uint32_t capacity, bool timed_releases)
      : timed(timed_releases), pool("side", capacity, timed ? &sim : nullptr) {}

  struct Grant {
    uint64_t id;
    SimTime at;
    bool operator==(const Grant&) const = default;
  };
  // One random action, drawn once and applied to both sides alike. A
  // granted Acquire either holds its tokens (hold < 0) or hands them back
  // `hold` ps later.
  struct Action {
    enum Kind { kAcquire, kTryAcquire, kReleaseAt, kRelease } kind;
    uint32_t count;
    int64_t hold;  // Acquire; the delay for ReleaseAt
    uint64_t id;
  };

  void ReleaseLater(uint32_t count, SimTime delay) {
    // Timed releases must come in time order; the reference keeps the same.
    last_release = std::max(last_release, sim.Now() + delay);
    if (timed) {
      pool.ReleaseAt(count, last_release);
    } else {
      sim.ScheduleAt(last_release, [this, count] { pool.Release(count); });
    }
  }

  void Apply(const Action& action) {
    switch (action.kind) {
      case Action::kAcquire:
        pool.Acquire(action.count, [this, action] {
          grants.push_back(Grant{action.id, sim.Now()});
          if (action.hold < 0) {
            held += action.count;
          } else {
            ReleaseLater(action.count, static_cast<SimTime>(action.hold));
          }
        });
        break;
      case Action::kTryAcquire:
        if (pool.TryAcquire(action.count)) {
          grants.push_back(Grant{action.id, sim.Now()});
          held += action.count;
        }
        break;
      case Action::kReleaseAt:
        if (held > 0) {
          const uint32_t count = std::min(held, action.count);
          held -= count;
          ReleaseLater(count, static_cast<SimTime>(action.hold));
        }
        break;
      case Action::kRelease:
        if (held > 0) {
          const uint32_t count = std::min(held, action.count);
          held -= count;
          pool.Release(count);
        }
        break;
    }
  }

  // Schedules `action` `delay` ps from now and steps until it has run.
  void StepThrough(SimTime delay, const Action& action) {
    bool ran = false;
    sim.Schedule(delay, [this, action, &ran] {
      Apply(action);
      ran = true;
    });
    while (!ran) {
      ASSERT_TRUE(sim.Step());
    }
  }

  Simulator sim;
  bool timed;
  TokenPool pool;
  std::vector<Grant> grants;
  uint32_t held = 0;  // granted tokens with no release on the way
  SimTime last_release = 0;
};

TEST(TokenPoolTest, TimedReleasesMatchReleaseEventsOverRandomCalls) {
  Rng rng(7);
  uint64_t calls = 0;
  uint64_t waited = 0;
  for (uint32_t capacity = 1; capacity <= 4; capacity++) {
    PoolSide reference(capacity, /*timed=*/false);
    PoolSide timed(capacity, /*timed=*/true);
    uint64_t next_id = 0;
    auto draw = [&] {
      PoolSide::Action action;
      const uint64_t kind = rng.NextBelow(10);
      action.kind = kind < 5   ? PoolSide::Action::kAcquire
                    : kind < 6 ? PoolSide::Action::kTryAcquire
                    : kind < 8 ? PoolSide::Action::kReleaseAt
                               : PoolSide::Action::kRelease;
      action.count = 1 + static_cast<uint32_t>(rng.NextBelow(capacity));
      // Small delays, a third of them 0: releases, grants and actions pile
      // up on shared instants.
      action.hold = rng.NextBelow(3) == 0 ? 0 : static_cast<int64_t>(rng.NextBelow(6));
      if (action.kind == PoolSide::Action::kAcquire && rng.NextBelow(4) == 0) {
        action.hold = -1;
      }
      action.id = next_id++;
      return action;
    };
    for (int i = 0; i < 30000; i++) {
      const uint64_t choice = rng.NextBelow(10);
      if (choice < 5) {
        const PoolSide::Action action = draw();
        reference.Apply(action);
        timed.Apply(action);
      } else if (choice < 8) {
        const SimTime delay = rng.NextBelow(4);
        const PoolSide::Action action = draw();
        reference.StepThrough(delay, action);
        timed.StepThrough(delay, action);
      } else {
        const SimTime deadline = reference.sim.Now() + rng.NextBelow(6);
        reference.sim.RunUntil(deadline);
        timed.sim.RunUntil(deadline);
      }
      calls++;
      ASSERT_EQ(timed.sim.Now(), reference.sim.Now()) << "after call " << i;
      ASSERT_EQ(timed.pool.available(), reference.pool.available()) << "after call " << i;
      ASSERT_EQ(timed.pool.waiters(), reference.pool.waiters()) << "after call " << i;
      ASSERT_EQ(timed.grants.size(), reference.grants.size()) << "after call " << i;
      ASSERT_EQ(timed.held, reference.held) << "after call " << i;
    }
    reference.sim.RunUntilIdle();
    timed.sim.RunUntilIdle();
    EXPECT_EQ(timed.grants, reference.grants);
    EXPECT_EQ(timed.sim.Now(), reference.sim.Now());
    EXPECT_EQ(timed.pool.available(), reference.pool.available());
    EXPECT_EQ(timed.pool.peak_in_use(), reference.pool.peak_in_use());
    EXPECT_EQ(timed.pool.waited_grants(), reference.pool.waited_grants());
    EXPECT_LT(timed.sim.executed_events(), reference.sim.executed_events());
    waited += timed.pool.waited_grants();
  }
  EXPECT_GE(calls, 100000u);
  EXPECT_GT(waited, 1000u);
}

}  // namespace
}  // namespace kvd

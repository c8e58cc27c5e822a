// Unit tests for the discrete-event simulator and token pools.
#include <gtest/gtest.h>

#include <functional>
#include <queue>
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
// re-entrant scheduling rule as the simulator under test.
class ReferenceQueue {
 public:
  SimTime now = 0;
  uint64_t executed = 0;
  std::vector<uint64_t> order;

  void ScheduleAt(SimTime when, uint64_t id) {
    queue_.push(Event{when, next_sequence_++, id});
  }
  bool Step() {
    if (queue_.empty()) {
      return false;
    }
    const Event event = queue_.top();
    queue_.pop();
    now = event.when;
    executed++;
    Run(event.id);
    return true;
  }
  void RunUntil(SimTime deadline) {
    while (!queue_.empty() && queue_.top().when <= deadline) {
      Step();
    }
    if (now < deadline) {
      now = deadline;
    }
  }
  size_t pending() const { return queue_.size(); }

  // Every third event schedules a child 0..4 ps later — 0 lands on the
  // current timestamp, behind events already queued there.
  static bool HasChild(uint64_t id) { return id % 3 == 1; }
  static SimTime ChildDelay(uint64_t id) { return id % 5; }
  static uint64_t ChildId(uint64_t id) { return id * 2 + 1'000'000'000; }

 private:
  struct Event {
    SimTime when;
    uint64_t sequence;
    uint64_t id;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.sequence > b.sequence;
    }
  };
  void Run(uint64_t id) {
    order.push_back(id);
    if (HasChild(id)) {
      ScheduleAt(now + ChildDelay(id), ChildId(id));
    }
  }

  uint64_t next_sequence_ = 0;
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
  Rng rng(42);
  uint64_t next_id = 0;
  for (int i = 0; i < 200000; i++) {
    const uint64_t choice = rng.NextBelow(100);
    if (choice < 50) {
      // Short delays from a small range: many events share a timestamp.
      const SimTime delay = rng.NextBelow(4) == 0 ? 0 : rng.NextBelow(40);
      const uint64_t id = next_id++;
      sim.Schedule(delay, [&run, id] { run(id); });
      reference.ScheduleAt(reference.now + delay, id);
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
  }
  sim.RunUntilIdle();
  while (reference.Step()) {
  }
  EXPECT_EQ(order, reference.order);
  EXPECT_EQ(sim.executed_events(), reference.executed);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_GT(sim.executed_events(), 100000u);
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

}  // namespace
}  // namespace kvd

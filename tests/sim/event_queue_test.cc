#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fl::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.At(SimTime{30}, [&] { order.push_back(3); });
  q.At(SimTime{10}, [&] { order.push_back(1); });
  q.At(SimTime{20}, [&] { order.push_back(2); });
  EXPECT_EQ(q.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().millis, 30);
}

TEST(EventQueueTest, FifoAmongEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.At(SimTime{100}, [&, i] { order.push_back(i); });
  }
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, AfterSchedulesRelative) {
  EventQueue q;
  SimTime fired{};
  q.After(Seconds(5), [&] { fired = q.now(); });
  q.Run();
  EXPECT_EQ(fired.millis, 5000);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) q.After(Millis(1), recurse);
  };
  q.After(Millis(1), recurse);
  q.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now().millis, 10);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventHandle h = q.After(Seconds(1), [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(h));
  q.Run();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventHandle h = q.After(Seconds(1), [] {});
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(h));
}

TEST(EventQueueTest, CancelAfterRunReturnsFalse) {
  EventQueue q;
  const EventHandle h = q.After(Millis(1), [] {});
  q.Run();
  EXPECT_FALSE(q.Cancel(h));
}

TEST(EventQueueTest, CancelOwnHandleInsideCallbackReturnsFalse) {
  EventQueue q;
  EventHandle h;
  bool cancel_result = true;
  h = q.After(Millis(1), [&] { cancel_result = q.Cancel(h); });
  q.Run();
  EXPECT_FALSE(cancel_result);  // the event already fired
}

TEST(EventQueueTest, PendingTracksLiveEvents) {
  EventQueue q;
  const EventHandle a = q.After(Millis(1), [] {});
  q.After(Millis(2), [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.Run();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  EventQueue q;
  int count = 0;
  q.At(SimTime{10}, [&] { ++count; });
  q.At(SimTime{20}, [&] { ++count; });
  q.At(SimTime{30}, [&] { ++count; });
  EXPECT_EQ(q.RunUntil(SimTime{20}), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now().millis, 20);
  // Deadline beyond all events still moves the clock to the deadline.
  EXPECT_EQ(q.RunUntil(SimTime{100}), 1u);
  EXPECT_EQ(q.now().millis, 100);
}

TEST(EventQueueTest, StepExecutesOne) {
  EventQueue q;
  int count = 0;
  q.After(Millis(1), [&] { ++count; });
  q.After(Millis(2), [&] { ++count; });
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
}

TEST(EventQueueTest, SchedulingIntoThePastRejected) {
  EventQueue q;
  q.At(SimTime{100}, [] {});
  q.Run();
  EXPECT_THROW(q.At(SimTime{50}, [] {}), std::logic_error);
}

TEST(EventQueueTest, DeterministicReplay) {
  auto run = [&] {
    EventQueue q;
    std::vector<std::int64_t> times;
    for (int i = 0; i < 100; ++i) {
      q.After(Millis((i * 37) % 50), [&times, &q] {
        times.push_back(q.now().millis);
      });
    }
    q.Run();
    return times;
  };
  EXPECT_EQ(run(), run());
}

// FIFO must hold even when equal-timestamp events enter the queue from
// different cursor positions (different wheel levels) and only meet after
// cascading down to level 0.
TEST(EventQueueTest, FifoAcrossBucketBoundaries) {
  EventQueue q;
  std::vector<int> order;
  const std::int64_t t = 100000;  // several levels above a fresh cursor
  q.At(SimTime{t}, [&] { order.push_back(0); });       // scheduled at now=0
  q.At(SimTime{50}, [&] {
    // Scheduled mid-run: same timestamp, nearer cursor → lower level.
    q.At(SimTime{t}, [&] { order.push_back(1); });
  });
  q.At(SimTime{t - 1}, [&] {
    q.At(SimTime{t}, [&] { order.push_back(2); });
  });
  q.At(SimTime{t}, [&] { order.push_back(3); });
  q.Run();
  // Execution must follow scheduling order among t-equal events: the
  // nested At calls happen at sim times 50 and t-1 → seq order 0,3,1,2.
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
  EXPECT_EQ(q.now().millis, t);
}

// Equal-timestamp FIFO across a 64-slot level-0 boundary: events that sit
// in a level-1 slot, cascade together, and must retain seq order.
TEST(EventQueueTest, FifoAfterCascadeFromHigherLevel) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.At(SimTime{1000}, [&, i] { order.push_back(i); });  // level 1 at t=0
  }
  q.At(SimTime{990}, [&] {
    // After the cursor is inside 1000's level-0 window (64-aligned: 960),
    // these join at level 0 directly.
    for (int i = 8; i < 12; ++i) {
      q.At(SimTime{1000}, [&, i] { order.push_back(i); });
    }
  });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

// Far-future events (beyond the ~2.2-year wheel horizon) live in the
// overflow map; RunUntil must advance the clock through them correctly.
TEST(EventQueueTest, RunUntilWithFarFutureOverflowEvents) {
  EventQueue q;
  const std::int64_t kYear = 365LL * 24 * 3600 * 1000;
  std::vector<std::int64_t> fired;
  q.At(SimTime{5 * kYear}, [&] { fired.push_back(q.now().millis); });
  q.At(SimTime{3 * kYear}, [&] { fired.push_back(q.now().millis); });
  q.At(SimTime{100}, [&] { fired.push_back(q.now().millis); });

  // Deadline between the near event and the first overflow event: only the
  // near event runs, clock parks exactly at the deadline.
  EXPECT_EQ(q.RunUntil(SimTime{kYear}), 1u);
  EXPECT_EQ(q.now().millis, kYear);
  EXPECT_EQ(q.pending(), 2u);

  // Scheduling after the deadline jump must still order correctly against
  // the parked overflow events.
  q.At(SimTime{2 * kYear}, [&] { fired.push_back(q.now().millis); });
  EXPECT_EQ(q.RunUntil(SimTime{4 * kYear}), 2u);
  EXPECT_EQ(q.now().millis, 4 * kYear);
  EXPECT_EQ(q.Run(), 1u);
  EXPECT_EQ(fired, (std::vector<std::int64_t>{100, 2 * kYear, 3 * kYear,
                                              5 * kYear}));
  EXPECT_EQ(q.now().millis, 5 * kYear);
}

TEST(EventQueueTest, EqualTimeFifoBetweenOverflowAndFreshInserts) {
  EventQueue q;
  const std::int64_t kFar = std::int64_t{1} << 40;  // beyond wheel horizon
  std::vector<int> order;
  q.At(SimTime{kFar}, [&] { order.push_back(0); });
  // Park the clock deep into the overflow event's epoch, then add an
  // equal-time event from the new cursor: it must run after the earlier one.
  q.RunUntil(SimTime{kFar - 5});
  q.At(SimTime{kFar}, [&] { order.push_back(1); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueTest, StatsCountScheduledFiredCancelled) {
  EventQueue q;
  const EventHandle h = q.After(Millis(5), [] {});
  q.After(Millis(1), [] {});
  q.After(Millis(2), [] {});
  q.Cancel(h);
  q.Run();
  EXPECT_EQ(q.stats().scheduled, 3u);
  EXPECT_EQ(q.stats().fired, 2u);
  EXPECT_EQ(q.stats().cancelled, 1u);
}

// Schedule/cancel churn of 1M timers: the wheel's slab must recycle
// cancelled nodes immediately instead of accumulating tombstones, so the
// arena stays bounded by the peak number of *live* events, not by total
// churn volume.
TEST(EventQueueWheelTest, ChurnBoundedMemory) {
  EventQueue q;
  constexpr int kBatch = 1024;
  constexpr int kRounds = 1000;  // 1.024M schedule + cancel pairs
  std::vector<EventHandle> handles(kBatch);
  std::uint64_t churned = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kBatch; ++i) {
      handles[i] = q.After(Millis(1 + (i * 7919) % 100000), [] {});
    }
    for (int i = 0; i < kBatch; ++i) {
      ASSERT_TRUE(q.Cancel(handles[i]));
      ++churned;
    }
    q.RunFor(Millis(10));
  }
  EXPECT_EQ(churned, 1024u * 1000u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.stats().cancelled, churned);
  // Slab capacity tracks peak live events (~one batch + chunk rounding),
  // three orders of magnitude below the churn volume.
  EXPECT_LE(q.stats().allocated_nodes, 4096u);
}

TEST(EventQueueWheelTest, LevelOccupancyTracksDistance) {
  EventQueue q;
  q.At(SimTime{5}, [] {});                       // level 0 (< 64 ms)
  q.At(SimTime{3000}, [] {});                    // level 1 (< 4096 ms)
  q.At(SimTime{1000000}, [] {});                 // level 3
  q.At(SimTime{std::int64_t{1} << 40}, [] {});   // overflow
  const auto occ = q.LevelOccupancy();
  EXPECT_EQ(occ[0], 1u);
  EXPECT_EQ(occ[1], 1u);
  EXPECT_EQ(occ[3], 1u);
  EXPECT_EQ(occ[EventQueue::kLevels], 1u);  // overflow bucket
  std::size_t total = 0;
  for (const auto c : occ) total += c;
  EXPECT_EQ(total, q.pending());
  q.Run();
  for (const auto c : q.LevelOccupancy()) EXPECT_EQ(c, 0u);
}

TEST(EventQueueWheelTest, HandlesStaySafeAfterSlotReuse) {
  EventQueue q;
  // Burn through several generations of the same slab slots.
  EventHandle old = q.After(Millis(1), [] {});
  q.Cancel(old);
  for (int i = 0; i < 100; ++i) {
    const EventHandle h = q.After(Millis(1), [] {});
    q.Cancel(h);
  }
  // The original handle's slot has been reused; generation tag must reject.
  EXPECT_FALSE(q.Cancel(old));
}

TEST(EventQueueWheelTest, HeapCallbackCounterTracksLargeCaptures) {
  EventQueue q;
  q.After(Millis(1), [] {});  // small capture: inline
  char big[128] = {1};
  q.After(Millis(1), [big] { (void)big; });  // 128B capture: heap cell
  EXPECT_EQ(q.stats().heap_callbacks, 1u);
  q.Run();
}

}  // namespace
}  // namespace fl::sim

// Differential test of the timer-wheel EventQueue against a deliberately
// simple reference scheduler. Seeded random op streams — schedules from 0 ms
// to past the ~2.2-year wheel horizon (many at equal timestamps), cancels of
// live, fired and already-cancelled handles, callbacks that schedule and
// cancel further events, Step / RunUntil / RunFor — drive both engines in
// lockstep; after every op the fired sequence, now(), pending() and every
// Cancel result must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/event_queue.h"

namespace fl::sim {
namespace {

// The ordering contract in its plainest form: pending events sit in a
// vector sorted by (time, seq), so equal timestamps run FIFO, and Cancel
// erases the entry outright — no tombstones, no cursor, no levels.
class ReferenceScheduler {
 public:
  SimTime now() const { return now_; }
  std::size_t pending() const { return events_.size(); }

  EventHandle At(SimTime t, std::function<void()> fn) {
    FL_CHECK(t >= now_);
    Event ev{t, next_seq_++, std::move(fn)};
    const auto pos = std::upper_bound(
        events_.begin(), events_.end(), ev, [](const Event& a, const Event& b) {
          return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
        });
    events_.insert(pos, std::move(ev));
    return EventHandle{next_seq_};  // seq + 1: ids are nonzero
  }

  bool Cancel(EventHandle h) {
    const auto it =
        std::find_if(events_.begin(), events_.end(),
                     [&](const Event& e) { return e.seq + 1 == h.id; });
    if (it == events_.end()) return false;
    events_.erase(it);
    return true;
  }

  bool Step() {
    if (events_.empty()) return false;
    Event ev = std::move(events_.front());
    events_.erase(events_.begin());
    now_ = ev.time;
    ev.fn();
    return true;
  }

  std::size_t RunUntil(SimTime deadline) {
    std::size_t n = 0;
    while (!events_.empty() && events_.front().time <= deadline) {
      Step();
      ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  std::size_t RunFor(Duration d) { return RunUntil(now_ + d); }

  std::size_t Run() {
    std::size_t n = 0;
    while (Step()) ++n;
    return n;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  SimTime now_{};
  std::uint64_t next_seq_ = 0;
  std::vector<Event> events_;
};

constexpr std::int64_t kHorizon = std::int64_t{1} << EventQueue::kHorizonBits;

// Delays cluster on wheel-level and horizon boundaries (where placement and
// cascading change) and repeat often, so equal timestamps are common.
std::int64_t DrawDelay(Rng& rng) {
  static constexpr std::int64_t kEdges[] = {
      0, 0, 1, 63, 64, 65, 4095, 4096, 262'143, 262'144, 3'600'000,
      kHorizon - 1, kHorizon, kHorizon + 1, 3 * kHorizon};
  switch (rng.UniformInt(4)) {
    case 0:
      return kEdges[rng.UniformInt(std::size(kEdges))];
    case 1:
      return static_cast<std::int64_t>(rng.UniformInt(64));
    case 2:
      return static_cast<std::int64_t>(rng.UniformInt(std::uint64_t{1} << 24));
    default:
      return static_cast<std::int64_t>(rng.UniformInt(4 * kHorizon));
  }
}

// One engine plus the bookkeeping both engines share. Event `label` is the
// label-th event scheduled; when it fires it draws its own follow-up
// actions from an Rng seeded by (stream seed, label), so a correct engine
// pair performs identical nested schedules and cancels.
template <typename Queue>
class Harness {
 public:
  // (kind, label, now at the op, cancel result or 0)
  using Entry = std::tuple<char, std::size_t, std::int64_t, bool>;

  explicit Harness(std::uint64_t seed) : seed_(seed) {}

  void Schedule(SimTime t) {
    const std::size_t label = handles_.size();
    times_.push_back(t);
    handles_.push_back(queue_.At(t, [this, label] { Fire(label); }));
  }
  void ScheduleAfter(std::int64_t delay) {
    Schedule(SimTime{queue_.now().millis + delay});
  }
  // Same timestamp as an earlier event (if still in the future).
  void ScheduleAlongside(std::uint64_t pick) {
    if (times_.empty()) return;
    Schedule(std::max(queue_.now(), times_[pick % times_.size()]));
  }
  void Cancel(std::uint64_t pick) {
    if (handles_.empty()) return;
    const std::size_t label = pick % handles_.size();
    log_.emplace_back('C', label, queue_.now().millis,
                      queue_.Cancel(handles_[label]));
  }

  Queue& queue() { return queue_; }
  const std::vector<Entry>& log() const { return log_; }

 private:
  void Fire(std::size_t label) {
    log_.emplace_back('F', label, queue_.now().millis, false);
    Rng rng(seed_ ^ ((label + 1) * 0x9E3779B97F4A7C15ull));
    if (rng.Bernoulli(0.35)) ScheduleAfter(DrawDelay(rng));
    if (rng.Bernoulli(0.1)) ScheduleAlongside(rng.Next());
    if (rng.Bernoulli(0.2)) Cancel(rng.Next());
  }

  std::uint64_t seed_;
  Queue queue_;
  std::vector<EventHandle> handles_;
  std::vector<SimTime> times_;
  std::vector<Entry> log_;
};

void RunStream(std::uint64_t seed) {
  Harness<EventQueue> wheel(seed);
  Harness<ReferenceScheduler> ref(seed);
  Rng ops(seed);
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t kind = ops.UniformInt(100);
    const std::uint64_t pick = ops.Next();
    const std::int64_t delay = DrawDelay(ops);
    std::size_t wheel_ran = 0, ref_ran = 0;
    if (kind < 40) {
      wheel.ScheduleAfter(delay);
      ref.ScheduleAfter(delay);
    } else if (kind < 50) {
      wheel.ScheduleAlongside(pick);
      ref.ScheduleAlongside(pick);
    } else if (kind < 70) {
      wheel.Cancel(pick);
      ref.Cancel(pick);
    } else if (kind < 85) {
      wheel_ran = wheel.queue().Step();
      ref_ran = ref.queue().Step();
    } else if (kind < 93) {
      const SimTime deadline{wheel.queue().now().millis + delay};
      wheel_ran = wheel.queue().RunUntil(deadline);
      ref_ran = ref.queue().RunUntil(deadline);
    } else {
      wheel_ran = wheel.queue().RunFor(Millis(delay));
      ref_ran = ref.queue().RunFor(Millis(delay));
    }
    ASSERT_EQ(wheel_ran, ref_ran) << "seed " << seed << " op " << step;
    ASSERT_EQ(wheel.queue().now(), ref.queue().now())
        << "seed " << seed << " op " << step;
    ASSERT_EQ(wheel.queue().pending(), ref.queue().pending())
        << "seed " << seed << " op " << step;
    ASSERT_EQ(wheel.log(), ref.log()) << "seed " << seed << " op " << step;
  }
  // Drain: everything left fires in the same order.
  EXPECT_EQ(wheel.queue().Run(), ref.queue().Run());
  EXPECT_EQ(wheel.queue().now(), ref.queue().now());
  EXPECT_EQ(wheel.log(), ref.log()) << "seed " << seed;
  EXPECT_EQ(wheel.queue().pending(), 0u);
}

TEST(EventQueueDifferentialTest, WheelMatchesReferenceOnRandomOpStreams) {
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    RunStream(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace fl::sim

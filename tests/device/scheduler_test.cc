#include "src/device/scheduler.h"

#include <gtest/gtest.h>

namespace fl::device {
namespace {

PopulationRegistration Reg(const std::string& name,
                           Duration cadence = Hours(1)) {
  return PopulationRegistration{name, name + "-store", cadence};
}

TEST(SchedulerTest, RegisterAndFind) {
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a")).ok());
  EXPECT_EQ(s.registered_count(), 1u);
  ASSERT_TRUE(s.Find("a").ok());
  EXPECT_EQ((*s.Find("a"))->example_store, "a-store");
  EXPECT_FALSE(s.Find("b").ok());
}

TEST(SchedulerTest, DuplicateRegistrationRejected) {
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a")).ok());
  EXPECT_EQ(s.RegisterPopulation(Reg("a")).code(),
            ErrorCode::kAlreadyExists);
}

TEST(SchedulerTest, Unregister) {
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a")).ok());
  ASSERT_TRUE(s.UnregisterPopulation("a").ok());
  EXPECT_EQ(s.registered_count(), 0u);
  EXPECT_FALSE(s.NextSession(SimTime{0}).has_value());
  EXPECT_FALSE(s.UnregisterPopulation("a").ok());
}

TEST(SchedulerTest, FifoOrderAmongPopulations) {
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a")).ok());
  ASSERT_TRUE(s.RegisterPopulation(Reg("b")).ok());
  EXPECT_EQ(*s.NextSession(SimTime{0}), "a");
  s.OnSessionStarted("a", SimTime{0});
  s.OnSessionEnded();
  // "a" rotated to the back and throttled by cadence; "b" is next.
  EXPECT_EQ(*s.NextSession(SimTime{1}), "b");
}

TEST(SchedulerTest, NoParallelSessions) {
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a")).ok());
  ASSERT_TRUE(s.RegisterPopulation(Reg("b")).ok());
  s.OnSessionStarted("a", SimTime{0});
  EXPECT_TRUE(s.running());
  // While a session runs nothing else is offered ("we avoid running
  // training sessions on-device in parallel").
  EXPECT_FALSE(s.NextSession(SimTime{0}).has_value());
  s.OnSessionEnded();
  EXPECT_TRUE(s.NextSession(SimTime{1}).has_value());
}

TEST(SchedulerTest, CadenceThrottlesRepeatRuns) {
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a", Hours(2))).ok());
  s.OnSessionStarted("a", SimTime{0});
  s.OnSessionEnded();
  EXPECT_FALSE(s.NextSession(SimTime{Hours(1).millis}).has_value());
  EXPECT_TRUE(s.NextSession(SimTime{Hours(2).millis}).has_value());
}

TEST(SchedulerTest, PaceSteeringWindowRespected) {
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a", Seconds(1))).ok());
  s.SetEarliestCheckin("a", SimTime{Hours(5).millis});
  EXPECT_FALSE(s.NextSession(SimTime{Hours(4).millis}).has_value());
  EXPECT_TRUE(s.NextSession(SimTime{Hours(5).millis}).has_value());
}

TEST(SchedulerTest, NextRunnableAtReportsEarliest) {
  MultiTenantScheduler s;
  EXPECT_FALSE(s.NextRunnableAt(SimTime{0}).has_value());
  ASSERT_TRUE(s.RegisterPopulation(Reg("a")).ok());
  ASSERT_TRUE(s.RegisterPopulation(Reg("b")).ok());
  s.SetEarliestCheckin("a", SimTime{5000});
  s.SetEarliestCheckin("b", SimTime{9000});
  EXPECT_EQ(s.NextRunnableAt(SimTime{0})->millis, 5000);
  // Past times clamp to now.
  EXPECT_EQ(s.NextRunnableAt(SimTime{6000})->millis, 6000);
}

TEST(SchedulerTest, StaleAppNeverStarves) {
  // The FIFO worker queue guarantees both populations run over time.
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a", Seconds(1))).ok());
  ASSERT_TRUE(s.RegisterPopulation(Reg("b", Seconds(1))).ok());
  std::map<std::string, int> runs;
  SimTime t{0};
  for (int i = 0; i < 20; ++i) {
    const auto next = s.NextSession(t);
    ASSERT_TRUE(next.has_value());
    ++runs[*next];
    s.OnSessionStarted(*next, t);
    s.OnSessionEnded();
    t = t + Seconds(2);
  }
  EXPECT_EQ(runs["a"], 10);
  EXPECT_EQ(runs["b"], 10);
}

TEST(SchedulerTest, SessionStartsRotateTheFifoOrder) {
  // Two populations with different cadences: each session start moves its
  // population behind the other, so the queue order flips every time, and
  // cadences and pace-steering windows stay with their own population.
  MultiTenantScheduler s;
  ASSERT_TRUE(s.RegisterPopulation(Reg("a", Seconds(10))).ok());
  ASSERT_TRUE(s.RegisterPopulation(Reg("b", Seconds(30))).ok());
  std::string expected = "a";
  for (int i = 0; i < 6; ++i) {
    const SimTime t{Minutes(i).millis};
    const auto next = s.NextSession(t);
    ASSERT_TRUE(next.has_value()) << i;
    EXPECT_EQ(*next, expected) << i;
    s.OnSessionStarted(*next, t);
    s.OnSessionEnded();
    expected = expected == "a" ? "b" : "a";
  }
  // "a" ran last at 4 min, "b" at 5 min; "a" is at the front again.
  EXPECT_EQ(*s.NextSession(SimTime{Minutes(5).millis + 10'000}), "a");
  // Only "b" is throttled by its 30 s cadence here.
  s.SetEarliestCheckin("a", SimTime{Hours(1).millis});
  EXPECT_FALSE(s.NextSession(SimTime{Minutes(5).millis + 20'000}).has_value());
  EXPECT_EQ(*s.NextSession(SimTime{Minutes(5).millis + 30'000}), "b");
  EXPECT_EQ(s.NextRunnableAt(SimTime{Minutes(5).millis})->millis,
            Minutes(5).millis + 30'000);
  // Each registration kept its own store name through the rotations.
  EXPECT_EQ((*s.Find("a"))->example_store, "a-store");
  EXPECT_EQ((*s.Find("b"))->example_store, "b-store");
  ASSERT_TRUE(s.UnregisterPopulation("a").ok());
  EXPECT_EQ(*s.NextSession(SimTime{Hours(2).millis}), "b");
}

}  // namespace
}  // namespace fl::device

#include "src/core/fleet_stats.h"

#include <gtest/gtest.h>

namespace fl::core {
namespace {

using analytics::DeviceState;
using analytics::JournalEventKind;
using analytics::LifecycleEvent;
using protocol::ParticipantOutcome;
using protocol::RoundOutcome;

// The coordinator's verdict; committed rounds carry their phase timings.
LifecycleEvent Outcome(SimTime t, RoundId round, RoundOutcome outcome,
                       std::size_t contributors, Duration selection = {},
                       Duration total = {}) {
  return {.t = t,
          .source = analytics::JournalSource::kCoordinator,
          .kind = JournalEventKind::kRoundOutcome,
          .round = round,
          .a = contributors,
          .b = static_cast<std::uint64_t>(selection.millis),
          .c = static_cast<std::uint64_t>(total.millis),
          .outcome = outcome};
}

LifecycleEvent Participant(SimTime t, RoundId round, DeviceId device,
                           ParticipantOutcome outcome) {
  return {.t = t,
          .source = analytics::JournalSource::kAggregator,
          .kind = JournalEventKind::kParticipantOutcome,
          .device = device,
          .round = round,
          .a = static_cast<std::uint64_t>(outcome)};
}

LifecycleEvent Traffic(SimTime t, std::uint64_t down, std::uint64_t up) {
  return {.t = t, .kind = JournalEventKind::kTraffic, .a = down, .b = up};
}

LifecycleEvent SessionFact(JournalEventKind kind, std::uint64_t session) {
  return {.kind = kind, .session = SessionId{session}};
}

TEST(FleetStatsTest, RoundOutcomeCountsAndSeries) {
  FleetStats stats(SimTime{0}, Minutes(10));
  stats.On(Outcome(SimTime{Minutes(5).millis}, RoundId{1},
                   RoundOutcome::kCommitted, 20));
  stats.On(Outcome(SimTime{Minutes(15).millis}, RoundId{2},
                   RoundOutcome::kAbandonedReporting, 0));
  EXPECT_EQ(stats.rounds_committed(), 1u);
  EXPECT_EQ(stats.rounds_abandoned(), 1u);
  EXPECT_DOUBLE_EQ(stats.round_completions().Sum(0), 1.0);
  EXPECT_DOUBLE_EQ(stats.round_failures().Sum(1), 1.0);
  ASSERT_EQ(stats.round_log().size(), 2u);
  EXPECT_EQ(stats.round_log()[0].outcome, RoundOutcome::kCommitted);
  EXPECT_EQ(stats.round_log()[0].contributors, 20u);
}

TEST(FleetStatsTest, TimingPatchesTheMatchingLogRow) {
  FleetStats stats(SimTime{0}, Minutes(10));
  stats.On(Outcome(SimTime{1}, RoundId{7}, RoundOutcome::kCommitted, 5,
                   Minutes(2), Minutes(6)));
  ASSERT_TRUE(stats.round_log()[0].has_timing);
  EXPECT_EQ(stats.round_log()[0].selection_duration, Minutes(2));
  EXPECT_EQ(stats.round_log()[0].round_duration, Minutes(6));
  EXPECT_NEAR(stats.round_duration_hist().Mean(), 6.0, 1e-9);
}

TEST(FleetStatsTest, ParticipantOutcomesBucketPerRound) {
  FleetStats stats(SimTime{0}, Minutes(10));
  const RoundId r{3};
  stats.On(Participant(SimTime{1}, r, DeviceId{1},
                       ParticipantOutcome::kCompleted));
  stats.On(Participant(SimTime{1}, r, DeviceId{2},
                       ParticipantOutcome::kRejectedLate));
  stats.On(Participant(SimTime{1}, r, DeviceId{3},
                       ParticipantOutcome::kAborted));
  stats.On({.t = SimTime{1},
            .kind = JournalEventKind::kDeviceDrop,
            .device = DeviceId{4},
            .round = r});
  const auto counts = stats.per_round().at(r);
  EXPECT_EQ(counts.completed, 1u);
  EXPECT_EQ(counts.aborted, 2u);  // late + aborted fold together (Fig. 7)
  EXPECT_EQ(counts.dropped, 1u);
}

TEST(FleetStatsTest, StateTransitionsDriveSampledSeries) {
  FleetStats stats(SimTime{0}, Minutes(10));
  stats.OnDeviceStateChange(DeviceState::kIdle, DeviceState::kIdle);
  stats.OnDeviceStateChange(DeviceState::kIdle, DeviceState::kWaiting);
  stats.SampleStates(SimTime{Minutes(1).millis});
  EXPECT_DOUBLE_EQ(stats.StateSeries(DeviceState::kWaiting).Mean(0), 1.0);
  stats.OnDeviceStateChange(DeviceState::kWaiting,
                            DeviceState::kParticipating);
  stats.SampleStates(SimTime{Minutes(2).millis});
  EXPECT_DOUBLE_EQ(stats.StateSeries(DeviceState::kParticipating).Mean(0),
                   0.5);  // two samples: 0 then 1
}

TEST(FleetStatsTest, TrafficTotalsAccumulate) {
  FleetStats stats(SimTime{0}, Minutes(10));
  stats.On(Traffic(SimTime{1}, 1000, 0));
  stats.On(Traffic(SimTime{2}, 0, 300));
  stats.On(Traffic(SimTime{3}, 500, 200));
  EXPECT_EQ(stats.total_download_bytes(), 1500u);
  EXPECT_EQ(stats.total_upload_bytes(), 500u);
}

TEST(FleetStatsTest, ShortTracesExcludedFromTableOne) {
  FleetStats stats(SimTime{0}, Minutes(10));
  // A bare rejection, not a session.
  stats.On(SessionFact(JournalEventKind::kCheckin, 1));
  stats.On(SessionFact(JournalEventKind::kSessionEnd, 1));
  EXPECT_EQ(stats.shapes().total(), 0u);
  stats.On(SessionFact(JournalEventKind::kCheckin, 2));
  stats.On(SessionFact(JournalEventKind::kPlanDownloaded, 2));
  stats.On(SessionFact(JournalEventKind::kSessionEnd, 2));
  EXPECT_EQ(stats.shapes().total(), 1u);
  EXPECT_NEAR(stats.shapes().Fraction("-v"), 1.0, 1e-9);
}

TEST(FleetStatsTest, ErrorsCounted) {
  FleetStats stats(SimTime{0}, Minutes(10));
  stats.On({.t = SimTime{1},
            .kind = JournalEventKind::kServerError,
            .note = "boom"});
  stats.On({.t = SimTime{2},
            .kind = JournalEventKind::kServerError,
            .note = "bang"});
  // A corrupt report is an error (and a drop) without a separate record.
  stats.On({.t = SimTime{3},
            .kind = JournalEventKind::kReportRejected,
            .round = RoundId{1},
            .reason = analytics::FlightReason::kCorrupt});
  EXPECT_EQ(stats.errors(), 3u);
  EXPECT_EQ(stats.per_round().at(RoundId{1}).dropped, 1u);
}

}  // namespace
}  // namespace fl::core

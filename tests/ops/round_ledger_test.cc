#include "src/ops/round_ledger.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analytics/flight_dump.h"
#include "src/ops/json.h"
#include "src/telemetry/flight_recorder.h"

namespace fl::ops {
namespace {

using protocol::ParticipantOutcome;
using protocol::RoundOutcome;

using analytics::JournalEventKind;
using analytics::LifecycleEvent;

SimTime At(std::int64_t ms) { return SimTime{ms}; }

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

LifecycleEvent Fact(SimTime t, JournalEventKind kind) {
  return {.t = t, .kind = kind};
}

TEST(RoundLedgerTest, StagesParticipantsAndTimingUntilOutcome) {
  RoundLedger ledger;
  ledger.set_enabled(true);

  // Every participant of round 7 arrives before its outcome.
  ledger.On(Participant(At(1), RoundId{7}, DeviceId{1},
                        ParticipantOutcome::kCompleted));
  ledger.On(Participant(At(2), RoundId{7}, DeviceId{2},
                        ParticipantOutcome::kCompleted));
  ledger.On(Participant(At(3), RoundId{7}, DeviceId{3},
                        ParticipantOutcome::kDropped));
  ledger.On(Participant(At(4), RoundId{7}, DeviceId{4},
                        ParticipantOutcome::kAborted));
  ledger.On(Participant(At(5), RoundId{7}, DeviceId{5},
                        ParticipantOutcome::kRejectedLate));
  EXPECT_TRUE(ledger.Recent().empty());  // not finished yet

  ledger.On(Outcome(At(7), RoundId{7}, RoundOutcome::kCommitted, 2,
                    Millis(250), Millis(1500)));
  const auto recent = ledger.Recent();
  ASSERT_EQ(recent.size(), 1u);
  const analytics::RoundRecord& r = recent[0];
  EXPECT_EQ(r.round.value, 7u);
  EXPECT_EQ(r.finished_at.millis, 7);
  EXPECT_EQ(r.outcome, RoundOutcome::kCommitted);
  EXPECT_EQ(r.contributors, 2u);
  EXPECT_TRUE(r.has_timing);
  EXPECT_EQ(r.selection_duration.millis, 250);
  EXPECT_EQ(r.round_duration.millis, 1500);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.aborted, 1u);
  EXPECT_EQ(r.dropped, 1u);
  EXPECT_EQ(r.rejected_late, 1u);
}

TEST(RoundLedgerTest, LateParticipantOutcomeUpdatesFinishedRecord) {
  RoundLedger ledger;
  ledger.set_enabled(true);
  ledger.On(Outcome(At(1), RoundId{3}, RoundOutcome::kCommitted, 1));
  // A straggler reports after the round already closed.
  ledger.On({.t = At(2),
             .source = analytics::JournalSource::kAggregator,
             .kind = JournalEventKind::kReportRejected,
             .device = DeviceId{8},
             .round = RoundId{3},
             .reason = analytics::FlightReason::kLate});
  const auto recent = ledger.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].rejected_late, 1u);
}

TEST(RoundLedgerTest, CapacityEvictsOldestAndRecentIsNewestFirst) {
  RoundLedger ledger(/*capacity=*/3);
  ledger.set_enabled(true);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ledger.On(Outcome(At(static_cast<std::int64_t>(i)), RoundId{i},
                      RoundOutcome::kCommitted, i));
  }
  const auto recent = ledger.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].round.value, 5u);
  EXPECT_EQ(recent[1].round.value, 4u);
  EXPECT_EQ(recent[2].round.value, 3u);

  // `max` truncates from the newest end.
  const auto top1 = ledger.Recent(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].round.value, 5u);
}

TEST(RoundLedgerTest, TotalsTallyOutcomesAndCheckins) {
  RoundLedger ledger;
  ledger.set_enabled(true);
  ledger.On(Outcome(At(1), RoundId{1}, RoundOutcome::kCommitted, 2));
  ledger.On(Outcome(At(2), RoundId{2}, RoundOutcome::kAbandonedSelection, 0));
  ledger.On(Outcome(At(3), RoundId{3}, RoundOutcome::kAbandonedReporting, 1));
  ledger.On(Outcome(At(4), RoundId{4}, RoundOutcome::kFailed, 0));
  ledger.On(Fact(At(5), JournalEventKind::kMasterAccept));
  ledger.On(Fact(At(6), JournalEventKind::kMasterAccept));
  ledger.On(Fact(At(7), JournalEventKind::kCheckinRejected));
  ledger.On(Fact(At(8), JournalEventKind::kServerError));

  const RoundLedger::Totals totals = ledger.totals();
  EXPECT_EQ(totals.rounds_committed, 1u);
  EXPECT_EQ(totals.rounds_abandoned, 3u);  // kFailed counts as not-committed
  EXPECT_EQ(totals.checkins_accepted, 2u);
  EXPECT_EQ(totals.checkins_rejected, 1u);
  EXPECT_EQ(totals.errors, 1u);
}

TEST(RoundLedgerTest, RecentJsonIsValidAndNewestFirst) {
  RoundLedger ledger;
  ledger.set_enabled(true);
  ledger.On(Outcome(At(2), RoundId{1}, RoundOutcome::kCommitted, 4,
                    Millis(100), Millis(2000)));
  ledger.On(Outcome(At(3), RoundId{2}, RoundOutcome::kAbandonedSelection, 0));

  const auto parsed = JsonValue::Parse(ledger.RecentJson(10));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& root = parsed.value();

  ASSERT_NE(root.FindPath("totals"), nullptr);
  EXPECT_EQ(root.FindPath("totals.rounds_committed")->AsInt(), 1);
  EXPECT_EQ(root.FindPath("totals.rounds_abandoned")->AsInt(), 1);

  const JsonValue* rounds = root.Find("rounds");
  ASSERT_NE(rounds, nullptr);
  ASSERT_EQ(rounds->size(), 2u);
  // Newest first: round 2 (abandoned, no timing) then round 1.
  EXPECT_EQ((*rounds)[0].Find("round")->AsInt(), 2);
  EXPECT_EQ((*rounds)[0].Find("outcome")->AsString(), "abandoned_selection");
  EXPECT_DOUBLE_EQ((*rounds)[0].Find("selection_seconds")->AsDouble(), -1.0);
  EXPECT_EQ((*rounds)[1].Find("round")->AsInt(), 1);
  EXPECT_EQ((*rounds)[1].Find("outcome")->AsString(), "committed");
  EXPECT_EQ((*rounds)[1].Find("contributors")->AsInt(), 4);
  EXPECT_DOUBLE_EQ((*rounds)[1].Find("selection_seconds")->AsDouble(), 0.1);
  EXPECT_DOUBLE_EQ((*rounds)[1].Find("round_seconds")->AsDouble(), 2.0);

  // Limit applies.
  const auto limited = JsonValue::Parse(ledger.RecentJson(1));
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited.value().Find("rounds")->size(), 1u);
}

TEST(RoundLedgerTest, DisableStopsRecordingButKeepsHistory) {
  RoundLedger ledger;
  ledger.set_enabled(true);
  ledger.On(Outcome(At(1), RoundId{1}, RoundOutcome::kCommitted, 1));
  ledger.set_enabled(false);
  ledger.On(Outcome(At(2), RoundId{2}, RoundOutcome::kCommitted, 1));
  EXPECT_EQ(ledger.Recent().size(), 1u);
  EXPECT_EQ(ledger.totals().rounds_committed, 1u);
}

// Emit() writes the ring before any reducer runs, so a diagnostic bundle
// captured from the abandon hook already holds the triggering record.
TEST(RoundLedgerTest, AbandonHookSeesTheTriggeringRecordInTheRing) {
  struct Forward final : analytics::LifecycleSink {
    RoundLedger* ledger;
    void On(const LifecycleEvent& e) override { ledger->On(e); }
  };
  RoundLedger ledger;
  Forward sink;
  sink.ledger = &ledger;
  std::string dump;
  ledger.set_on_abandoned([&](SimTime, RoundId, RoundOutcome) {
    dump = analytics::FlightDumpText();
  });
  telemetry::FlightRecorder::Global().Clear();
  telemetry::SetFlightRecorderEnabled(true);
  LifecycleEvent e = Outcome(At(5), RoundId{9}, RoundOutcome::kFailed, 0);
  e.reason = analytics::FlightReason::kMasterLost;
  analytics::Emit(&sink, e);
  EXPECT_NE(dump.find("coordinator round_outcome 0 0 9 outcome=failed "
                      "reason=master_lost"),
            std::string::npos)
      << dump;
  telemetry::FlightRecorder::Global().Clear();
}

}  // namespace
}  // namespace fl::ops

#include "src/analytics/journal.h"

#include "src/analytics/lifecycle.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fl::analytics {
namespace {

JournalRecord SampleRecord() {
  JournalRecord rec;
  rec.sim_time = SimTime{123456};
  rec.wall_us = 987654321;
  rec.source = JournalSource::kAggregator;
  rec.event = JournalEventKind::kReportAccepted;
  rec.device = DeviceId{42};
  rec.session = SessionId{(42ULL << 20) | 7};
  rec.round = RoundId{(3ULL << 32) | 9};
  rec.detail = "weight=40.0 mode=secagg";
  return rec;
}

TEST(JournalRecordTest, SerializeParseRoundTrip) {
  const JournalRecord rec = SampleRecord();
  const auto parsed = JournalRecord::Parse(rec.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sim_time, rec.sim_time);
  EXPECT_EQ(parsed->wall_us, rec.wall_us);
  EXPECT_EQ(parsed->source, rec.source);
  EXPECT_EQ(parsed->event, rec.event);
  EXPECT_EQ(parsed->device.value, rec.device.value);
  EXPECT_EQ(parsed->session.value, rec.session.value);
  EXPECT_EQ(parsed->round.value, rec.round.value);
  EXPECT_EQ(parsed->detail, rec.detail);
}

TEST(JournalRecordTest, DetailEscapesNewlinesAndBackslashes) {
  JournalRecord rec = SampleRecord();
  rec.detail = "reason=multi\nline \\with\\ slashes";
  const std::string line = rec.Serialize();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = JournalRecord::Parse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->detail, rec.detail);
}

TEST(JournalRecordTest, EmptyDetailRoundTrips) {
  JournalRecord rec = SampleRecord();
  rec.detail.clear();
  const auto parsed = JournalRecord::Parse(rec.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->detail.empty());
}

TEST(JournalRecordTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(JournalRecord::Parse("").ok());
  EXPECT_FALSE(JournalRecord::Parse("12 34").ok());
  EXPECT_FALSE(JournalRecord::Parse("x 0 device checkin 1 2 0").ok());
  EXPECT_FALSE(JournalRecord::Parse("0 0 nobody checkin 1 2 0").ok());
  EXPECT_FALSE(JournalRecord::Parse("0 0 device no_such_event 1 2 0").ok());
  EXPECT_FALSE(JournalRecord::Parse("0 0 device checkin bad 2 0").ok());
}

TEST(JournalNamesTest, AllSourcesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(JournalSource::kSim); ++i) {
    const auto s = static_cast<JournalSource>(i);
    const auto back = ParseJournalSource(JournalSourceName(s));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(ParseJournalSource("martian").ok());
}

TEST(JournalNamesTest, AllEventsRoundTrip) {
  for (int i = 0; i <= static_cast<int>(JournalEventKind::kSimRoundComplete);
       ++i) {
    const auto k = static_cast<JournalEventKind>(i);
    const auto back = ParseJournalEvent(JournalEventName(k));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, k);
  }
}

TEST(JournalNamesTest, SessionEventMappingMirrorsTableOne) {
  for (int i = 0; i <= static_cast<int>(SessionEvent::kError); ++i) {
    const auto se = static_cast<SessionEvent>(i);
    const JournalEventKind k = JournalEventForSession(se);
    SessionEvent back;
    ASSERT_TRUE(SessionEventForJournal(k, &back));
    EXPECT_EQ(back, se);
  }
  SessionEvent unused;
  EXPECT_FALSE(
      SessionEventForJournal(JournalEventKind::kSessionEnd, &unused));
  EXPECT_FALSE(
      SessionEventForJournal(JournalEventKind::kRoundCommit, &unused));
}

TEST(LifecycleLineTest, ReadsTypedFieldsAndFreeFormReason) {
  const auto open = ParseLifecycleLine(
      "5 6 master round_open 0 0 9 task=1 goal=12 target=16 min_report=10");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->event.kind, JournalEventKind::kRoundOpen);
  EXPECT_EQ(open->event.round, RoundId{9});
  EXPECT_EQ(open->event.a, 12u);
  EXPECT_EQ(open->event.b, 10u);
  EXPECT_EQ(open->event.c, 1u);
  EXPECT_EQ(open->event.d, 16u);
  EXPECT_EQ(open->wall_us, 6);

  // The reason runs to the end of the line; the note outlives the parse.
  LifecycleLine abandoned;
  {
    const auto parsed = ParseLifecycleLine(
        "7 8 master round_abandoned 0 0 9 outcome=abandoned_reporting "
        "reason=only 3 reports; need 5");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    abandoned = *parsed;
  }
  EXPECT_EQ(abandoned.event.outcome,
            protocol::RoundOutcome::kAbandonedReporting);
  EXPECT_EQ(abandoned.event.note, "only 3 reports; need 5");
  EXPECT_EQ(ReasonText(abandoned.event), "only 3 reports; need 5");

  // Only lines the renderer writes parse: unknown keys, non-canonical
  // numbers and out-of-order fields are errors.
  for (const char* bad : {
           "5 6 master round_open 0 0 9 goal=12 min_report=10 color=red",
           "5 6 master round_open 0 0 9 goal=012 min_report=10",
           "5 6 master round_open 0 0 9 min_report=10 goal=12",
           "5 6 aggregator report_accepted 1 2 9 weight=1.0",
           "5 6 coordinator round_outcome 0 0 9 outcome=won",
           "5 6 master phase 0 0 9 phase=selection  ",
       }) {
    EXPECT_FALSE(ParseLifecycleLine(bad).ok()) << bad;
  }
}

TEST(JournalSinkTest, WritesHeaderAndRecordsAndGatesEnabled) {
  const std::string path = ::testing::TempDir() + "journal_sink_test.log";
  Journal& journal = Journal::Global();
  ASSERT_FALSE(JournalEnabled());

  ASSERT_TRUE(journal.Open(path).ok());
  EXPECT_TRUE(JournalEnabled());
  EXPECT_TRUE(journal.is_open());
  EXPECT_FALSE(journal.Open(path).ok());  // double-open refused

  Emit(nullptr, {.t = SimTime{5},
                 .source = JournalSource::kDevice,
                 .kind = JournalEventKind::kCheckin,
                 .device = DeviceId{1},
                 .session = SessionId{100}});
  Emit(nullptr, {.t = SimTime{9},
                 .source = JournalSource::kSelector,
                 .kind = JournalEventKind::kCheckinAccepted,
                 .device = DeviceId{1},
                 .session = SessionId{100}});
  // Reducer-only kinds never reach the journal.
  Emit(nullptr, {.t = SimTime{9},
                 .source = JournalSource::kAggregator,
                 .kind = JournalEventKind::kTraffic,
                 .a = 100});
  EXPECT_EQ(journal.events_written(), 2u);
  journal.Close();
  EXPECT_FALSE(JournalEnabled());
  journal.Close();  // idempotent

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, Journal::kHeader);
  std::size_t records = 0;
  while (std::getline(in, line)) {
    const auto rec = JournalRecord::Parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    ++records;
  }
  EXPECT_EQ(records, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fl::analytics

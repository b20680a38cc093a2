// Flight dump: the journal-typed view over the recorder rings — reason-code
// round-trips, outcome packing, and the two dump paths (allocating text vs
// async-signal-safe fd) producing parseable, equivalent journals.
#include "src/analytics/flight_dump.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/telemetry/flight_recorder.h"

namespace fl::analytics {
namespace {

class FlightDumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::FlightRecorder::Global().Clear();
    telemetry::SetFlightRecorderEnabled(true);
  }
  void TearDown() override { telemetry::FlightRecorder::Global().Clear(); }
};

TEST_F(FlightDumpTest, ReasonNamesRoundTrip) {
  for (int i = 1; i <= static_cast<int>(FlightReason::kMasterLost); ++i) {
    const auto reason = static_cast<FlightReason>(i);
    EXPECT_EQ(FlightReasonForDetail(FlightReasonName(reason)), reason)
        << FlightReasonName(reason);
  }
  EXPECT_EQ(FlightReasonForDetail("anything else"), FlightReason::kOther);
  EXPECT_EQ(FlightReasonForDetail("late"), FlightReason::kLate);
}

TEST_F(FlightDumpTest, OutcomeReasonPackingDecodesInDetail) {
  RecordFlight(SimTime{500}, JournalSource::kCoordinator,
               JournalEventKind::kRoundOutcome, DeviceId{}, SessionId{},
               RoundId{7}, /*aux_a=*/0,
               PackOutcomeReason(protocol::RoundOutcome::kAbandonedReporting,
                                 FlightReason::kBelowMinReports));
  const auto records = telemetry::FlightRecorder::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  JournalRecord rec;
  ASSERT_TRUE(JournalRecordFromFlight(records[0], &rec));
  EXPECT_EQ(rec.event, JournalEventKind::kRoundOutcome);
  EXPECT_EQ(rec.round.value, 7u);
  EXPECT_EQ(rec.detail, "outcome=abandoned_reporting reason=below min_report");
}

TEST_F(FlightDumpTest, CommittedOutcomeCarriesContributors) {
  RecordFlight(SimTime{900}, JournalSource::kCoordinator,
               JournalEventKind::kRoundOutcome, DeviceId{}, SessionId{},
               RoundId{3}, /*aux_a=*/25,
               PackOutcomeReason(protocol::RoundOutcome::kCommitted,
                                 FlightReason::kNone));
  const auto records = telemetry::FlightRecorder::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  JournalRecord rec;
  ASSERT_TRUE(JournalRecordFromFlight(records[0], &rec));
  EXPECT_EQ(rec.detail, "outcome=committed contributors=25");
}

TEST_F(FlightDumpTest, NonJournalSourcesAreNotJournalRecords) {
  telemetry::FlightRecord other;
  other.source = static_cast<std::uint8_t>(JournalSource::kSim) + 1;
  other.kind = static_cast<std::uint8_t>(JournalEventKind::kTrainStart);
  JournalRecord rec;
  EXPECT_FALSE(JournalRecordFromFlight(other, &rec));
}

TEST_F(FlightDumpTest, DumpTextParsesBackAsJournalRecords) {
  RecordFlight(SimTime{1000}, JournalSource::kMaster,
               JournalEventKind::kRoundOpen, DeviceId{}, SessionId{},
               RoundId{4}, /*aux_a=*/20, /*aux_b=*/12);
  RecordFlight(SimTime{1500}, JournalSource::kAggregator,
               JournalEventKind::kReportRejected, DeviceId{8}, SessionId{80},
               RoundId{4}, 0, static_cast<std::uint16_t>(FlightReason::kLate));
  RecordFlight(SimTime{2000}, JournalSource::kDevice,
               JournalEventKind::kTrainStart, DeviceId{8}, SessionId{80},
               RoundId{4});

  const std::string text = FlightDumpText();
  EXPECT_EQ(text.rfind(Journal::kHeader, 0), 0u);  // header first

  std::vector<JournalRecord> parsed;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty() || line.front() == '#') continue;
    auto rec = JournalRecord::Parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    parsed.push_back(std::move(*rec));
  }
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].event, JournalEventKind::kRoundOpen);
  EXPECT_EQ(parsed[0].detail, "goal=20 min_report=12");
  EXPECT_EQ(parsed[1].event, JournalEventKind::kReportRejected);
  EXPECT_EQ(parsed[1].detail, "reason=late");
  EXPECT_EQ(parsed[2].event, JournalEventKind::kTrainStart);
  EXPECT_EQ(parsed[2].round.value, 4u);
}

TEST_F(FlightDumpTest, FdDumpMatchesTextDumpRecordForRecord) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    RecordFlight(SimTime{static_cast<std::int64_t>(i)}, JournalSource::kDevice,
                 JournalEventKind::kCheckin, DeviceId{i}, SessionId{i + 1});
  }
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  const std::size_t written = FlightDumpToFd(fileno(tmp));
  EXPECT_EQ(written, 50u);

  std::rewind(tmp);
  std::string fd_text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0) {
    fd_text.append(buf, n);
  }
  std::fclose(tmp);

  // The fd dump is unordered; compare as line sets against the sorted text
  // dump (wall_us is identical per record, so lines match byte-for-byte).
  std::vector<std::string> want_lines, got_lines;
  auto split = [](const std::string& text, std::vector<std::string>* out) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t eol = text.find('\n', pos);
      const std::string line = text.substr(pos, eol - pos);
      pos = eol == std::string::npos ? text.size() : eol + 1;
      if (!line.empty() && line.front() != '#') out->push_back(line);
    }
  };
  split(FlightDumpText(), &want_lines);
  split(fd_text, &got_lines);
  std::sort(want_lines.begin(), want_lines.end());
  std::sort(got_lines.begin(), got_lines.end());
  EXPECT_EQ(got_lines, want_lines);
}

TEST_F(FlightDumpTest, RecordFlightHonorsTheGate) {
  telemetry::SetFlightRecorderEnabled(false);
  RecordFlight(SimTime{1}, JournalSource::kDevice, JournalEventKind::kCheckin);
  EXPECT_TRUE(telemetry::FlightRecorder::Global().Snapshot().empty());
  telemetry::SetFlightRecorderEnabled(true);
  RecordFlight(SimTime{2}, JournalSource::kDevice, JournalEventKind::kCheckin);
  EXPECT_EQ(telemetry::FlightRecorder::Global().Snapshot().size(), 1u);
}

}  // namespace
}  // namespace fl::analytics

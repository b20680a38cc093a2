// Invariant checking and offline reconstruction over synthetic journals,
// plus an end-to-end test that a journal written by a full fleet simulation
// reproduces the in-process Table 1 tally bit-for-bit.
#include "src/tools/log_analyzer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"

namespace fl::tools {
namespace {

using analytics::JournalEventKind;
using analytics::JournalRecord;
using analytics::JournalSource;

std::string Line(std::int64_t t, JournalSource src, JournalEventKind ev,
                 std::uint64_t device, std::uint64_t session,
                 std::uint64_t round, std::string detail = {}) {
  JournalRecord rec;
  rec.sim_time = SimTime{t};
  rec.wall_us = t;
  rec.source = src;
  rec.event = ev;
  rec.device = DeviceId{device};
  rec.session = SessionId{session};
  rec.round = RoundId{round};
  rec.detail = std::move(detail);
  return rec.Serialize() + "\n";
}

constexpr std::uint64_t kRound = (1ULL << 32) | 1;
constexpr std::uint64_t kDev = 7;
constexpr std::uint64_t kSess = (7ULL << 20) | 1;

// A minimal clean run: one round, one device completing "-v[]+^".
std::string CleanJournal() {
  std::string j = "#fl-journal v1\n";
  j += Line(0, JournalSource::kMaster, JournalEventKind::kRoundOpen, 0, 0,
            kRound, "task=1 goal=1 target=2 min_report=1");
  j += Line(0, JournalSource::kMaster, JournalEventKind::kPhase, 0, 0, kRound,
            "phase=selection");
  j += Line(1, JournalSource::kDevice, JournalEventKind::kCheckin, kDev,
            kSess, 0);
  j += Line(1, JournalSource::kSelector, JournalEventKind::kCheckinAccepted,
            kDev, kSess, 0);
  j += Line(2, JournalSource::kMaster, JournalEventKind::kPhase, 0, 0, kRound,
            "phase=configuration devices=1");
  j += Line(2, JournalSource::kMaster, JournalEventKind::kPhase, 0, 0, kRound,
            "phase=reporting aggregators=1");
  j += Line(2, JournalSource::kDevice, JournalEventKind::kPlanDownloaded,
            kDev, kSess, kRound);
  j += Line(3, JournalSource::kDevice, JournalEventKind::kTrainStart, kDev,
            kSess, kRound);
  j += Line(4, JournalSource::kDevice, JournalEventKind::kTrainComplete, kDev,
            kSess, kRound);
  j += Line(5, JournalSource::kDevice, JournalEventKind::kUploadStart, kDev,
            kSess, kRound);
  j += Line(6, JournalSource::kAggregator, JournalEventKind::kReportAccepted,
            kDev, kSess, kRound, "weight=1.000000");
  j += Line(6, JournalSource::kDevice, JournalEventKind::kUploadComplete,
            kDev, kSess, kRound);
  j += Line(6, JournalSource::kDevice, JournalEventKind::kSessionEnd, kDev,
            kSess, kRound, "completed=1");
  j += Line(7, JournalSource::kMaster, JournalEventKind::kPhase, 0, 0, kRound,
            "phase=closing accepted=1");
  j += Line(7, JournalSource::kMaster, JournalEventKind::kRoundCommit, 0, 0,
            kRound, "contributors=1 min_report=1");
  j += Line(7, JournalSource::kCoordinator, JournalEventKind::kRoundOutcome,
            0, 0, kRound, "outcome=committed contributors=1");
  return j;
}

bool HasRule(const AnalysisReport& report, std::string_view rule) {
  for (const auto& v : report.violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

TEST(LogAnalyzerTest, CleanJournalHasNoViolations) {
  const AnalysisReport report = AnalyzeJournal(CleanJournal());
  EXPECT_EQ(report.parse_errors, 0u);
  EXPECT_TRUE(report.violations.empty())
      << RenderViolations(report);
  EXPECT_EQ(report.sessions_closed, 1u);
  EXPECT_EQ(report.sessions_open, 0u);
  ASSERT_EQ(report.rounds.size(), 1u);
  const analytics::RoundRecord& round = report.rounds[0];
  EXPECT_TRUE(round.committed);
  EXPECT_EQ(round.contributors, 1u);
  EXPECT_EQ(round.outcome, protocol::RoundOutcome::kCommitted);
  EXPECT_EQ(round.reports_accepted, 1u);
  ASSERT_EQ(round.phases.size(), 4u);
  EXPECT_STREQ(analytics::PhaseName(round.phases[0].phase), "selection");
  EXPECT_STREQ(analytics::PhaseName(round.phases[3].phase), "closing");
  // selection: t=0 -> configuration t=2.
  EXPECT_EQ((round.phases[1].at - round.phases[0].at).millis, 2);
  EXPECT_EQ(round.selection_duration.millis, 2);
  EXPECT_EQ(round.round_duration.millis, 7);
  EXPECT_NEAR(report.tally.Fraction("-v[]+^"), 1.0, 1e-12);
}

TEST(LogAnalyzerTest, DroppedEventBreaksDeviceStateMachine) {
  // Deliberate corruption: delete the train_complete line. The surviving
  // '[' -> '+' adjacency is illegal.
  std::string j = CleanJournal();
  const std::string dropped =
      Line(4, JournalSource::kDevice, JournalEventKind::kTrainComplete, kDev,
           kSess, kRound);
  const std::size_t at = j.find(dropped);
  ASSERT_NE(at, std::string::npos);
  j.erase(at, dropped.size());

  const AnalysisReport report = AnalyzeJournal(j);
  EXPECT_TRUE(HasRule(report, "device-transition"))
      << RenderViolations(report);
}

TEST(LogAnalyzerTest, ReorderedEventsDetectedBySimTimeRegression) {
  // Deliberate corruption: swap the plan_downloaded and train_start lines.
  // Timestamps don't change, so the file order now contradicts sim time.
  std::string j = CleanJournal();
  const std::string a = Line(2, JournalSource::kDevice,
                             JournalEventKind::kPlanDownloaded, kDev, kSess,
                             kRound);
  const std::string b = Line(3, JournalSource::kDevice,
                             JournalEventKind::kTrainStart, kDev, kSess,
                             kRound);
  const std::size_t pa = j.find(a);
  ASSERT_NE(pa, std::string::npos);
  j.erase(pa, a.size());
  const std::size_t pb = j.find(b);
  ASSERT_NE(pb, std::string::npos);
  j.insert(pb + b.size(), a);

  const AnalysisReport report = AnalyzeJournal(j);
  EXPECT_TRUE(HasRule(report, "out-of-order")) << RenderViolations(report);
}

TEST(LogAnalyzerTest, UploadWithoutServerAcceptIsOrphan) {
  std::string j = CleanJournal();
  const std::string accept =
      Line(6, JournalSource::kAggregator, JournalEventKind::kReportAccepted,
           kDev, kSess, kRound, "weight=1.000000");
  const std::size_t at = j.find(accept);
  ASSERT_NE(at, std::string::npos);
  j.erase(at, accept.size());

  const AnalysisReport report = AnalyzeJournal(j);
  EXPECT_TRUE(HasRule(report, "orphan-upload")) << RenderViolations(report);
}

TEST(LogAnalyzerTest, PlaintextAcceptAfterCloseFlagged) {
  std::string j = CleanJournal();
  j += Line(9, JournalSource::kAggregator, JournalEventKind::kReportAccepted,
            kDev + 1, kSess + 1, kRound, "weight=1.000000");
  EXPECT_TRUE(HasRule(AnalyzeJournal(j), "accept-after-close"));

  // The secure aggregation commit phase legitimately outlives the flush.
  std::string ok = CleanJournal();
  ok += Line(9, JournalSource::kAggregator, JournalEventKind::kReportAccepted,
             kDev + 1, kSess + 1, kRound, "mode=secagg");
  EXPECT_FALSE(HasRule(AnalyzeJournal(ok), "accept-after-close"));
}

TEST(LogAnalyzerTest, CommitBelowMinReportFlagged) {
  std::string j = CleanJournal();
  const std::string commit = Line(7, JournalSource::kMaster,
                                  JournalEventKind::kRoundCommit, 0, 0,
                                  kRound, "contributors=1 min_report=1");
  const std::size_t at = j.find(commit);
  ASSERT_NE(at, std::string::npos);
  j.replace(at, commit.size(),
            Line(7, JournalSource::kMaster, JournalEventKind::kRoundCommit, 0,
                 0, kRound, "contributors=0 min_report=1"));
  EXPECT_TRUE(HasRule(AnalyzeJournal(j), "commit-below-goal"));
}

TEST(LogAnalyzerTest, PhaseRegressionFlagged) {
  std::string j = CleanJournal();
  j += Line(8, JournalSource::kMaster, JournalEventKind::kPhase, 0, 0, kRound,
            "phase=selection");
  EXPECT_TRUE(HasRule(AnalyzeJournal(j), "phase-order"));
}

TEST(LogAnalyzerTest, EventForUnopenedRoundFlagged) {
  std::string j = CleanJournal();
  j += Line(9, JournalSource::kAggregator, JournalEventKind::kReportAccepted,
            9, 99, 424242, "weight=1.000000");
  EXPECT_TRUE(HasRule(AnalyzeJournal(j), "unknown-round"));
}

TEST(LogAnalyzerTest, GarbageLinesCountedAsParseErrors) {
  std::string j = CleanJournal();
  j += "this is not a journal line\n";
  const AnalysisReport report = AnalyzeJournal(j);
  EXPECT_EQ(report.parse_errors, 1u);
  EXPECT_TRUE(HasRule(report, "parse-error"));
}

TEST(LogAnalyzerTest, EmptyAndHeaderOnlyJournals) {
  EXPECT_EQ(AnalyzeJournal("").records, 0u);
  const AnalysisReport report = AnalyzeJournal("#fl-journal v1\n# comment\n");
  EXPECT_EQ(report.records, 0u);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(RenderViolations(report), "No invariant violations.\n");
}

// ---------------------------------------------------------------------------
// End-to-end: a seeded fleet simulation writes a journal; the offline
// analyzer must (a) report zero violations and (b) regenerate the Table 1
// session-shape distribution bit-identically to the in-process FleetStats
// tally.
// ---------------------------------------------------------------------------

core::FLSystemConfig SmallConfig(std::uint64_t seed) {
  core::FLSystemConfig config;
  config.seed = seed;
  config.population.device_count = 200;
  config.population.mean_examples_per_sec = 200;
  config.selector_count = 2;
  config.coordinator_tick = Seconds(10);
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);
  return config;
}

protocol::RoundConfig SmallRound() {
  protocol::RoundConfig rc;
  rc.goal_count = 10;
  rc.overselection = 1.3;
  rc.selection_timeout = Minutes(4);
  rc.min_selection_fraction = 0.5;
  rc.reporting_deadline = Minutes(8);
  rc.min_reporting_fraction = 0.5;
  rc.devices_per_aggregator = 8;
  return rc;
}

core::FLSystem::DataProvisioner BlobsProvisioner() {
  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
  return [blobs](const sim::DeviceProfile& profile, core::DeviceAgent& agent,
                 Rng&, SimTime now) {
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 40, now));
  };
}

TEST(LogAnalyzerEndToEndTest, FleetRunJournalIsCleanAndTallyBitIdentical) {
  const std::string path =
      ::testing::TempDir() + "log_analyzer_e2e_journal.log";
  ASSERT_TRUE(analytics::Journal::Global().Open(path).ok());

  core::FLSystem system(SmallConfig(47));
  Rng rng(1);
  system.AddTrainingTask("train", graph::BuildLogisticRegression(8, 4, rng),
                         {}, {}, SmallRound(), Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(3));
  analytics::Journal::Global().Close();

  const auto report = AnalyzeJournalFile(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // (a) A healthy run deviates from the expected state sequences nowhere.
  EXPECT_EQ(report->parse_errors, 0u);
  EXPECT_TRUE(report->violations.empty()) << RenderViolations(*report);

  // The journal captured real traffic: sessions, rounds, commits.
  EXPECT_GT(report->sessions_closed, 0u);
  ASSERT_FALSE(report->rounds.empty());
  std::size_t committed = 0;
  for (const auto& round : report->rounds) committed += round.committed;
  EXPECT_GT(committed, 0u);
  EXPECT_EQ(committed, system.stats().rounds_committed());

  // (b) Bit-identical Table 1 distribution: same shapes, same counts, same
  // order.
  const auto offline = report->tally.Ranked();
  const auto inprocess = system.stats().shapes().Ranked();
  EXPECT_EQ(report->tally.total(), system.stats().shapes().total());
  EXPECT_EQ(offline, inprocess);

  // Deliberate corruption of the same journal must be flagged: drop one
  // train_complete record from a session that went on to upload.
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  std::size_t cut_start = std::string::npos;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    if (line.find(" device train_complete ") != std::string::npos) {
      // Only cut if this session also has an upload_start later (so the
      // resulting '[' -> '+' adjacency is illegal, not just truncated).
      const auto rec = JournalRecord::Parse(line);
      ASSERT_TRUE(rec.ok());
      const std::string upload_tag =
          " device upload_start " + std::to_string(rec->device.value) + " " +
          std::to_string(rec->session.value) + " ";
      if (text.find(upload_tag, eol) != std::string::npos) {
        cut_start = pos;
        break;
      }
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  ASSERT_NE(cut_start, std::string::npos)
      << "no completed training session found in journal";
  text.erase(cut_start, text.find('\n', cut_start) - cut_start + 1);
  const AnalysisReport corrupted = AnalyzeJournal(text);
  EXPECT_TRUE(HasRule(corrupted, "device-transition"));

  std::remove(path.c_str());
}

}  // namespace
}  // namespace fl::tools

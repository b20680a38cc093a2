// Seeded mutational fuzzing of the journal text formats: the `#fl-journal
// v1` lines a journal holds and the lines a flight-recorder dump
// synthesizes. Corpora are a seeded fleet run's journal and the
// FlightDumpText() taken right after it; mutations are bit flips,
// truncation, splicing two corpora, huge / negative integers in place of a
// numeric token, and stray backslashes. Targets are JournalRecord::Parse,
// ParseLifecycleLine, AnalyzeJournal and AnalyzeCriticalPath with their
// renderers. Invariants: nothing crashes (run under ASan + UBSan in CI);
// unmutated lines round-trip through Serialize(Parse(line)) and through
// Render(ParseLifecycleLine(line)); a mutated line either renders back
// byte for byte or fails to parse; and every journaled LifecycleEvent kind
// round-trips render → parse for the fields it carries, in both the journal
// and the flight-ring projection.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analytics/flight_dump.h"
#include "src/analytics/journal.h"
#include "src/analytics/lifecycle.h"
#include "src/common/rng.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"
#include "src/telemetry/flight_recorder.h"
#include "src/tools/log_analyzer.h"

namespace fl::analytics {
namespace {

struct Corpora {
  std::string journal;
  std::string flight_dump;
};

// The golden fleet of determinism_golden_test: 150 devices for two
// simulated hours, journal open.
const Corpora& SeededCorpora() {
  static const Corpora corpora = [] {
    const std::string path = ::testing::TempDir() + "journal_fuzz." +
                             std::to_string(::getpid()) + ".log";
    EXPECT_TRUE(Journal::Global().Open(path).ok());
    telemetry::FlightRecorder::Global().Clear();
    telemetry::SetFlightRecorderEnabled(true);
    {
      core::FLSystemConfig config;
      config.seed = 4242;
      config.population.device_count = 150;
      config.population.mean_examples_per_sec = 200;
      config.selector_count = 3;
      config.coordinator_tick = Seconds(10);
      config.stats_bucket = Minutes(10);
      config.pace.rendezvous_period = Minutes(3);
      protocol::RoundConfig rc;
      rc.goal_count = 10;
      rc.overselection = 1.3;
      rc.selection_timeout = Minutes(4);
      rc.min_selection_fraction = 0.5;
      rc.reporting_deadline = Minutes(8);
      rc.min_reporting_fraction = 0.5;
      rc.devices_per_aggregator = 8;
      core::FLSystem system(config);
      Rng model_rng(1);
      system.AddTrainingTask("train",
                             graph::BuildLogisticRegression(8, 4, model_rng),
                             {}, {}, rc, Seconds(30));
      auto blobs = std::make_shared<data::BlobsWorkload>(
          data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
      system.ProvisionData([blobs](const sim::DeviceProfile& profile,
                                   core::DeviceAgent& agent, Rng&,
                                   SimTime now) {
        agent.GetOrCreateStore("default").AddBatch(
            blobs->UserExamples(profile.id.value, 40, now));
      });
      system.Start();
      system.RunFor(Hours(2));
    }
    Journal::Global().Close();
    Corpora out;
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    out.journal = buf.str();
    out.flight_dump = FlightDumpText();
    std::remove(path.c_str());
    return out;
  }();
  return corpora;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

// A window of whole lines starting at a random line.
std::string Window(const std::vector<std::string>& lines, std::size_t n,
                   Rng& rng) {
  const std::size_t start =
      lines.size() > n ? rng.UniformInt(lines.size() - n) : 0;
  std::string out = Journal::kHeader;
  out += '\n';
  for (std::size_t i = start; i < lines.size() && i < start + n; ++i) {
    out += lines[i];
    out += '\n';
  }
  return out;
}

constexpr const char* kHostileNumbers[] = {
    "-1",
    "-9223372036854775808",
    "9223372036854775807",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999999",
    "-0",
    "+5",
};

// Replaces one numeric token (ids, times, k=v values) with a hostile one.
void ReplaceNumber(std::string& text, Rng& rng) {
  if (text.empty()) return;
  std::size_t pos = rng.UniformInt(text.size());
  while (pos < text.size() && (text[pos] < '0' || text[pos] > '9')) ++pos;
  if (pos == text.size()) return;
  std::size_t end = pos;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  text.replace(pos, end - pos,
               kHostileNumbers[rng.UniformInt(std::size(kHostileNumbers))]);
}

std::string Mutate(std::string text, const std::string& other, Rng& rng) {
  const int rounds = 1 + static_cast<int>(rng.UniformInt(3));
  for (int r = 0; r < rounds; ++r) {
    switch (rng.UniformInt(5)) {
      case 0: {  // bit flips
        const int flips = 1 + static_cast<int>(rng.UniformInt(8));
        for (int f = 0; f < flips && !text.empty(); ++f) {
          text[rng.UniformInt(text.size())] ^=
              static_cast<char>(1u << rng.UniformInt(8));
        }
        break;
      }
      case 1:  // truncation
        text.resize(rng.UniformInt(text.size() + 1));
        break;
      case 2:  // splice: a prefix of this corpus, a suffix of the other
        text.resize(rng.UniformInt(text.size() + 1));
        text += other.substr(rng.UniformInt(other.size() + 1));
        break;
      case 3: {  // huge / negative integers
        const int n = 1 + static_cast<int>(rng.UniformInt(6));
        for (int k = 0; k < n; ++k) ReplaceNumber(text, rng);
        break;
      }
      default: {  // stray backslashes, including at line ends
        const int n = 1 + static_cast<int>(rng.UniformInt(6));
        for (int k = 0; k < n; ++k) {
          std::size_t pos = rng.UniformInt(text.size() + 1);
          if (rng.UniformInt(2) == 0) {
            const std::size_t eol = text.find('\n', pos);
            pos = eol == std::string::npos ? text.size() : eol;
          }
          text.insert(pos, 1, '\\');
        }
        break;
      }
    }
  }
  return text;
}

// A round id the mutated text mentions (critical-path target), or a random
// one.
RoundId SomeRound(const std::string& text, Rng& rng) {
  for (const std::string& line : Lines(text)) {
    const auto rec = JournalRecord::Parse(line);
    if (rec.ok() && rec->round.value != 0 && rng.UniformInt(4) == 0) {
      return rec->round;
    }
  }
  return RoundId{rng.Next()};
}

TEST(JournalFuzzTest, UnmutatedLinesRoundTrip) {
  const Corpora& corpora = SeededCorpora();
  std::size_t checked = 0;
  for (const std::string* text : {&corpora.journal, &corpora.flight_dump}) {
    for (const std::string& line : Lines(*text)) {
      if (line.empty() || line.front() == '#') continue;
      const auto rec = JournalRecord::Parse(line);
      ASSERT_TRUE(rec.ok()) << line;
      EXPECT_EQ(rec->Serialize(), line);
      const auto event = ParseLifecycleLine(line);
      ASSERT_TRUE(event.ok()) << line << ": " << event.status().ToString();
      EXPECT_EQ(RenderJournalRecord(event->event, event->wall_us).Serialize(),
                line);
      ++checked;
    }
  }
  EXPECT_GT(checked, 20000u);  // the whole golden journal plus the dump
  const tools::AnalysisReport report = tools::AnalyzeJournal(corpora.journal);
  EXPECT_EQ(report.parse_errors, 0u);
  EXPECT_TRUE(report.violations.empty()) << tools::RenderViolations(report);
}

TEST(JournalFuzzTest, MutatedCorporaNeverCrashTheParsers) {
  const Corpora& corpora = SeededCorpora();
  const std::vector<std::string> journal_lines = Lines(corpora.journal);
  const std::vector<std::string> dump_lines = Lines(corpora.flight_dump);
  Rng rng(0x6a6f75726e616cULL);  // "journal"
  std::size_t parsed = 0;
  std::size_t rendered_back = 0;
  for (int iter = 0; iter < 500; ++iter) {
    const bool from_dump = rng.UniformInt(3) == 0;
    const std::string base =
        Window(from_dump ? dump_lines : journal_lines, 300, rng);
    const std::string other =
        Window(from_dump ? journal_lines : dump_lines, 50, rng);
    const std::string text = Mutate(base, other, rng);

    for (const std::string& line : Lines(text)) {
      // The event parser is the renderer's inverse: what it accepts renders
      // back to the same bytes.
      const auto event = ParseLifecycleLine(line);
      if (event.ok()) {
        ++rendered_back;
        EXPECT_EQ(
            RenderJournalRecord(event->event, event->wall_us).Serialize(),
            line);
      }
      const auto rec = JournalRecord::Parse(line);
      if (!rec.ok()) continue;
      ++parsed;
      // Whatever parses re-serializes into something that parses again.
      const auto again = JournalRecord::Parse(rec->Serialize());
      ASSERT_TRUE(again.ok()) << line;
      EXPECT_EQ(again->detail, rec->detail);
    }
    const tools::AnalysisReport report = tools::AnalyzeJournal(text);
    EXPECT_FALSE(tools::RenderAnalysisReport(report).empty());
    const tools::CriticalPathReport path =
        tools::AnalyzeCriticalPath(text, SomeRound(text, rng));
    EXPECT_FALSE(tools::RenderCriticalPath(path).empty());
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rendered_back, 0u);
}

// One event per journaled kind, with distinct argument values.
std::vector<LifecycleEvent> SampleEvents() {
  std::vector<LifecycleEvent> out;
  const auto kind_count =
      static_cast<int>(JournalEventKind::kSimRoundComplete) + 1;
  for (int k = 0; k < kind_count; ++k) {
    LifecycleEvent e;
    e.t = SimTime{1000 + k};
    e.source = JournalSource::kAggregator;
    e.kind = static_cast<JournalEventKind>(k);
    e.device = DeviceId{7};
    e.session = SessionId{(7ULL << 20) | 3};
    e.round = RoundId{(2ULL << 32) | 5};
    e.a = 11;
    e.b = 22;
    e.c = 33;
    e.d = 44;
    switch (e.kind) {
      case JournalEventKind::kSessionEnd: e.a = 1; break;
      case JournalEventKind::kPhase: e.a = 2; break;
      case JournalEventKind::kReportAccepted:
        e.a = 0;
        e.weight = 40.0;
        e.note = "topk0.25+q8";
        break;
      case JournalEventKind::kCheckinRejected:
        e.reason = FlightReason::kRoundFull;
        break;
      case JournalEventKind::kReportRejected:
        e.reason = FlightReason::kLate;
        break;
      case JournalEventKind::kRoundCommit: e.note = "float32"; break;
      case JournalEventKind::kRoundAbandoned:
        e.reason = FlightReason::kBelowMinReports;
        e.outcome = protocol::RoundOutcome::kAbandonedReporting;
        e.note = "only 3 reports; need 5";
        break;
      case JournalEventKind::kRoundOutcome:
        e.outcome = protocol::RoundOutcome::kCommitted;
        break;
      default: break;
    }
    out.push_back(e);
    if (e.kind == JournalEventKind::kReportAccepted) {
      e.a = 1;  // the SecAgg form
      out.push_back(e);
    }
    if (e.kind == JournalEventKind::kRoundOutcome) {
      e.a = 0;  // a lost round: reason instead of contributors
      e.reason = FlightReason::kMasterLost;
      e.outcome = protocol::RoundOutcome::kFailed;
      out.push_back(e);
    }
  }
  return out;
}

// The fields `e` carries in the journal (ring_only = false) or in the
// flight-ring projection, checked on the event parsed back from its line.
void ExpectCarriedFields(const LifecycleEvent& e, const LifecycleEvent& p,
                         bool ring_only) {
  SCOPED_TRACE(std::string(JournalEventName(e.kind)) +
               (ring_only ? " (ring)" : " (journal)"));
  EXPECT_EQ(p.t, e.t);
  EXPECT_EQ(p.source, e.source);
  EXPECT_EQ(p.kind, e.kind);
  EXPECT_EQ(p.device, e.device);
  EXPECT_EQ(p.session, e.session);
  EXPECT_EQ(p.round, e.round);
  // What only the journal carries reads as 0 / empty from the ring.
  const auto journal = [ring_only](std::uint64_t v) {
    return ring_only ? 0 : v;
  };
  switch (e.kind) {
    case JournalEventKind::kSessionEnd:
      EXPECT_EQ(p.a, 1u);
      break;
    case JournalEventKind::kCheckinRejected:
    case JournalEventKind::kReportRejected:
      EXPECT_EQ(p.reason, e.reason);
      break;
    case JournalEventKind::kRoundOpen:
      EXPECT_EQ(p.a, 11u);
      EXPECT_EQ(p.b, 22u);
      EXPECT_EQ(p.c, journal(33));
      EXPECT_EQ(p.d, journal(44));
      break;
    case JournalEventKind::kPhase:
      EXPECT_STREQ(PhaseName(p.a), "reporting");
      EXPECT_EQ(p.b, journal(22));
      break;
    case JournalEventKind::kReportAccepted:
      EXPECT_EQ(p.a, e.a);
      EXPECT_EQ(p.b, journal(22));
      if (e.a == 0) {
        EXPECT_EQ(p.weight, ring_only ? 0.0 : 40.0);
        EXPECT_EQ(p.note, ring_only ? "" : "topk0.25+q8");
      }
      break;
    case JournalEventKind::kRoundCommit:
      EXPECT_EQ(p.a, 11u);
      EXPECT_EQ(p.b, 22u);
      EXPECT_EQ(p.c, journal(33));
      EXPECT_EQ(p.note, ring_only ? "" : "float32");
      break;
    case JournalEventKind::kRoundAbandoned:
      EXPECT_EQ(p.outcome, protocol::RoundOutcome::kAbandonedReporting);
      EXPECT_EQ(ReasonText(p), ring_only ? "below min_report"
                                         : "only 3 reports; need 5");
      break;
    case JournalEventKind::kRoundOutcome:
      EXPECT_EQ(p.outcome, e.outcome);
      EXPECT_EQ(p.reason, e.reason);
      EXPECT_EQ(p.a,
                e.outcome == protocol::RoundOutcome::kCommitted ? 11u : 0u);
      break;
    case JournalEventKind::kSimRoundStart:
    case JournalEventKind::kSimRoundComplete:
      EXPECT_EQ(p.a, 11u);
      break;
    default:  // device session events and checkin_accepted carry ids only
      EXPECT_EQ(p.a, 0u);
      EXPECT_EQ(p.fields, 0u);
      break;
  }
}

// Parses `line` back into its event, checks that it renders to the same
// bytes and that it carries `e`'s fields.
void ExpectRoundTrip(const LifecycleEvent& e, const std::string& line,
                     bool ring_only) {
  const auto parsed = ParseLifecycleLine(line);
  ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
  EXPECT_EQ(RenderJournalRecord(parsed->event, parsed->wall_us).Serialize(),
            line);
  ExpectCarriedFields(e, parsed->event, ring_only);
}

TEST(JournalFuzzTest, EveryLifecycleKindRoundTripsRenderAndParse) {
  telemetry::SetFlightRecorderEnabled(true);
  for (const LifecycleEvent& e : SampleEvents()) {
    ASSERT_TRUE(IsJournaled(e.kind));
    // Journal form: the rendered line parses back field for field.
    ExpectRoundTrip(e, RenderJournalRecord(e, 0).Serialize(),
                    /*ring_only=*/false);

    // Ring form: Emit() writes the projection; the dump decodes it.
    telemetry::FlightRecorder::Global().Clear();
    Emit(nullptr, e);
    const auto slots = telemetry::FlightRecorder::Global().Snapshot();
    ASSERT_EQ(slots.size(), 1u);
    JournalRecord from_ring;
    ASSERT_TRUE(JournalRecordFromFlight(slots[0], &from_ring));
    ExpectRoundTrip(e, from_ring.Serialize(), /*ring_only=*/true);
  }
  // Reducer-only kinds never reach the ring.
  telemetry::FlightRecorder::Global().Clear();
  Emit(nullptr, {.kind = JournalEventKind::kTraffic, .a = 1});
  EXPECT_TRUE(telemetry::FlightRecorder::Global().Snapshot().empty());
}

}  // namespace
}  // namespace fl::analytics

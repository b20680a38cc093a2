// Determinism golden test: a seeded FLSystem fleet run must reproduce a
// pinned digest and be stable across reruns. The digest is checked at three
// independent layers:
//   1. the event journal (every device/server lifecycle transition with its
//      sim timestamp), CRC32'd with the wall-clock field zeroed,
//   2. the FleetStats round log (outcome, contributors, timing per round),
//   3. the committed model bytes in the model store.
// Any divergence in event *order* cascades into RNG draw order, round
// membership, and model arithmetic, so it cannot hide from all three
// digests. The pinned values are the ones the timer wheel and the original
// binary-heap scheduler agreed on before the heap was retired; a change
// that moves them changes simulated behaviour and must say so.
//
// The FleetStats reductions (check-ins, bytes, participants, Table 1
// shapes, participation samples) are pinned too, and the reducers fed by
// the one lifecycle event stream — FleetStats, the RoundLedger and the
// fl_server_* registry counters — must agree with each other and with an
// offline replay of the journal.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "src/analytics/journal.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"
#include "src/telemetry/metrics.h"
#include "src/tools/log_analyzer.h"
#include "tests/core/fleet_digest.h"

namespace fl::core {
namespace {

FLSystemConfig GoldenConfig() {
  FLSystemConfig config;
  config.seed = 4242;
  config.population.device_count = 150;
  config.population.mean_examples_per_sec = 200;
  config.selector_count = 3;
  config.coordinator_tick = Seconds(10);
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);
  return config;
}

protocol::RoundConfig GoldenRound() {
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

// FleetStats reductions of one run.
struct FleetPins {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t download_bytes = 0;
  std::uint64_t upload_bytes = 0;
  std::size_t completed = 0;
  std::size_t aborted = 0;
  std::size_t dropped = 0;
  std::size_t shapes = 0;
  std::uint32_t shapes_crc = 0;  // "<shape> <count>\n" lines, Ranked() order
  std::size_t participation_samples = 0;

  bool operator==(const FleetPins&) const = default;
};

struct RunDigest {
  std::uint32_t journal_crc = 0;
  std::uint32_t round_log_crc = 0;
  std::uint32_t model_crc = 0;
  std::uint64_t journal_lines = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::size_t rounds_committed = 0;
  FleetPins fleet;
  // Offline replay of the journal (tools::AnalyzeJournal).
  std::size_t replay_violations = 0;
  bool replay_tally_matches = false;

  bool operator==(const RunDigest&) const = default;
};

FleetPins PinFleet(const FleetStats& stats) {
  FleetPins pins;
  pins.accepted = stats.accepted();
  pins.rejected = stats.rejected();
  pins.errors = stats.errors();
  pins.download_bytes = stats.total_download_bytes();
  pins.upload_bytes = stats.total_upload_bytes();
  for (const auto& [round, counts] : stats.per_round()) {
    pins.completed += counts.completed;
    pins.aborted += counts.aborted;
    pins.dropped += counts.dropped;
  }
  pins.shapes = stats.shapes().total();
  std::string lines;
  for (const auto& [shape, count] : stats.shapes().Ranked()) {
    lines += shape + ' ' + std::to_string(count) + '\n';
  }
  pins.shapes_crc = CrcOfString(lines);
  pins.participation_samples = stats.participation_hist().total();
  return pins;
}

// Runs the golden fleet for two simulated hours with a journal open, calls
// `inspect` on the finished system, then replays the journal offline and
// hands the replay to `replayed`.
RunDigest RunGoldenFleet(
    const protocol::RoundConfig& round,
    const std::function<void(FLSystem&)>& before_start = {},
    const std::function<void(FLSystem&)>& inspect = {},
    const std::function<void(const tools::AnalysisReport&)>& replayed = {}) {
  // Unique per process: tests in this file run concurrently under
  // `ctest -j`, and a shared path lets one process's Close()+remove()
  // truncate the other's in-flight journal.
  const std::string path = ::testing::TempDir() + "determinism_golden." +
                           std::to_string(::getpid()) + ".log";
  EXPECT_TRUE(analytics::Journal::Global().Open(path).ok());

  RunDigest digest;
  analytics::SessionShapeTally live_tally;
  {
    FLSystem system(GoldenConfig());
    Rng model_rng(1);
    plan::TrainingHyperparams hyper;
    hyper.learning_rate = 0.3f;
    hyper.epochs = 2;
    system.AddTrainingTask("train",
                           graph::BuildLogisticRegression(8, 4, model_rng),
                           hyper, {}, round, Seconds(30));
    auto blobs = std::make_shared<data::BlobsWorkload>(
        data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
    system.ProvisionData([blobs](const sim::DeviceProfile& profile,
                                 DeviceAgent& agent, Rng& rng, SimTime now) {
      (void)rng;
      agent.GetOrCreateStore("default").AddBatch(
          blobs->UserExamples(profile.id.value, 40, now));
    });
    if (before_start) before_start(system);
    system.Start();
    system.RunFor(Hours(2));

    digest.round_log_crc = RoundLogCrc(system.stats());
    digest.model_crc = ModelPayloadCrc(system.model_store());
    digest.rounds_committed = system.stats().rounds_committed();
    digest.events_fired = system.queue().stats().fired;
    digest.events_scheduled = system.queue().stats().scheduled;
    digest.events_cancelled = system.queue().stats().cancelled;
    digest.fleet = PinFleet(system.stats());
    live_tally = system.stats().shapes();
    if (inspect) inspect(system);
  }
  analytics::Journal::Global().Close();
  digest.journal_crc = JournalCrc(path, &digest.journal_lines);
  const auto replay = tools::AnalyzeJournalFile(path);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  if (replay.ok()) {
    digest.replay_violations = replay->violations.size();
    digest.replay_tally_matches =
        replay->tally.total() == live_tally.total() &&
        replay->tally.Ranked() == live_tally.Ranked();
    EXPECT_EQ(replay->parse_errors, 0u);
    EXPECT_TRUE(replay->violations.empty())
        << tools::RenderViolations(*replay);
    if (replayed) replayed(*replay);
  }
  std::remove(path.c_str());
  return digest;
}

RunDigest RunSeededFleet() { return RunGoldenFleet(GoldenRound()); }

TEST(DeterminismGoldenTest, SeededFleetMatchesPinnedDigest) {
  // Its 8 -> 4 logistic regression is below the training pool cutoff: the
  // golden fleet starts no thread.
  const RunDigest run = RunGoldenFleet(GoldenRound(), [](FLSystem& system) {
    EXPECT_EQ(system.compute_pool(), nullptr);
  });
  EXPECT_EQ(run.journal_crc, 0x20d7c1d1u);
  EXPECT_EQ(run.round_log_crc, 0xf85b4f26u);
  EXPECT_EQ(run.model_crc, 0xf83a9b85u);
  EXPECT_EQ(run.journal_lines, 20227u);
  EXPECT_EQ(run.events_fired, 36298u);
  EXPECT_EQ(run.events_scheduled, 36982u);
  EXPECT_EQ(run.events_cancelled, 0u);
  EXPECT_EQ(run.rounds_committed, 153u);

  EXPECT_EQ(run.fleet.accepted, 1994u);
  EXPECT_EQ(run.fleet.rejected, 415u);
  EXPECT_EQ(run.fleet.errors, 0u);
  EXPECT_EQ(run.fleet.download_bytes, 580788u);
  EXPECT_EQ(run.fleet.upload_bytes, 436518u);
  EXPECT_EQ(run.fleet.completed, 1530u);
  EXPECT_EQ(run.fleet.aborted, 349u);
  EXPECT_EQ(run.fleet.dropped, 40u);
  EXPECT_EQ(run.fleet.shapes, 1963u);
  EXPECT_EQ(run.fleet.shapes_crc, 0xc4b1e6e9u);
  EXPECT_EQ(run.fleet.participation_samples, 1919u);

  EXPECT_EQ(run.replay_violations, 0u);
  EXPECT_TRUE(run.replay_tally_matches);
}

// FleetStats, the /rounds ledger and the fl_server_* registry counters are
// reducers over the same events, so per-outcome totals must agree. (Before
// the single event stream, device-observed drops and failed-upload bytes
// bypassed the ledger and the registry: they read 0 drops and 432 170
// upload bytes here.)
TEST(DeterminismGoldenTest, ReducersAgreeOnParticipantsAndUploadBytes) {
  telemetry::SetEnabled(true);
  telemetry::MetricsRegistry::Global().ResetValuesForTest();
  std::size_t ledger_completed = 0;
  std::size_t ledger_dropped = 0;
  std::size_t ledger_rounds = 0;
  const RunDigest run = RunGoldenFleet(
      GoldenRound(),
      [](FLSystem& system) { system.round_ledger().set_enabled(true); },
      [&](FLSystem& system) {
        for (const analytics::RoundRecord& r : system.round_ledger().Recent()) {
          ledger_completed += r.completed;
          ledger_dropped += r.dropped;
          ++ledger_rounds;
        }
      });
  telemetry::SetEnabled(false);
  // Every round finished inside the ledger's window.
  EXPECT_EQ(ledger_rounds, run.rounds_committed);

  EXPECT_EQ(run.fleet.dropped, 40u);
  EXPECT_EQ(ledger_dropped, 40u);
  EXPECT_EQ(run.fleet.completed, 1530u);
  EXPECT_EQ(ledger_completed, 1530u);
  EXPECT_EQ(run.fleet.upload_bytes, 436518u);

  if (!telemetry::kCompiledIn) return;  // no registry to compare
  const auto snap = telemetry::MetricsRegistry::Global().Snapshot();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto* c = snap.FindCounter(name);
    return c == nullptr ? 0 : c->value;
  };
  EXPECT_EQ(counter("fl_server_participants_dropped_total"), 40u);
  EXPECT_EQ(counter("fl_server_participants_completed_total"), 1530u);
  EXPECT_EQ(counter("fl_server_upload_bytes_total"), 436518u);
}

// FleetStats, the /rounds ledger and fl_analyze fold the same events through
// the one FoldRound(), so every finished round's live record equals the
// record rebuilt from the journal alone, on every field the journal
// carries. Only participant outcomes that are never journaled (device drops,
// aggregator-closed participants) are live-only. The selection and round
// durations come from the record's spans on both sides; the pinned round-log
// CRC shows they equal the times the coordinator reports.
TEST(DeterminismGoldenTest, LiveRoundRecordsEqualJournalReplay) {
  std::vector<analytics::RoundRecord> live;
  std::vector<analytics::RoundRecord> ledger;
  std::vector<analytics::RoundRecord> replayed;
  RunGoldenFleet(
      GoldenRound(),
      [](FLSystem& system) { system.round_ledger().set_enabled(true); },
      [&](FLSystem& system) {
        live.assign(system.stats().round_log().begin(),
                    system.stats().round_log().end());
        ledger = system.round_ledger().Recent();
      },
      [&](const tools::AnalysisReport& report) { replayed = report.rounds; });
  ASSERT_EQ(live.size(), 153u);

  // The ledger keeps the same records, newest first.
  ASSERT_EQ(ledger.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(ledger[live.size() - 1 - i], live[i]) << "round " << i;
  }

  std::map<RoundId, analytics::RoundRecord> by_id;
  std::size_t finished = 0;
  for (analytics::RoundRecord& r : replayed) {
    if (r.finished_at.millis != 0) ++finished;
    by_id[r.round] = r;
  }
  EXPECT_EQ(finished, live.size());
  const auto journaled = [](analytics::RoundRecord r) {
    r.completed = r.aborted = r.dropped = r.rejected_late = 0;
    return r;
  };
  for (const analytics::RoundRecord& r : live) {
    SCOPED_TRACE("round " + std::to_string(r.round.value));
    const auto it = by_id.find(r.round);
    ASSERT_NE(it, by_id.end());
    EXPECT_EQ(journaled(it->second), journaled(r));
    EXPECT_TRUE(r.has_timing);
    EXPECT_GT(r.round_duration, r.selection_duration);
  }
}

// fl_analyze --check beyond the plain path: the golden fleet's journal under
// Secure Aggregation and under the 8-bit update codec replays cleanly and
// reproduces the live Table 1 tally.
//
// The secure run's digests are pinned too. Its LR vectors are tens of words
// over 8-device Aggregators, far below the mask work that repays a
// ParallelFor, so the fleet starts no SecAgg compute pool.
TEST(DeterminismGoldenTest, SecAggJournalReplaysClean) {
  protocol::RoundConfig rc = GoldenRound();
  rc.aggregation = protocol::AggregationMode::kSecure;
  const RunDigest run = RunGoldenFleet(rc, [](FLSystem& system) {
    EXPECT_EQ(system.compute_pool(), nullptr);
  });
  EXPECT_EQ(run.journal_crc, 0x9fda9551u);
  EXPECT_EQ(run.round_log_crc, 0xef9f2d5cu);
  EXPECT_EQ(run.model_crc, 0xa51c4697u);
  EXPECT_EQ(run.journal_lines, 12318u);
  EXPECT_EQ(run.rounds_committed, 20u);
  EXPECT_EQ(run.replay_violations, 0u);
  EXPECT_TRUE(run.replay_tally_matches);
  EXPECT_EQ(run.fleet.shapes, 284u);
}

TEST(DeterminismGoldenTest, CodecJournalReplaysClean) {
  protocol::RoundConfig rc = GoldenRound();
  rc.codec.quant_bits = 8;
  const RunDigest run = RunGoldenFleet(rc);
  EXPECT_EQ(run.replay_violations, 0u);
  EXPECT_TRUE(run.replay_tally_matches);
  EXPECT_EQ(run.fleet.shapes, 1958u);
}

TEST(DeterminismGoldenTest, SeededFleetIsStableAcrossReruns) {
  EXPECT_EQ(RunSeededFleet(), RunSeededFleet());
}

}  // namespace
}  // namespace fl::core

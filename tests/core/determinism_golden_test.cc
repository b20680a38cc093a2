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
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/analytics/journal.h"
#include "src/common/crc32.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"

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

struct RunDigest {
  std::uint32_t journal_crc = 0;
  std::uint32_t round_log_crc = 0;
  std::uint32_t model_crc = 0;
  std::uint64_t journal_lines = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::size_t rounds_committed = 0;

  bool operator==(const RunDigest&) const = default;
};

std::uint32_t CrcOfString(const std::string& s) {
  return Crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

// CRC32 over the journal with the (non-deterministic) wall-clock field
// zeroed: parse each record, clear wall_us, re-serialize.
std::uint32_t JournalCrc(const std::string& path, std::uint64_t* lines) {
  std::ifstream in(path);
  std::string line;
  std::string canonical;
  *lines = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto rec = analytics::JournalRecord::Parse(line);
    EXPECT_TRUE(rec.ok()) << line;
    if (!rec.ok()) continue;
    rec->wall_us = 0;
    canonical += rec->Serialize();
    canonical += '\n';
    ++*lines;
  }
  return CrcOfString(canonical);
}

RunDigest RunSeededFleet() {
  // Unique per process: both tests in this file run concurrently under
  // `ctest -j`, and a shared path lets one process's Close()+remove()
  // truncate the other's in-flight journal.
  const std::string path = ::testing::TempDir() + "determinism_golden." +
                           std::to_string(::getpid()) + ".log";
  EXPECT_TRUE(analytics::Journal::Global().Open(path).ok());

  RunDigest digest;
  {
    FLSystem system(GoldenConfig());
    Rng model_rng(1);
    plan::TrainingHyperparams hyper;
    hyper.learning_rate = 0.3f;
    hyper.epochs = 2;
    system.AddTrainingTask("train",
                           graph::BuildLogisticRegression(8, 4, model_rng),
                           hyper, {}, GoldenRound(), Seconds(30));
    auto blobs = std::make_shared<data::BlobsWorkload>(
        data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
    system.ProvisionData([blobs](const sim::DeviceProfile& profile,
                                 DeviceAgent& agent, Rng& rng, SimTime now) {
      (void)rng;
      agent.GetOrCreateStore("default").AddBatch(
          blobs->UserExamples(profile.id.value, 40, now));
    });
    system.Start();
    system.RunFor(Hours(2));

    std::ostringstream rounds;
    for (const auto& r : system.stats().round_log()) {
      rounds << r.round.value << ' ' << r.at.millis << ' '
             << static_cast<int>(r.outcome) << ' ' << r.contributors << ' '
             << r.selection_duration.millis << ' ' << r.round_duration.millis
             << '\n';
    }
    digest.round_log_crc = CrcOfString(rounds.str());
    const Bytes model_bytes = system.model_store().Latest().Serialize();
    digest.model_crc = Crc32(model_bytes);
    digest.rounds_committed = system.stats().rounds_committed();
    digest.events_fired = system.queue().stats().fired;
    digest.events_scheduled = system.queue().stats().scheduled;
    digest.events_cancelled = system.queue().stats().cancelled;
  }
  analytics::Journal::Global().Close();
  digest.journal_crc = JournalCrc(path, &digest.journal_lines);
  std::remove(path.c_str());
  return digest;
}

TEST(DeterminismGoldenTest, SeededFleetMatchesPinnedDigest) {
  const RunDigest run = RunSeededFleet();
  EXPECT_EQ(run.journal_crc, 0x20d7c1d1u);
  EXPECT_EQ(run.round_log_crc, 0xf85b4f26u);
  EXPECT_EQ(run.model_crc, 0x2144df1cu);
  EXPECT_EQ(run.journal_lines, 20227u);
  EXPECT_EQ(run.events_fired, 36298u);
  EXPECT_EQ(run.events_scheduled, 36982u);
  EXPECT_EQ(run.events_cancelled, 0u);
  EXPECT_EQ(run.rounds_committed, 153u);
}

TEST(DeterminismGoldenTest, SeededFleetIsStableAcrossReruns) {
  EXPECT_EQ(RunSeededFleet(), RunSeededFleet());
}

}  // namespace
}  // namespace fl::core

// A next-word-LM fleet whose per-update training work is above FLSystem's
// pool cutoff, with a plain task and a top-k + int8 codec task, so every
// client update runs as a compute-pool job that the device collects when
// its training ends. The pinned digests were recorded on the serial path,
// before training left the event loop: the jobs must reproduce them bit for
// bit at any hardware_concurrency, and the journal must replay with no
// violation. Small-model fleets stay below the cutoff and start no pool.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>

#include "src/core/fl_system.h"
#include "src/data/text.h"
#include "src/graph/model_zoo.h"
#include "src/tools/log_analyzer.h"
#include "tests/core/fleet_digest.h"

namespace fl::core {
namespace {

FLSystemConfig LmFleetConfig() {
  FLSystemConfig config;
  config.seed = 2525;
  config.population.device_count = 1000;
  config.selector_count = 2;
  config.coordinator_tick = Seconds(10);
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);
  return config;
}

protocol::RoundConfig LmRound() {
  protocol::RoundConfig rc;
  rc.goal_count = 16;
  rc.overselection = 1.3;
  rc.selection_timeout = Minutes(4);
  rc.min_selection_fraction = 0.5;
  rc.reporting_deadline = Minutes(8);
  rc.min_reporting_fraction = 0.5;
  rc.devices_per_aggregator = 8;
  return rc;
}

struct LmDigest {
  std::uint32_t journal_crc = 0;
  std::uint32_t round_log_crc = 0;
  std::uint32_t model_crc = 0;
  std::uint64_t journal_lines = 0;
  std::size_t rounds_committed = 0;
};

TEST(PooledTrainingFleetTest, PlainAndCodecTasksMatchSerialDigest) {
  const std::string path = ::testing::TempDir() + "pooled_training." +
                           std::to_string(::getpid()) + ".log";
  ASSERT_TRUE(analytics::Journal::Global().Open(path).ok());
  LmDigest run;
  std::atomic<std::uint64_t> pool_tasks{0};
  std::size_t workers = 0;
  {
    FLSystem system(LmFleetConfig());
    Rng model_rng(21);
    const graph::Model model =
        graph::BuildNextWordModel(64, 3, 16, 64, model_rng);
    plan::TrainingHyperparams hyper;
    hyper.batch_size = 32;
    hyper.epochs = 1;
    hyper.learning_rate = 0.4f;
    system.AddTrainingTask("plain_lm", model, hyper, {}, LmRound(),
                           Seconds(30));
    protocol::RoundConfig codec = LmRound();
    codec.codec.topk_fraction = 0.25;
    codec.codec.quant_bits = 8;
    system.AddTrainingTask("codec_lm", model, hyper, {}, codec, Seconds(30));
    data::TextWorkloadParams params;
    params.vocab_size = 64;
    params.context = 3;
    auto text = std::make_shared<data::TextWorkload>(params, 22);
    system.ProvisionData([text](const sim::DeviceProfile& profile,
                                DeviceAgent& agent, Rng&, SimTime now) {
      agent.GetOrCreateStore("default").AddBatch(
          text->UserExamples(profile.id.value, 5, now));
    });
    ASSERT_NE(system.compute_pool(), nullptr);
    workers = system.compute_pool()->size();
    system.compute_pool()->SetQueueWaitObserver(
        [&](std::int64_t) { pool_tasks.fetch_add(1); });
    system.Start();
    system.RunFor(Hours(1));

    run.round_log_crc = RoundLogCrc(system.stats());
    run.model_crc = ModelPayloadCrc(system.model_store());
    run.rounds_committed = system.stats().rounds_committed();
  }
  analytics::Journal::Global().Close();
  run.journal_crc = JournalCrc(path, &run.journal_lines);
  const auto replay = tools::AnalyzeJournalFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->parse_errors, 0u);
  EXPECT_TRUE(replay->violations.empty()) << tools::RenderViolations(*replay);

  EXPECT_EQ(run.journal_crc, 0x4fbb264cu);
  EXPECT_EQ(run.round_log_crc, 0x565c6a0bu);
  EXPECT_EQ(run.model_crc, 0xa12cb4f7u);
  EXPECT_EQ(run.journal_lines, 36315u);
  EXPECT_EQ(run.rounds_committed, 167u);
  // With a worker to hand to, training jobs did reach the pool.
  if (workers > 0) {
    EXPECT_GT(pool_tasks.load(), 0u);
  }
}

// perfbench's fleet_plain task: a logistic regression whose updates cost
// microseconds stays on the event loop and starts no thread.
TEST(PooledTrainingFleetTest, PlainShapedFleetStartsNoComputePool) {
  FLSystemConfig config;
  config.population.device_count = 10;
  FLSystem system(config);
  Rng model_rng(1);
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.2f;
  hyper.epochs = 1;
  protocol::RoundConfig rc;
  rc.goal_count = 25;
  rc.devices_per_aggregator = 20;
  system.AddTrainingTask("train",
                         graph::BuildLogisticRegression(8, 4, model_rng),
                         hyper, {}, rc, Seconds(30));
  EXPECT_EQ(system.compute_pool(), nullptr);
}

}  // namespace
}  // namespace fl::core

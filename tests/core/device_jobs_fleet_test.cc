// A secure + codec next-word-LM fleet whose devices lose eligibility every
// few minutes, so sessions end while their device jobs are in flight: the
// plan job (training and the upload encode) and the SecAgg client's share,
// mask and unmask jobs. A session that ends drops its handles without
// blocking, and nothing reads a dropped job's result. The pinned digests
// were recorded before those computations left the event loop: the jobs
// must reproduce them bit for bit at any hardware_concurrency, and the
// journal must replay with no violation.
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

FLSystemConfig ChurningFleetConfig() {
  FLSystemConfig config;
  config.seed = 2626;
  config.population.device_count = 4000;
  // Minutes of eligibility at a time, and training that takes about a
  // minute (5 examples x 2 epochs at 0.2 examples/s on average): 108
  // sessions end mid-training and 56 after it.
  config.population.mean_eligible_day = Minutes(5);
  config.population.mean_eligible_night = Minutes(10);
  config.population.mean_examples_per_sec = 0.2;
  config.selector_count = 2;
  config.coordinator_tick = Seconds(10);
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);
  return config;
}

protocol::RoundConfig LmRound() {
  protocol::RoundConfig rc;
  rc.goal_count = 32;
  rc.overselection = 1.3;
  rc.selection_timeout = Minutes(4);
  rc.min_selection_fraction = 0.5;
  rc.reporting_deadline = Minutes(8);
  rc.min_reporting_fraction = 0.5;
  rc.devices_per_aggregator = 32;
  return rc;
}

TEST(DeviceJobsFleetTest, InterruptedJobsMatchSerialDigest) {
  const std::string path = ::testing::TempDir() + "device_jobs." +
                           std::to_string(::getpid()) + ".log";
  ASSERT_TRUE(analytics::Journal::Global().Open(path).ok());
  std::uint32_t round_log_crc = 0;
  std::uint32_t model_crc = 0;
  std::size_t rounds_committed = 0;
  std::size_t cut_in_training = 0;  // shapes like "-v[!"
  std::size_t cut_after_training = 0;  // "-v[]!", "-v[]+!"
  std::atomic<std::uint64_t> pool_tasks{0};
  std::size_t workers = 0;
  {
    FLSystem system(ChurningFleetConfig());
    Rng model_rng(26);
    const graph::Model model =
        graph::BuildNextWordModel(64, 3, 16, 64, model_rng);
    plan::TrainingHyperparams hyper;
    hyper.batch_size = 32;
    hyper.epochs = 2;
    hyper.learning_rate = 0.4f;
    protocol::RoundConfig secure = LmRound();
    secure.aggregation = protocol::AggregationMode::kSecure;
    system.AddTrainingTask("secure_lm", model, hyper, {}, secure,
                           Seconds(30));
    protocol::RoundConfig codec = LmRound();
    codec.codec.topk_fraction = 0.25;
    codec.codec.quant_bits = 8;
    system.AddTrainingTask("codec_lm", model, hyper, {}, codec, Seconds(30));
    data::TextWorkloadParams params;
    params.vocab_size = 64;
    params.context = 3;
    auto text = std::make_shared<data::TextWorkload>(params, 27);
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
    system.RunFor(Hours(2));

    round_log_crc = RoundLogCrc(system.stats());
    model_crc = ModelPayloadCrc(system.model_store());
    rounds_committed = system.stats().rounds_committed();
    for (const auto& [shape, count] : system.stats().shapes().Ranked()) {
      if (shape.empty() || shape.back() != '!') continue;
      if (shape.find(']') != std::string::npos) {
        cut_after_training += count;
      } else if (shape.find('[') != std::string::npos) {
        cut_in_training += count;
      }
    }
  }
  analytics::Journal::Global().Close();
  std::uint64_t journal_lines = 0;
  const std::uint32_t journal_crc = JournalCrc(path, &journal_lines);
  const auto replay = tools::AnalyzeJournalFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->parse_errors, 0u);
  EXPECT_TRUE(replay->violations.empty()) << tools::RenderViolations(*replay);

  // Sessions did end with their jobs in flight.
  EXPECT_GT(cut_in_training, 0u);
  EXPECT_GT(cut_after_training, 0u);
  EXPECT_EQ(journal_crc, 0x5681efe9u);
  EXPECT_EQ(round_log_crc, 0x4800d9ceu);
  EXPECT_EQ(model_crc, 0x2a5438ebu);
  EXPECT_EQ(journal_lines, 70136u);
  EXPECT_EQ(rounds_committed, 9u);
  if (workers > 0) {
    EXPECT_GT(pool_tasks.load(), 0u);
  }
}

}  // namespace
}  // namespace fl::core

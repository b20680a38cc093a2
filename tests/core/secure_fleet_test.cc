// A secure next-word-LM fleet large enough that FLSystem starts its SecAgg
// compute pool and hands it to every client's MaskInput and every
// Aggregator's Finalize (8 321 masked words x 32-device Aggregators). The
// pinned digests were measured on the serial path, before the fleet had a
// pool: the fan-out must reproduce them bit for bit at any
// hardware_concurrency, and the journal must replay with no violation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/analytics/journal.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/data/text.h"
#include "src/graph/model_zoo.h"
#include "src/telemetry/trace.h"
#include "src/tools/log_analyzer.h"
#include "tests/core/fleet_digest.h"

namespace fl::core {
namespace {

constexpr std::size_t kCohort = 32;

FLSystemConfig SecureFleetConfig() {
  FLSystemConfig config;
  config.seed = 2020;
  config.population.device_count = 2000;
  config.selector_count = 2;
  config.coordinator_tick = Seconds(10);
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);
  return config;
}

protocol::RoundConfig SecureLmRound() {
  protocol::RoundConfig rc;
  rc.goal_count = kCohort;
  rc.overselection = 1.3;
  rc.selection_timeout = Minutes(4);
  rc.min_selection_fraction = 0.5;
  rc.reporting_deadline = Minutes(8);
  rc.min_reporting_fraction = 0.5;
  rc.devices_per_aggregator = kCohort;
  rc.aggregation = protocol::AggregationMode::kSecure;
  return rc;
}

struct SecureDigest {
  std::uint32_t journal_crc = 0;
  std::uint32_t round_log_crc = 0;
  std::uint32_t model_crc = 0;
  std::uint64_t journal_lines = 0;
  std::size_t rounds_committed = 0;
  std::size_t replay_violations = 0;
};

// Runs the fleet for one simulated hour with a journal open; `before_start`
// sees the configured system, then the journal is replayed offline.
SecureDigest RunSecureLmFleet(
    const std::function<void(FLSystem&)>& before_start = {}) {
  const std::string path = ::testing::TempDir() + "secure_fleet." +
                           std::to_string(::getpid()) + ".log";
  EXPECT_TRUE(analytics::Journal::Global().Open(path).ok());

  SecureDigest digest;
  {
    FLSystem system(SecureFleetConfig());
    Rng model_rng(11);
    const graph::Model model =
        graph::BuildNextWordModel(64, 3, 16, 64, model_rng);
    plan::TrainingHyperparams hyper;
    hyper.batch_size = 32;
    hyper.epochs = 1;
    hyper.learning_rate = 0.4f;
    system.AddTrainingTask("secure_lm", model, hyper, {}, SecureLmRound(),
                           Seconds(30));
    data::TextWorkloadParams params;
    params.vocab_size = 64;
    params.context = 3;
    auto text = std::make_shared<data::TextWorkload>(params, 12);
    system.ProvisionData([text](const sim::DeviceProfile& profile,
                                DeviceAgent& agent, Rng&, SimTime now) {
      agent.GetOrCreateStore("default").AddBatch(
          text->UserExamples(profile.id.value, 5, now));
    });
    if (before_start) before_start(system);
    system.Start();
    system.RunFor(Hours(1));

    digest.round_log_crc = RoundLogCrc(system.stats());
    digest.model_crc = ModelPayloadCrc(system.model_store());
    digest.rounds_committed = system.stats().rounds_committed();
  }
  analytics::Journal::Global().Close();
  digest.journal_crc = JournalCrc(path, &digest.journal_lines);
  const auto replay = tools::AnalyzeJournalFile(path);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  if (replay.ok()) {
    digest.replay_violations = replay->violations.size();
    EXPECT_EQ(replay->parse_errors, 0u);
    EXPECT_TRUE(replay->violations.empty())
        << tools::RenderViolations(*replay);
  }
  std::remove(path.c_str());
  return digest;
}

TEST(SecureFleetTest, ParallelSecAggMatchesSerialDigest) {
  std::atomic<std::uint64_t> pool_tasks{0};
  std::size_t workers = 0;
  const SecureDigest run = RunSecureLmFleet([&](FLSystem& system) {
    ASSERT_NE(system.compute_pool(), nullptr);
    workers = system.compute_pool()->size();
    system.compute_pool()->SetQueueWaitObserver(
        [&](std::int64_t) { pool_tasks.fetch_add(1); });
  });
  EXPECT_EQ(run.journal_crc, 0x057c9f7bu);
  EXPECT_EQ(run.round_log_crc, 0x522cb2b3u);
  EXPECT_EQ(run.model_crc, 0x10f70fc7u);
  EXPECT_EQ(run.journal_lines, 19321u);
  EXPECT_EQ(run.rounds_committed, 6u);
  EXPECT_EQ(run.replay_violations, 0u);
  // With a worker to hand to, the masking and unmasking did fan out.
  if (workers > 0) {
    EXPECT_GT(pool_tasks.load(), 0u);
  }
}

// The mask-work rule counts secure tasks only: a plain task with the same
// model and Aggregator size, whose training work (8 321 parameters x 1
// epoch x batch 1) is below the training cutoff, starts no pool.
TEST(SecureFleetTest, PlainFleetStartsNoComputePool) {
  FLSystem system(SecureFleetConfig());
  Rng model_rng(11);
  protocol::RoundConfig rc = SecureLmRound();
  rc.aggregation = protocol::AggregationMode::kSimple;
  plan::TrainingHyperparams hyper;
  hyper.batch_size = 1;
  system.AddTrainingTask("plain_lm",
                         graph::BuildNextWordModel(64, 3, 16, 64, model_rng),
                         hyper, {}, rc);
  EXPECT_EQ(system.compute_pool(), nullptr);
}

// A secure device journals '+' when it sends its masked input and '^' when
// that input is acked, so its session spans the upload like a plain one.
TEST(SecureFleetTest, SecureSessionsSpanTheirMaskedUpload) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::SetEnabled(true);
  telemetry::Tracer::Global().Clear();
  FLSystemConfig config = SecureFleetConfig();
  config.population.device_count = 60;
  protocol::RoundConfig rc = SecureLmRound();
  rc.goal_count = 8;
  rc.devices_per_aggregator = 8;
  {
    FLSystem system(config);
    Rng model_rng(11);
    system.AddTrainingTask("secure_lr",
                           graph::BuildLogisticRegression(8, 4, model_rng),
                           {}, {}, rc, Seconds(30));
    auto blobs = std::make_shared<data::BlobsWorkload>(
        data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
    system.ProvisionData([blobs](const sim::DeviceProfile& profile,
                                 DeviceAgent& agent, Rng&, SimTime now) {
      agent.GetOrCreateStore("default").AddBatch(
          blobs->UserExamples(profile.id.value, 40, now));
    });
    system.Start();
    system.RunFor(Hours(1));
    ASSERT_GT(system.stats().rounds_committed(), 0u);
  }
  const auto spans = telemetry::Tracer::Global().Completed();
  telemetry::Tracer::Global().Clear();
  telemetry::SetEnabled(false);

  std::map<std::uint64_t, std::size_t> uploads;  // by parent session span
  std::size_t completed = 0;
  for (const auto& s : spans) {
    if (s.name == "device_upload") ++uploads[s.parent];
  }
  for (const auto& s : spans) {
    if (s.name != "device_session") continue;
    const bool done = std::find(s.attrs.begin(), s.attrs.end(),
                                std::pair<std::string, std::string>(
                                    "completed", "1")) != s.attrs.end();
    if (!done) continue;
    ++completed;
    EXPECT_EQ(uploads[s.id], 1u) << "session " << s.ctx_session;
  }
  EXPECT_GT(completed, 0u);
}

}  // namespace
}  // namespace fl::core

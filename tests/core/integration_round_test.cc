// Integration tests of multi-task scheduling, evaluation rounds, pipelined
// selection, and Secure Aggregation over the full simulator. Every run is
// journaled and replayed through the offline analyzer (ReplayedJournal).
#include <gtest/gtest.h>

#include "src/core/fl_system.h"
#include "tests/core/journal_replay.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"

namespace fl::core {
namespace {

FLSystemConfig SmallConfig(std::uint64_t seed) {
  FLSystemConfig config;
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

graph::Model TestModel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return graph::BuildLogisticRegression(8, 4, rng);
}

FLSystem::DataProvisioner BlobsProvisioner() {
  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
  return [blobs](const sim::DeviceProfile& profile, DeviceAgent& agent,
                 Rng&, SimTime now) {
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 40, now));
  };
}

TEST(IntegrationTest, TrainAndEvalTasksAlternate) {
  const ReplayedJournal journal;
  FLSystem system(SmallConfig(31));
  const graph::Model model = TestModel();
  system.AddTrainingTask("train", model, {}, {}, SmallRound(), Seconds(30));
  system.AddEvaluationTask("eval", model, {}, SmallRound(), Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(4));

  // Both task kinds committed rounds (Sec. 7.1 task rotation).
  const auto& history = system.model_store().history();
  std::size_t train_rounds = 0, eval_rounds = 0;
  for (const auto& record : history) {
    if (record.task_name == "train") ++train_rounds;
    if (record.task_name == "eval") ++eval_rounds;
  }
  EXPECT_GT(train_rounds, 0u);
  EXPECT_GT(eval_rounds, 0u);
  // Evaluation rounds report metrics...
  bool saw_eval_metrics = false;
  for (const auto& record : history) {
    if (record.task_name == "eval" && record.metrics.count("accuracy")) {
      saw_eval_metrics = true;
    }
  }
  EXPECT_TRUE(saw_eval_metrics);
}

TEST(IntegrationTest, EvalRoundsDoNotMoveTheModel) {
  const ReplayedJournal journal;
  FLSystem system(SmallConfig(33));
  const graph::Model model = TestModel();
  // Evaluation-only deployment: model version advances per commit but the
  // parameters never change.
  system.AddTrainingTask("bootstrap", model, {}, {}, SmallRound(),
                         Hours(100));  // runs at most once early
  system.AddEvaluationTask("eval", model, {}, SmallRound(), Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(2));

  const auto& history = system.model_store().history();
  ASSERT_FALSE(history.empty());
  std::size_t evals = 0;
  for (const auto& r : history) {
    if (r.task_name == "eval") ++evals;
  }
  EXPECT_GT(evals, 0u);
}

TEST(IntegrationTest, MetricsSummariesMaterialized) {
  const ReplayedJournal journal;
  FLSystem system(SmallConfig(35));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(2));
  ASSERT_GT(system.model_store().history().size(), 0u);
  const auto& record = system.model_store().history().front();
  ASSERT_TRUE(record.metrics.count("loss"));
  const auto& loss = record.metrics.at("loss");
  EXPECT_GT(loss.count, 0u);
  EXPECT_GE(loss.max, loss.median);
  EXPECT_GE(loss.median, loss.min);
  EXPECT_GT(record.contributors, 0u);
  // Engineer-facing trajectory access (Sec. 7.4).
  EXPECT_FALSE(system.model_store().MetricHistory("train", "loss").empty());
}

// In both Secure Aggregation runs some devices lose eligibility while they
// wait for the unmask round, after their masked input was acked; the
// replay checks those sessions end completed ('^' then session end), never
// '^' then '!'.
TEST(IntegrationTest, SecureAggregationRoundsCommit) {
  const ReplayedJournal journal;
  FLSystemConfig config = SmallConfig(37);
  FLSystem system(std::move(config));
  protocol::RoundConfig rc = SmallRound();
  rc.aggregation = protocol::AggregationMode::kSecure;
  rc.secagg.min_group_size = 3;
  rc.secagg.threshold_fraction = 0.6;
  rc.secagg.clip = 8.0;
  rc.goal_count = 8;
  rc.devices_per_aggregator = 16;  // one secagg group per round
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.3f;

  system.AddTrainingTask("secure-train", TestModel(), hyper, {}, rc,
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(4));

  EXPECT_GE(system.stats().rounds_committed(), 1u);
  EXPECT_GT(system.model_store().version(), 0u);
  // Secure rounds moved the model meaningfully (quantization is lossy but
  // bounded): weights differ from init.
  Rng rng(1);
  const graph::Model reference = TestModel();
  Checkpoint init = reference.init_params;
  Checkpoint final = system.model_store().Latest();
  ASSERT_TRUE(init.CompatibleWith(final));
  Checkpoint diff = final;
  ASSERT_TRUE(diff.AddInPlace(init, -1.0f).ok());
  double norm = 0;
  for (const auto& [name, t] : diff.tensors()) norm += t.L2Norm();
  EXPECT_GT(norm, 1e-3);
}

TEST(IntegrationTest, SecureModelStillLearns) {
  const ReplayedJournal journal;
  FLSystem system(SmallConfig(39));
  protocol::RoundConfig rc = SmallRound();
  rc.aggregation = protocol::AggregationMode::kSecure;
  rc.secagg.threshold_fraction = 0.6;
  rc.secagg.clip = 8.0;
  rc.goal_count = 8;
  rc.devices_per_aggregator = 16;
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.3f;
  hyper.epochs = 2;
  const graph::Model model = TestModel();
  system.AddTrainingTask("secure-train", model, hyper, {}, rc, Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(5));
  ASSERT_GE(system.stats().rounds_committed(), 2u);

  data::BlobsWorkload blobs({.classes = 4, .feature_dim = 8}, 5);
  const auto eval = blobs.GlobalExamples(77, 300, SimTime{0});
  const plan::FLPlan eval_plan = plan::MakeEvaluationPlan(model, "e", {});
  const auto before = fedavg::RunClientEvaluation(
      eval_plan.device, model.init_params, eval, 3);
  const auto after = fedavg::RunClientEvaluation(
      eval_plan.device, system.model_store().Latest(), eval, 3);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_LT(after->mean_loss, before->mean_loss);
}

TEST(IntegrationTest, PipeliningReducesInterRoundGap) {
  // Sec. 4.3: selection for round i+1 overlaps round i's reporting. With
  // pipelining off, the waiting pool only refills between rounds, so fewer
  // rounds fit in the same wall-clock window.
  auto run = [](bool pipelined) {
    const ReplayedJournal journal;
    FLSystemConfig config = SmallConfig(41);
    config.pipelined_selection = pipelined;
    FLSystem system(std::move(config));
    protocol::RoundConfig rc = SmallRound();
    rc.selection_timeout = Minutes(3);
    FLSystem* sys = &system;
    sys->AddTrainingTask("train", TestModel(), {}, {}, rc, Seconds(10));
    sys->ProvisionData(BlobsProvisioner());
    sys->Start();
    sys->RunFor(Hours(4));
    return sys->stats().rounds_committed();
  };
  const std::size_t with_pipelining = run(true);
  const std::size_t without = run(false);
  EXPECT_GE(with_pipelining, without);
  EXPECT_GT(with_pipelining, 0u);
}

TEST(IntegrationTest, DiurnalParticipationSwing) {
  const ReplayedJournal journal;
  FLSystemConfig config = SmallConfig(43);
  config.population.device_count = 400;
  config.population.tz_weights = {1.0};
  config.population.tz_offsets = {Hours(0)};
  config.stats_bucket = Minutes(30);
  FLSystem system(std::move(config));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(30));

  // Round completions at night (availability peak, 0-4h local) outpace
  // mid-afternoon (12-16h) — the Fig. 5 shape.
  const auto& completions = system.stats().round_completions();
  auto window_sum = [&](double start_h, double end_h) {
    double total = 0;
    for (std::size_t b = 0; b < completions.bucket_count(); ++b) {
      const double hour = completions.BucketStart(b).HourOfDay();
      if (hour >= start_h && hour < end_h) total += completions.Sum(b);
    }
    return total;
  };
  const double night = window_sum(0, 4);
  const double day = window_sum(12, 16);
  EXPECT_GT(night, day);
}

}  // namespace
}  // namespace fl::core

// Determinism contract of the parallel round engine (simulation_runner):
//  * threads=1 is bit-identical to the pre-engine sequential loop,
//  * threads=N is deterministic for a fixed (seed, N) and lands on the same
//    model quality within floating-point merge-order tolerance,
//  * the per-shard Aggregator → Master Aggregator merge survives the
//    all-clients-fail and single-client edge cases.
#include <gtest/gtest.h>

#include "src/data/blobs.h"
#include "src/fedavg/client_update.h"
#include "src/fedavg/server_aggregate.h"
#include "src/tools/simulation_runner.h"

namespace fl::tools {
namespace {

struct ParallelSimFixture : public ::testing::Test {
  void SetUp() override {
    Rng model_rng(1);
    model = graph::BuildLogisticRegression(8, 4, model_rng);
    data::BlobsWorkload blobs({.classes = 4, .feature_dim = 8}, 2);
    for (std::uint64_t u = 0; u < 30; ++u) {
      clients.push_back(blobs.UserExamples(u, 40, SimTime{0}));
    }
    eval = blobs.GlobalExamples(99, 400, SimTime{0});
    plan::TrainingHyperparams hyper;
    hyper.learning_rate = 0.3f;
    hyper.epochs = 2;
    hyper.batch_size = 20;
    plan = plan::MakeTrainingPlan(model, "sim", hyper, {});
  }

  graph::Model model;
  std::vector<std::vector<data::Example>> clients;
  std::vector<data::Example> eval;
  plan::FLPlan plan;
};

// The sequential FedAvg loop as it existed before the parallel engine
// (inline selection, one accumulator fed in selection order). It resampled
// after a failed update where the engine drops it; no update fails in this
// fixture, so both draw the same clients. Golden reference for the
// threads=1 bit-exactness claim.
Result<SimulationResult> ReferenceSequentialFedAvg(
    const plan::FLPlan& plan, const Checkpoint& init,
    const std::vector<std::vector<data::Example>>& client_data,
    const SimulationConfig& config) {
  Rng rng(config.seed);
  SimulationResult result;
  Checkpoint global = init;
  const std::uint32_t runtime = plan.min_runtime_version;
  for (std::size_t round = 1; round <= config.rounds; ++round) {
    fedavg::FedAvgAccumulator acc(plan.server.aggregation, global);
    const std::size_t want = config.clients_per_round;
    std::size_t got = 0;
    double train_loss = 0;
    for (std::size_t attempts = 0; got < want && attempts < want * 4;
         ++attempts) {
      const std::size_t c = rng.UniformInt(client_data.size());
      if (client_data[c].empty()) continue;
      if (rng.Bernoulli(config.client_failure_rate)) continue;
      Rng shuffle = rng.Fork();
      auto update = fedavg::RunClientUpdate(plan.device, global,
                                            client_data[c], runtime, shuffle);
      if (!update.ok()) continue;
      train_loss += update->metrics.mean_loss;
      FL_RETURN_IF_ERROR(acc.Accumulate(std::move(update->weighted_delta),
                                        update->weight, update->metrics));
      ++got;
    }
    if (got == 0) return AbortedError("no client produced an update");
    FL_RETURN_IF_ERROR(acc.FinalizeInPlace(global));
    RoundPoint point;
    point.round = round;
    point.train_loss = train_loss / static_cast<double>(got);
    result.trajectory.push_back(point);
    result.rounds_run = round;
  }
  result.final_model = std::move(global);
  return result;
}

TEST_F(ParallelSimFixture, SingleThreadBitIdenticalToSequentialReference) {
  SimulationConfig config;
  config.clients_per_round = 8;
  config.rounds = 12;
  config.seed = 1234;
  config.eval_every = 0;
  config.client_failure_rate = 0.1;
  config.threads = 1;
  const auto engine =
      RunFedAvgSimulation(plan, model.init_params, clients, eval, config);
  const auto reference =
      ReferenceSequentialFedAvg(plan, model.init_params, clients, config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(engine->final_model, reference->final_model);
  ASSERT_EQ(engine->trajectory.size(), reference->trajectory.size());
  for (std::size_t i = 0; i < engine->trajectory.size(); ++i) {
    EXPECT_EQ(engine->trajectory[i].train_loss,
              reference->trajectory[i].train_loss)
        << "round " << i + 1;
  }
}

TEST_F(ParallelSimFixture, MultiThreadDeterministicForFixedSeedAndThreads) {
  SimulationConfig config;
  config.clients_per_round = 10;
  config.rounds = 8;
  config.seed = 99;
  config.eval_every = 0;
  config.threads = 4;
  const auto a =
      RunFedAvgSimulation(plan, model.init_params, clients, eval, config);
  const auto b =
      RunFedAvgSimulation(plan, model.init_params, clients, eval, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->final_model, b->final_model);
  for (std::size_t i = 0; i < a->trajectory.size(); ++i) {
    EXPECT_EQ(a->trajectory[i].train_loss, b->trajectory[i].train_loss);
  }
}

TEST_F(ParallelSimFixture, MultiThreadMatchesSequentialWithinTolerance) {
  SimulationConfig config;
  config.clients_per_round = 10;
  config.rounds = 40;
  config.eval_every = 40;
  config.seed = 17;
  config.threads = 1;
  const auto seq =
      RunFedAvgSimulation(plan, model.init_params, clients, eval, config);
  config.threads = 4;
  const auto par =
      RunFedAvgSimulation(plan, model.init_params, clients, eval, config);
  ASSERT_TRUE(seq.ok() && par.ok());
  // Same pre-drawn participants; only the float merge order differs, so the
  // trajectories track each other tightly and land at the same quality.
  const auto& seq_last = seq->trajectory.back();
  const auto& par_last = par->trajectory.back();
  ASSERT_TRUE(seq_last.has_eval && par_last.has_eval);
  EXPECT_NEAR(par_last.eval_loss, seq_last.eval_loss, 0.05);
  EXPECT_NEAR(par_last.eval_accuracy, seq_last.eval_accuracy, 0.05);
  EXPECT_GT(par_last.eval_accuracy, 0.6);
}

TEST_F(ParallelSimFixture, AllClientsFailAborts) {
  SimulationConfig config;
  config.clients_per_round = 10;
  config.rounds = 3;
  config.client_failure_rate = 1.0;  // every selection coin comes up drop
  config.threads = 4;
  const auto result =
      RunFedAvgSimulation(plan, model.init_params, clients, eval, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kAborted);
}

TEST_F(ParallelSimFixture, SingleClientWithManyThreads) {
  // More shards requested than candidates available: the engine must clamp
  // to one shard and still produce a valid round.
  std::vector<std::vector<data::Example>> one_client{clients[0]};
  SimulationConfig config;
  config.clients_per_round = 1;
  config.rounds = 5;
  config.eval_every = 0;
  config.threads = 8;
  const auto result =
      RunFedAvgSimulation(plan, model.init_params, one_client, eval, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rounds_run, 5u);
}

TEST_F(ParallelSimFixture, ThreadsLargerThanClientPoolConverges) {
  SimulationConfig config;
  config.clients_per_round = 10;
  config.rounds = 40;
  config.eval_every = 40;
  config.threads = 8;
  const auto result =
      RunFedAvgSimulation(plan, model.init_params, clients, eval, config);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& last = result->trajectory.back();
  ASSERT_TRUE(last.has_eval);
  EXPECT_GT(last.eval_accuracy, 0.6);
}

}  // namespace
}  // namespace fl::tools

#include "src/fedavg/client_update.h"

#include <gtest/gtest.h>

#include <numeric>

#include "src/common/crc32.h"
#include "src/data/blobs.h"
#include "src/data/text.h"
#include "src/graph/model_zoo.h"
#include "src/graph/registry.h"

namespace fl::fedavg {
namespace {

struct Fixture : public ::testing::Test {
  void SetUp() override {
    Rng model_rng(1);
    model = graph::BuildLogisticRegression(8, 4, model_rng);
    data::BlobsWorkload blobs({.classes = 4, .feature_dim = 8}, 3);
    examples = blobs.UserExamples(11, 60, SimTime{0});
  }

  plan::DevicePlan DevicePlan(std::size_t batch, std::size_t epochs,
                              float lr) {
    plan::TrainingHyperparams hyper{batch, epochs, lr};
    return plan::MakeTrainingPlan(model, "t", hyper, {}).device;
  }

  graph::Model model;
  std::vector<data::Example> examples;
  Rng rng{5};
};

TEST_F(Fixture, UpdateWeightEqualsExampleCount) {
  const auto result = RunClientUpdate(DevicePlan(16, 1, 0.1f),
                                      model.init_params, examples, 1, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FLOAT_EQ(result->weight, 60.0f);
  EXPECT_EQ(result->metrics.example_count, 60u);
}

TEST_F(Fixture, DeltaIsWeightTimesParameterChange) {
  // Algorithm 1: Delta = n * (w_final - w_init). Applying Delta/n to w_init
  // must land exactly on w_final.
  Rng fixed(7);
  const auto result = RunClientUpdate(DevicePlan(16, 1, 0.1f),
                                      model.init_params, examples, 1, fixed);
  ASSERT_TRUE(result.ok());
  Checkpoint reconstructed = model.init_params;
  Checkpoint delta = result->weighted_delta;
  delta.Scale(1.0f / result->weight);
  ASSERT_TRUE(reconstructed.AddInPlace(delta).ok());
  // Re-run with identical shuffle seed to obtain w_final directly.
  Rng fixed2(7);
  Checkpoint w = model.init_params;
  const graph::Executor exec(1);
  const plan::DevicePlan dp = DevicePlan(16, 1, 0.1f);
  std::vector<std::size_t> order(examples.size());
  std::iota(order.begin(), order.end(), 0);
  fixed2.Shuffle(order);
  for (std::size_t start = 0; start < order.size(); start += 16) {
    const std::size_t end = std::min(order.size(), start + 16);
    std::vector<data::Example> batch;
    for (std::size_t i = start; i < end; ++i) batch.push_back(examples[order[i]]);
    auto grads = exec.Backward(dp.graph, w, BuildFeeds(dp, batch));
    ASSERT_TRUE(grads.ok());
    ASSERT_TRUE(graph::ApplySgd(w, *grads, 0.1f).ok());
  }
  for (const auto& [name, t] : w.tensors()) {
    const Tensor& r = *(*reconstructed.Get(name));
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_NEAR(t.at(i), r.at(i), 1e-3) << name;
    }
  }
}

TEST_F(Fixture, MultipleEpochsRunMoreBatches) {
  Rng a(1), b(1);
  const auto one = RunClientUpdate(DevicePlan(16, 1, 0.05f),
                                   model.init_params, examples, 1, a);
  const auto three = RunClientUpdate(DevicePlan(16, 3, 0.05f),
                                     model.init_params, examples, 1, b);
  ASSERT_TRUE(one.ok() && three.ok());
  EXPECT_EQ(three->metrics.batches, one->metrics.batches * 3);
}

TEST_F(Fixture, EmptyExamplesRejected) {
  const auto result = RunClientUpdate(DevicePlan(16, 1, 0.1f),
                                      model.init_params, {}, 1, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(Fixture, FedSgdSpecialCase) {
  // epochs=1, batch = all data => exactly one gradient step.
  const auto result = RunClientUpdate(DevicePlan(examples.size(), 1, 0.1f),
                                      model.init_params, examples, 1, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.batches, 1u);
}

TEST_F(Fixture, EvaluationComputesDatasetMeanExactly) {
  const plan::DevicePlan dp =
      plan::MakeEvaluationPlan(model, "e", {}).device;
  const auto m1 =
      RunClientEvaluation(dp, model.init_params, examples, 1);
  ASSERT_TRUE(m1.ok());
  // Evaluating twice yields identical results (no randomness).
  const auto m2 =
      RunClientEvaluation(dp, model.init_params, examples, 1);
  ASSERT_TRUE(m2.ok());
  EXPECT_DOUBLE_EQ(m1->mean_loss, m2->mean_loss);
  EXPECT_DOUBLE_EQ(m1->mean_accuracy, m2->mean_accuracy);
  EXPECT_EQ(m1->example_count, 60u);
}

TEST_F(Fixture, BuildFeedsShapes) {
  const plan::DevicePlan dp = DevicePlan(16, 1, 0.1f);
  const std::vector<data::Example> batch(examples.begin(),
                                         examples.begin() + 5);
  const graph::Feeds feeds = BuildFeeds(dp, batch);
  EXPECT_EQ(feeds.at("features").shape(), (Shape{5, 8}));
  EXPECT_EQ(feeds.at("labels").shape(), (Shape{5, 1}));
}

TEST_F(Fixture, TrainingReducesLossOverEpochs) {
  Rng r1(9), r2(9);
  const auto quick = RunClientUpdate(DevicePlan(16, 1, 0.2f),
                                     model.init_params, examples, 1, r1);
  const auto longer = RunClientUpdate(DevicePlan(16, 20, 0.2f),
                                      model.init_params, examples, 1, r2);
  ASSERT_TRUE(quick.ok() && longer.ok());
  // Apply both and compare final evaluation loss.
  auto apply = [&](const ClientUpdateResult& u) {
    Checkpoint w = model.init_params;
    Checkpoint d = u.weighted_delta;
    d.Scale(1.0f / u.weight);
    FL_CHECK(w.AddInPlace(d).ok());
    const plan::DevicePlan dp = plan::MakeEvaluationPlan(model, "e", {}).device;
    return RunClientEvaluation(dp, w, examples, 1)->mean_loss;
  };
  EXPECT_LT(apply(*longer), apply(*quick));
}

// Pins the next-word LM training path bit for bit on the shapes the
// fedavg_sim and fleet_secagg_codec benchmarks train (batch 32, 3x16
// embedding, 64 hidden, 64 vocab): EmbedLookup, FusedMatMulBias, FastTanh
// and MatMulTransB's double accumulation, under whichever matmul kernel the
// CPU selects. The golden fleet digest covers only the 8->4 logistic
// regression. Builds that fuse multiply-adds (no -ffp-contract=off under
// -march=native) change this value.
TEST(LmClientUpdateTest, NextWordDeltaCrcIsPinned) {
  const data::TextWorkload corpus(data::TextWorkloadParams{}, 6);
  Rng model_rng(7);
  const graph::Model model =
      graph::BuildNextWordModel(64, 3, 16, 64, model_rng);
  const plan::DevicePlan dp =
      plan::MakeTrainingPlan(model, "lm", {32, 2, 0.4f}, {}).device;
  std::uint32_t crc = 0;
  for (std::uint64_t user = 0; user < 4; ++user) {
    const auto examples = corpus.UserExamples(user, 25, SimTime{0});
    Rng shuffle(100 + user);
    const auto result =
        RunClientUpdate(dp, model.init_params, examples, 3, shuffle);
    ASSERT_TRUE(result.ok()) << result.status();
    // Without the blob's trailing CRC32: CRC32 over a message followed by
    // its own CRC is a constant (0x2144df1c) whatever the message.
    const Bytes blob = result->weighted_delta.Serialize();
    crc = Crc32(std::span<const std::uint8_t>(blob).first(blob.size() - 4),
                crc);
  }
  EXPECT_EQ(crc, 0xd7ce76cfu) << std::hex << crc;
}

}  // namespace
}  // namespace fl::fedavg

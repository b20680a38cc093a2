#include "src/device/runtime.h"

#include <gtest/gtest.h>

#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"
#include "src/graph/registry.h"

namespace fl::device {
namespace {

struct RuntimeFixture : public ::testing::Test {
  void SetUp() override {
    Rng model_rng(1);
    model = graph::BuildLogisticRegression(8, 4, model_rng);
    auto store = std::make_shared<InMemoryExampleStore>(
        "default", InMemoryExampleStore::Options{});
    data::BlobsWorkload blobs({.classes = 4, .feature_dim = 8}, 7);
    store->AddBatch(blobs.UserExamples(3, 40, SimTime{0}));
    store_ptr = store.get();
    ASSERT_TRUE(registry.Register(std::move(store)).ok());
  }

  plan::FLPlan TrainingPlan() {
    plan::TrainingHyperparams hyper;
    hyper.batch_size = 10;
    hyper.epochs = 2;
    hyper.learning_rate = 0.1f;
    return plan::MakeTrainingPlan(model, "t", hyper, {});
  }

  graph::Model model;
  ExampleStoreRegistry registry;
  InMemoryExampleStore* store_ptr = nullptr;
  Rng rng{42};
};

TEST_F(RuntimeFixture, ExecutesTrainingPlan) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  const auto result =
      runtime.ExecutePlan(TrainingPlan(), model.init_params, SimTime{1}, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->update.has_value());
  EXPECT_EQ(result->examples_used, 40u);
  EXPECT_FLOAT_EQ(result->update->weight, 40.0f);
  EXPECT_GT(result->update->weighted_delta.Flatten().size(), 0u);
  EXPECT_GT(result->metrics.batches, 0u);
}

TEST_F(RuntimeFixture, ExecutesEvaluationPlanWithoutUpdate) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  const plan::FLPlan eval = plan::MakeEvaluationPlan(model, "e", {});
  const auto result =
      runtime.ExecutePlan(eval, model.init_params, SimTime{1}, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->update.has_value());
  EXPECT_EQ(result->metrics.example_count, 40u);
}

TEST_F(RuntimeFixture, OldRuntimeRejectsNewPlan) {
  FlRuntime old_runtime(1, &registry);
  Rng model_rng(2);
  const graph::Model lm = graph::BuildNextWordModel(8, 2, 3, 4, model_rng);
  const plan::FLPlan p = plan::MakeTrainingPlan(lm, "lm", {}, {});
  const auto result =
      old_runtime.ExecutePlan(p, lm.init_params, SimTime{1}, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RuntimeFixture, MissingStoreReported) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  plan::FLPlan p = TrainingPlan();
  p.device.selector.store_name = "nonexistent";
  const auto result =
      runtime.ExecutePlan(p, model.init_params, SimTime{1}, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
}

TEST_F(RuntimeFixture, InsufficientDataReported) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  plan::FLPlan p = TrainingPlan();
  p.device.selector.min_examples = 1000;
  const auto result =
      runtime.ExecutePlan(p, model.init_params, SimTime{1}, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RuntimeFixture, TrainingImprovesLocalLoss) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  plan::FLPlan p = TrainingPlan();
  p.device.epochs = 10;
  const auto result =
      runtime.ExecutePlan(p, model.init_params, SimTime{1}, rng);
  ASSERT_TRUE(result.ok());
  // Apply the (normalized) update and evaluate: loss should improve.
  Checkpoint after = model.init_params;
  Checkpoint delta = result->update->weighted_delta;
  delta.Scale(1.0f / result->update->weight);
  ASSERT_TRUE(after.AddInPlace(delta).ok());
  const plan::FLPlan eval = plan::MakeEvaluationPlan(model, "e", {});
  Rng rng2(43);
  const auto before_m =
      runtime.ExecutePlan(eval, model.init_params, SimTime{1}, rng2);
  const auto after_m = runtime.ExecutePlan(eval, after, SimTime{1}, rng2);
  ASSERT_TRUE(before_m.ok() && after_m.ok());
  EXPECT_LT(after_m->metrics.mean_loss, before_m->metrics.mean_loss);
}

TEST(ComputeDurationTest, ScalesWithWorkAndSpeed) {
  sim::DeviceProfile fast;
  fast.examples_per_sec = 100;
  sim::DeviceProfile slow;
  slow.examples_per_sec = 10;
  plan::FLPlan p;
  p.device.epochs = 2;
  const Duration fast_d = EstimateComputeDuration(p, 100, fast);
  const Duration slow_d = EstimateComputeDuration(p, 100, slow);
  EXPECT_NEAR(static_cast<double>(fast_d.millis), 2000.0, 50.0);
  EXPECT_NEAR(static_cast<double>(slow_d.millis), 20000.0, 500.0);
}

}  // namespace
}  // namespace fl::device

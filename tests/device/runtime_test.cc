#include "src/device/runtime.h"

#include <gtest/gtest.h>

#include <thread>

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

  // PreparePlan, then the job on this thread.
  static Result<TaskExecution> Execute(const FlRuntime& runtime,
                                       const plan::FLPlan& p,
                                       const Checkpoint& global, Rng& r) {
    FL_ASSIGN_OR_RETURN(PlanJob job,
                        runtime.PreparePlan(p, global, SimTime{1}, r));
    return job.Run();
  }

  graph::Model model;
  ExampleStoreRegistry registry;
  InMemoryExampleStore* store_ptr = nullptr;
  Rng rng{42};
};

TEST_F(RuntimeFixture, ExecutesTrainingPlan) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  const auto result =
      Execute(runtime, TrainingPlan(), model.init_params, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->update.has_value());
  EXPECT_EQ(result->metrics.example_count, 40u);
  EXPECT_FLOAT_EQ(result->update->weight, 40.0f);
  EXPECT_GT(result->update->weighted_delta.Flatten().size(), 0u);
  EXPECT_GT(result->metrics.batches, 0u);
}

TEST_F(RuntimeFixture, ExecutesEvaluationPlanWithoutUpdate) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  const plan::FLPlan eval = plan::MakeEvaluationPlan(model, "e", {});
  const auto result =
      Execute(runtime, eval, model.init_params, rng);
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
      Execute(old_runtime, p, lm.init_params, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RuntimeFixture, MissingStoreReported) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  plan::FLPlan p = TrainingPlan();
  p.device.selector.store_name = "nonexistent";
  const auto result =
      Execute(runtime, p, model.init_params, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
}

TEST_F(RuntimeFixture, InsufficientDataReported) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  plan::FLPlan p = TrainingPlan();
  p.device.selector.min_examples = 1000;
  const auto result =
      Execute(runtime, p, model.init_params, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RuntimeFixture, TrainingImprovesLocalLoss) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  plan::FLPlan p = TrainingPlan();
  p.device.epochs = 10;
  const auto result =
      Execute(runtime, p, model.init_params, rng);
  ASSERT_TRUE(result.ok());
  // Apply the (normalized) update and evaluate: loss should improve.
  Checkpoint after = model.init_params;
  Checkpoint delta = result->update->weighted_delta;
  delta.Scale(1.0f / result->update->weight);
  ASSERT_TRUE(after.AddInPlace(delta).ok());
  const plan::FLPlan eval = plan::MakeEvaluationPlan(model, "e", {});
  Rng rng2(43);
  const auto before_m =
      Execute(runtime, eval, model.init_params, rng2);
  const auto after_m = Execute(runtime, eval, after, rng2);
  ASSERT_TRUE(before_m.ok() && after_m.ok());
  EXPECT_LT(after_m->metrics.mean_loss, before_m->metrics.mean_loss);
}

TEST_F(RuntimeFixture, EmptySelectionFailsBeforeAnyDraw) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  plan::FLPlan p = TrainingPlan();
  p.device.selector.min_examples = 0;
  p.device.selector.max_example_age = Millis(1);  // every example is older
  Rng probe = rng;
  const auto job =
      runtime.PreparePlan(p, model.init_params, SimTime{Hours(1).millis}, rng);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(rng.Next(), probe.Next());  // the device RNG was not touched
}

// The prepared job draws the same orders RunClientUpdate's Rng overload
// draws, and gives the same bits on another thread, after the device RNG
// has moved on.
TEST_F(RuntimeFixture, PreparedJobMatchesRunClientUpdateOnAnyThread) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  const plan::FLPlan p = TrainingPlan();
  const auto examples = store_ptr->Query(p.device.selector, SimTime{1});
  ASSERT_TRUE(examples.ok());
  Rng direct_rng = rng;
  const auto direct =
      fedavg::RunClientUpdate(p.device, model.init_params, *examples,
                              graph::kCurrentRuntimeVersion, direct_rng);
  ASSERT_TRUE(direct.ok()) << direct.status();

  auto job = runtime.PreparePlan(p, model.init_params, SimTime{1}, rng);
  ASSERT_TRUE(job.ok()) << job.status();
  EXPECT_EQ(rng.Next(), direct_rng.Next());  // same draws, same count
  Result<TaskExecution> off_thread = InternalError("not run");
  std::thread worker([&] { off_thread = job->Run(); });
  worker.join();
  ASSERT_TRUE(off_thread.ok()) << off_thread.status();
  EXPECT_EQ(off_thread->update->weighted_delta.Flatten(),
            direct->weighted_delta.Flatten());
  EXPECT_EQ(off_thread->metrics.mean_loss, direct->metrics.mean_loss);
}

// Each upload encoding gives what encoding the plain update would.
TEST_F(RuntimeFixture, UploadEncodingMatchesEncodingTheUpdate) {
  FlRuntime runtime(graph::kCurrentRuntimeVersion, &registry);
  const plan::FLPlan p = TrainingPlan();
  Rng plain_rng = rng;
  const auto plain = Execute(runtime, p, model.init_params, plain_rng);
  ASSERT_TRUE(plain.ok()) << plain.status();
  const fedavg::ClientUpdateResult& update = *plain->update;
  const std::vector<float> flat = update.weighted_delta.Flatten();

  const auto encode = [&](const UploadEncoding& encoding) {
    Rng r = rng;
    auto job = runtime.PreparePlan(p, model.init_params, SimTime{1}, r);
    EXPECT_TRUE(job.ok()) << job.status();
    job->upload = encoding;
    auto out = job->Run();
    EXPECT_TRUE(out.ok()) << out.status();
    EXPECT_FALSE(out->update.has_value());
    EXPECT_EQ(out->upload->weight, update.weight);
    return std::move(out->upload).value();
  };

  UploadEncoding serialize;
  serialize.kind = UploadEncoding::Kind::kSerialize;
  const EncodedUpload s = encode(serialize);
  EXPECT_EQ(s.bytes, update.weighted_delta.Serialize());
  EXPECT_EQ(s.wire_bytes, s.bytes.size() + 64);

  UploadEncoding codec;
  codec.kind = UploadEncoding::Kind::kCodec;
  codec.codec.topk_fraction = 0.5;
  codec.codec.quant_bits = 8;
  codec.codec_seed = 99;
  const EncodedUpload c = encode(codec);
  const fedavg::EncodedUpdate want = fedavg::EncodeUpdate(flat, codec.codec, 99);
  EXPECT_EQ(c.bytes, want.payload);
  EXPECT_EQ(c.wire_bytes, want.WireBytes());

  UploadEncoding secure;
  secure.kind = UploadEncoding::Kind::kSecAgg;
  secure.secagg.total = flat.size();
  secure.secagg.keep = flat.size();
  const EncodedUpload w = encode(secure);
  EXPECT_EQ(w.secagg_words,
            *fedavg::EncodeSecAggInput(secure.secagg, flat, update.weight));
  EXPECT_TRUE(w.bytes.empty());

  // A secure update that does not fit its spec fails the job.
  Rng r = rng;
  auto job = runtime.PreparePlan(p, model.init_params, SimTime{1}, r);
  ASSERT_TRUE(job.ok());
  job->upload = secure;
  job->upload.secagg.total = flat.size() + 1;
  EXPECT_FALSE(job->Run().ok());
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

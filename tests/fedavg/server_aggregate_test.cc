#include "src/fedavg/server_aggregate.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/fedavg/client_update.h"

namespace fl::fedavg {
namespace {

Checkpoint Schema() {
  Checkpoint c;
  c.Put("w", Tensor::FromVector({1.0f, 2.0f}));
  return c;
}

Checkpoint DeltaOf(float a, float b) {
  Checkpoint c;
  c.Put("w", Tensor::FromVector({a, b}));
  return c;
}

// The model FinalizeInPlace makes of `global`.
Result<Checkpoint> Finalized(const FedAvgAccumulator& acc, Checkpoint global) {
  FL_RETURN_IF_ERROR(acc.FinalizeInPlace(global));
  return global;
}

ClientMetrics Metrics(double loss) {
  ClientMetrics m;
  m.mean_loss = loss;
  m.mean_accuracy = 0.5;
  m.example_count = 10;
  return m;
}

TEST(FedAvgAccumulatorTest, WeightedMeanMatchesAlgorithmOne) {
  // Two clients: n=2 with delta 2*(+1,+1); n=8 with delta 8*(-1, 0).
  // w_{t+1} = w_t + (sum deltas) / (sum n) = w_t + (2-8, 2+0)/10.
  FedAvgAccumulator acc(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(acc.Accumulate(DeltaOf(2, 2), 2, Metrics(1.0)).ok());
  ASSERT_TRUE(acc.Accumulate(DeltaOf(-8, 0), 8, Metrics(2.0)).ok());
  EXPECT_EQ(acc.contributions(), 2u);
  EXPECT_FLOAT_EQ(acc.weight_sum(), 10.0f);

  const auto next = Finalized(acc, Schema());
  ASSERT_TRUE(next.ok());
  const Tensor& w = *(*next->Get("w"));
  EXPECT_FLOAT_EQ(w.at(0), 1.0f + (2.0f - 8.0f) / 10.0f);
  EXPECT_FLOAT_EQ(w.at(1), 2.0f + (2.0f + 0.0f) / 10.0f);
}

TEST(FedAvgAccumulatorTest, UnweightedMeanIgnoresWeights) {
  FedAvgAccumulator acc(plan::AggregationOp::kUnweightedMean, Schema());
  // Client deltas (already weighted by n on device): n=2 delta/ n = (1,1);
  // n=100 delta/n = (3,3). Unweighted mean of per-client mean deltas = (2,2).
  ASSERT_TRUE(acc.Accumulate(DeltaOf(2, 2), 2, Metrics(1)).ok());
  ASSERT_TRUE(acc.Accumulate(DeltaOf(300, 300), 100, Metrics(1)).ok());
  const auto next = Finalized(acc, Schema());
  ASSERT_TRUE(next.ok());
  EXPECT_FLOAT_EQ((*next->Get("w"))->at(0), 1.0f + 2.0f);
}

TEST(FedAvgAccumulatorTest, MetricsOnlyNeverMovesModel) {
  FedAvgAccumulator acc(plan::AggregationOp::kMetricsOnly, Schema());
  ASSERT_TRUE(acc.Accumulate(Checkpoint{}, 1, Metrics(0.7)).ok());
  ASSERT_TRUE(acc.Accumulate(Checkpoint{}, 1, Metrics(0.9)).ok());
  const Checkpoint global = Schema();
  const auto next = Finalized(acc, global);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, global);
  EXPECT_NEAR(acc.metrics().Get("loss").mean, 0.8, 1e-9);
}

TEST(FedAvgAccumulatorTest, EmptyFinalizeFails) {
  FedAvgAccumulator acc(plan::AggregationOp::kWeightedFedAvg, Schema());
  EXPECT_FALSE(Finalized(acc, Schema()).ok());
}

TEST(FedAvgAccumulatorTest, NonPositiveWeightRejected) {
  FedAvgAccumulator acc(plan::AggregationOp::kWeightedFedAvg, Schema());
  EXPECT_FALSE(acc.Accumulate(DeltaOf(1, 1), 0, Metrics(1)).ok());
  EXPECT_FALSE(acc.Accumulate(DeltaOf(1, 1), -2, Metrics(1)).ok());
}

TEST(FedAvgAccumulatorTest, SchemaMismatchRejected) {
  FedAvgAccumulator acc(plan::AggregationOp::kWeightedFedAvg, Schema());
  Checkpoint wrong;
  wrong.Put("other", Tensor::FromVector({1.0f}));
  EXPECT_FALSE(acc.Accumulate(std::move(wrong), 1, Metrics(1)).ok());
}

TEST(FedAvgAccumulatorTest, HierarchicalAggregationMatchesFlat) {
  // Master-aggregator semantics (Sec. 6): combining two intermediate sums
  // must equal accumulating all four updates directly.
  Rng rng(1);
  std::vector<std::pair<Checkpoint, float>> updates;
  for (int i = 0; i < 4; ++i) {
    const float w = static_cast<float>(rng.UniformInt(1, 20));
    updates.emplace_back(
        DeltaOf(static_cast<float>(rng.Normal(0, 2)) * w,
                static_cast<float>(rng.Normal(0, 2)) * w),
        w);
  }

  FedAvgAccumulator flat(plan::AggregationOp::kWeightedFedAvg, Schema());
  for (auto& [d, w] : updates) {
    Checkpoint copy = d;
    ASSERT_TRUE(flat.Accumulate(std::move(copy), w, Metrics(1)).ok());
  }

  FedAvgAccumulator left(plan::AggregationOp::kWeightedFedAvg, Schema());
  FedAvgAccumulator right(plan::AggregationOp::kWeightedFedAvg, Schema());
  for (int i = 0; i < 2; ++i) {
    Checkpoint copy = updates[i].first;
    ASSERT_TRUE(left.Accumulate(std::move(copy), updates[i].second,
                                Metrics(1)).ok());
  }
  for (int i = 2; i < 4; ++i) {
    Checkpoint copy = updates[i].first;
    ASSERT_TRUE(right.Accumulate(std::move(copy), updates[i].second,
                                 Metrics(1)).ok());
  }
  FedAvgAccumulator master(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(master.AccumulateSum(left.delta_sum(), left.weight_sum(),
                                   left.contributions()).ok());
  ASSERT_TRUE(master.AccumulateSum(right.delta_sum(), right.weight_sum(),
                                   right.contributions()).ok());

  const auto flat_model = Finalized(flat, Schema());
  const auto tree_model = Finalized(master, Schema());
  ASSERT_TRUE(flat_model.ok() && tree_model.ok());
  const Tensor& a = *(*flat_model->Get("w"));
  const Tensor& b = *(*tree_model->Get("w"));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.at(i), b.at(i), 1e-5);
  }
  EXPECT_EQ(master.contributions(), 4u);
}

TEST(FedAvgAccumulatorTest, TakenPartialsMergeLikeFlatAccumulation) {
  // The Aggregator -> Master reduction: each shard hands over its partial,
  // the master merges them through AccumulateSum. That must equal flat
  // accumulation exactly: same adds in the same order.
  FedAvgAccumulator flat(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(flat.Accumulate(DeltaOf(2, 4), 2, Metrics(1)).ok());
  ASSERT_TRUE(flat.Accumulate(DeltaOf(-6, 3), 3, Metrics(1)).ok());

  FedAvgAccumulator shard_a(plan::AggregationOp::kWeightedFedAvg, Schema());
  FedAvgAccumulator shard_b(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(shard_a.Accumulate(DeltaOf(2, 4), 2, Metrics(1)).ok());
  ASSERT_TRUE(shard_b.Accumulate(DeltaOf(-6, 3), 3, Metrics(1)).ok());

  FedAvgAccumulator master(plan::AggregationOp::kWeightedFedAvg, Schema());
  for (FedAvgAccumulator* shard : {&shard_a, &shard_b}) {
    const PartialAggregate p = shard->TakePartial();
    ASSERT_TRUE(
        master.AccumulateSum(p.delta_sum, p.weight_sum, p.contributors).ok());
    EXPECT_EQ(shard->contributions(), 0u);  // the sums moved out
  }

  EXPECT_EQ(master.contributions(), flat.contributions());
  EXPECT_FLOAT_EQ(master.weight_sum(), flat.weight_sum());
  const auto a = Finalized(flat, Schema());
  const auto b = Finalized(master, Schema());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(FedAvgAccumulatorTest, EmptyPartialMergeIsNoOp) {
  FedAvgAccumulator master(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(master.Accumulate(DeltaOf(1, 1), 1, Metrics(1)).ok());
  FedAvgAccumulator empty(plan::AggregationOp::kWeightedFedAvg, Schema());
  const PartialAggregate p = empty.TakePartial();
  ASSERT_TRUE(
      master.AccumulateSum(p.delta_sum, p.weight_sum, p.contributors).ok());
  EXPECT_EQ(master.contributions(), 1u);
  EXPECT_FLOAT_EQ(master.weight_sum(), 1.0f);
}

TEST(FedAvgAccumulatorTest, MergeRejectsSchemaMismatch) {
  FedAvgAccumulator master(plan::AggregationOp::kWeightedFedAvg, Schema());
  Checkpoint wrong;
  wrong.Put("other", Tensor::FromVector({1.0f}));
  EXPECT_FALSE(master.AccumulateSum(wrong, 1, 1).ok());
  EXPECT_EQ(master.contributions(), 0u);
}

TEST(FedAvgAccumulatorTest, OnlineAccumulationKeepsNoPerClientState) {
  // The accumulator's memory footprint is one checkpoint regardless of how
  // many clients report (Sec. 10's scalability rebuttal).
  FedAvgAccumulator acc(plan::AggregationOp::kWeightedFedAvg, Schema());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(acc.Accumulate(DeltaOf(1, 1), 1, Metrics(1)).ok());
  }
  EXPECT_EQ(acc.contributions(), 1000u);
  EXPECT_EQ(acc.delta_sum().TotalParameters(), 2u);  // just the sum
}

TEST(FedAvgAccumulatorTest, AddMetricsSeparateFromSums) {
  FedAvgAccumulator acc(plan::AggregationOp::kWeightedFedAvg, Schema());
  acc.AddMetrics(Metrics(0.25));
  acc.AddMetrics(Metrics(0.75));
  EXPECT_NEAR(acc.metrics().Get("loss").mean, 0.5, 1e-9);
  EXPECT_EQ(acc.contributions(), 0u);  // metrics do not count as updates
}

TEST(FedAvgAccumulatorTest, ResetRearmsForNextRoundBitIdentically) {
  // A reset accumulator must behave exactly like a fresh one: the pooled
  // round loop depends on this for (seed, threads) reproducibility.
  FedAvgAccumulator pooled(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(pooled.Accumulate(DeltaOf(5, 7), 3, Metrics(1.0)).ok());
  pooled.Reset();
  EXPECT_EQ(pooled.contributions(), 0u);
  EXPECT_FLOAT_EQ(pooled.weight_sum(), 0.0f);

  FedAvgAccumulator fresh(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(pooled.Accumulate(DeltaOf(2, 2), 2, Metrics(1.0)).ok());
  ASSERT_TRUE(fresh.Accumulate(DeltaOf(2, 2), 2, Metrics(1.0)).ok());
  const auto a = Finalized(pooled, Schema());
  const auto b = Finalized(fresh, Schema());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(FedAvgAccumulatorTest, ConstRefAccumulateSumLeavesShardIntact) {
  FedAvgAccumulator shard(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(shard.Accumulate(DeltaOf(4, 6), 2, Metrics(1.0)).ok());
  FedAvgAccumulator master(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(master
                  .AccumulateSum(shard.delta_sum(), shard.weight_sum(),
                                 shard.contributions())
                  .ok());
  // The shard still owns its sum (unlike TakePartial, which moves it out).
  EXPECT_EQ(shard.delta_sum().TotalParameters(), 2u);
  EXPECT_FLOAT_EQ((*shard.delta_sum().Get("w"))->at(0), 4.0f);
  const auto a = Finalized(master, Schema());
  const auto b = Finalized(shard, Schema());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(FedAvgAccumulatorTest, AppliedPartialMatchesFinalizeInPlace) {
  // The Coordinator's commit path: the master's partial, applied to a copy
  // of the model, is bit-identical to finalizing the accumulator in place.
  FedAvgAccumulator acc(plan::AggregationOp::kWeightedFedAvg, Schema());
  ASSERT_TRUE(acc.Accumulate(DeltaOf(2, 2), 2, Metrics(1.0)).ok());
  ASSERT_TRUE(acc.Accumulate(DeltaOf(-8, 0), 8, Metrics(2.0)).ok());
  Checkpoint in_place = Schema();
  ASSERT_TRUE(acc.FinalizeInPlace(in_place).ok());
  const PartialAggregate partial = acc.TakePartial();
  Checkpoint applied = Schema();
  ASSERT_TRUE(
      partial.ApplyTo(plan::AggregationOp::kWeightedFedAvg, applied).ok());
  EXPECT_EQ(applied, in_place);
  EXPECT_FALSE(PartialAggregate{}
                   .ApplyTo(plan::AggregationOp::kWeightedFedAvg, applied)
                   .ok());
}

TEST(FedAvgAccumulatorTest, FinalizeInPlaceEmptyFails) {
  FedAvgAccumulator acc(plan::AggregationOp::kWeightedFedAvg, Schema());
  Checkpoint global = Schema();
  EXPECT_FALSE(acc.FinalizeInPlace(global).ok());
  EXPECT_EQ(global, Schema());  // untouched on failure
}

}  // namespace
}  // namespace fl::fedavg

// Server half of Federated Averaging (Appendix B, Algorithm 1):
//
//   w_bar_t = sum_k Delta_k ; n_bar_t = sum_k n_k
//   Delta_t = w_bar_t / n_bar_t ; w_{t+1} <- w_t + Delta_t
//
// Updates are folded in online as they arrive ("the server aggregates them
// using Federated Averaging ... updates can be processed online as they are
// received without a need to store them", Sec. 2.2 / Sec. 10) — the
// accumulator never retains individual updates, which is also what makes
// the ephemeral-actor memory story of Sec. 4.2 work.
#pragma once

#include <utility>

#include "src/common/status.h"
#include "src/fedavg/metrics.h"
#include "src/plan/plan.h"
#include "src/tensor/checkpoint.h"

namespace fl::fedavg {

// An intermediate sum (Sec. 4.2 / Sec. 6): the one thing that crosses the
// Aggregator -> Master Aggregator -> Coordinator boundary. Each Aggregator
// folds its cohort into one; the master merges them (AccumulateSum) into the
// final partial; the Coordinator applies that to the global model. Metric
// summaries never ride here: they reach the master per report (P² states do
// not merge exactly).
struct PartialAggregate {
  Checkpoint delta_sum;  // sum of weighted deltas (empty for metrics-only)
  float weight_sum = 0;
  std::size_t contributors = 0;

  // global += delta_sum / weight_sum. Fails, leaving `global` untouched, if
  // nothing was accumulated (for weight-aggregating ops); evaluation rounds
  // (kMetricsOnly) never move the model.
  Status ApplyTo(plan::AggregationOp op, Checkpoint& global) const;
};

class FedAvgAccumulator {
 public:
  FedAvgAccumulator(plan::AggregationOp op, const Checkpoint& schema);

  // Folds one client's weighted delta into the running sums. The delta is
  // consumed; no per-device copy survives the call.
  Status Accumulate(Checkpoint&& weighted_delta, float weight,
                    const ClientMetrics& metrics);

  // The one merge: folds in an already-summed contribution (an Aggregator's
  // partial at the master, a pooled shard's sum in the simulation round
  // engine). The caller keeps `delta_sum`.
  Status AccumulateSum(const Checkpoint& delta_sum, float weight_sum,
                       std::size_t contributors);

  // Folds in metrics alone (the Master Aggregator receives metrics with
  // per-report progress messages, separately from the delta sums).
  void AddMetrics(const ClientMetrics& m);

  std::size_t contributions() const { return partial_.contributors; }
  const MetricsAccumulator& metrics() const { return metrics_; }
  const Checkpoint& delta_sum() const { return partial_.delta_sum; }
  float weight_sum() const { return partial_.weight_sum; }

  // Moves the running sums out (leaving an empty partial behind): how an
  // Aggregator reports its cohort and the master its final aggregate.
  PartialAggregate TakePartial() { return std::exchange(partial_, {}); }

  // Applies the aggregate to `global` (global += sum / weight); see
  // PartialAggregate::ApplyTo.
  Status FinalizeInPlace(Checkpoint& global) const {
    return partial_.ApplyTo(op_, global);
  }

  // Rearms the accumulator for the next round, zero-filling the running
  // sum in place: the tensor buffers (one full model's worth per shard)
  // survive, so steady-state rounds allocate nothing here.
  void Reset();

 private:
  plan::AggregationOp op_;
  PartialAggregate partial_;
  MetricsAccumulator metrics_;
};

}  // namespace fl::fedavg

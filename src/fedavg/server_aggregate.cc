#include "src/fedavg/server_aggregate.h"

#include "src/fedavg/client_update.h"

namespace fl::fedavg {

Status PartialAggregate::ApplyTo(plan::AggregationOp op,
                                 Checkpoint& global) const {
  if (op == plan::AggregationOp::kMetricsOnly) {
    return Status::Ok();  // evaluation rounds do not move the model
  }
  if (contributors == 0 || weight_sum <= 0) {
    return FailedPreconditionError("no updates accumulated");
  }
  // w_{t+1} = w_t + (sum_k Delta_k) / (sum_k n_k). The scaled add folds the
  // division into AddInPlace's alpha — no copy-then-Scale round trip over
  // the full parameter vector.
  return global.AddInPlace(delta_sum, 1.0f / weight_sum);
}

FedAvgAccumulator::FedAvgAccumulator(plan::AggregationOp op,
                                     const Checkpoint& schema)
    : op_(op) {
  if (op_ != plan::AggregationOp::kMetricsOnly) {
    // Zero-initialized running sum with the model's schema.
    partial_.delta_sum = Checkpoint::ZerosLike(schema);
  }
}

Status FedAvgAccumulator::Accumulate(Checkpoint&& weighted_delta, float weight,
                                     const ClientMetrics& metrics) {
  metrics_.AddClientMetrics(metrics);
  if (op_ == plan::AggregationOp::kMetricsOnly) {
    ++partial_.contributors;
    return Status::Ok();
  }
  if (weight <= 0) {
    return InvalidArgumentError("client update weight must be positive");
  }
  if (op_ == plan::AggregationOp::kUnweightedMean) {
    // Normalize the weighted delta back to a plain delta, count weight 1.
    weighted_delta.Scale(1.0f / weight);
    weight = 1.0f;
  }
  FL_RETURN_IF_ERROR(partial_.delta_sum.AddInPlace(weighted_delta));
  partial_.weight_sum += weight;
  ++partial_.contributors;
  return Status::Ok();
}

Status FedAvgAccumulator::AccumulateSum(const Checkpoint& delta_sum,
                                        float weight_sum,
                                        std::size_t contributors) {
  if (op_ == plan::AggregationOp::kMetricsOnly) {
    partial_.contributors += contributors;
    return Status::Ok();
  }
  if (contributors == 0) return Status::Ok();
  FL_RETURN_IF_ERROR(partial_.delta_sum.AddInPlace(delta_sum));
  partial_.weight_sum += weight_sum;
  partial_.contributors += contributors;
  return Status::Ok();
}

void FedAvgAccumulator::AddMetrics(const ClientMetrics& m) {
  metrics_.AddClientMetrics(m);
}

void FedAvgAccumulator::Reset() {
  partial_.delta_sum.ZeroFill();
  partial_.weight_sum = 0;
  partial_.contributors = 0;
  metrics_ = MetricsAccumulator{};
}

}  // namespace fl::fedavg

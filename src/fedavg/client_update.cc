#include "src/fedavg/client_update.h"

#include <algorithm>
#include <numeric>

namespace fl::fedavg {

namespace {

// Feed tensors for the `b` examples row(0) .. row(b - 1), read in place.
template <typename RowFn>
graph::Feeds GatherFeeds(const plan::DevicePlan& device_plan, std::size_t b,
                         RowFn row) {
  FL_CHECK(b > 0);
  const std::size_t d = row(0).features.size();
  Tensor features({b, d});
  Tensor labels({b, 1});
  float* pf = features.mutable_data().data();
  float* pl = labels.mutable_data().data();
  for (std::size_t i = 0; i < b; ++i, pf += d) {
    const data::Example& e = row(i);
    FL_CHECK_MSG(e.features.size() == d, "ragged feature vectors in batch");
    std::copy(e.features.begin(), e.features.end(), pf);
    pl[i] = e.label;
  }
  graph::Feeds feeds;
  feeds.emplace(device_plan.feature_input, std::move(features));
  feeds.emplace(device_plan.label_input, std::move(labels));
  return feeds;
}

std::size_t EpochCount(const plan::DevicePlan& device_plan) {
  return std::max<std::size_t>(1, device_plan.epochs);
}

}  // namespace

graph::Feeds BuildFeeds(const plan::DevicePlan& device_plan,
                        std::span<const data::Example> batch) {
  return GatherFeeds(device_plan, batch.size(),
                     [&](std::size_t i) -> const data::Example& {
                       return batch[i];
                     });
}

std::vector<std::uint32_t> DrawEpochOrders(const plan::DevicePlan& device_plan,
                                           std::size_t example_count,
                                           Rng& shuffle_rng) {
  std::vector<std::uint32_t> order(example_count);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint32_t> orders;
  orders.reserve(EpochCount(device_plan) * example_count);
  for (std::size_t epoch = 0; epoch < EpochCount(device_plan); ++epoch) {
    shuffle_rng.Shuffle(order);
    orders.insert(orders.end(), order.begin(), order.end());
  }
  return orders;
}

Result<ClientUpdateResult> RunClientUpdate(
    const plan::DevicePlan& device_plan, const Checkpoint& global,
    std::span<const data::Example> examples, std::uint32_t runtime_version,
    Rng& shuffle_rng) {
  if (examples.empty()) {
    return FailedPreconditionError("no local examples for training");
  }
  const std::vector<std::uint32_t> orders =
      DrawEpochOrders(device_plan, examples.size(), shuffle_rng);
  return RunClientUpdate(device_plan, global, examples, runtime_version,
                         orders);
}

Result<ClientUpdateResult> RunClientUpdate(
    const plan::DevicePlan& device_plan, const Checkpoint& global,
    std::span<const data::Example> examples, std::uint32_t runtime_version,
    std::span<const std::uint32_t> orders) {
  if (examples.empty()) {
    return FailedPreconditionError("no local examples for training");
  }
  FL_CHECK_MSG(orders.size() == EpochCount(device_plan) * examples.size(),
               "epoch orders do not match the examples");
  const graph::Executor exec(runtime_version);
  Checkpoint w = global;  // w_init stays in `global`

  ClientUpdateResult out;
  double loss_sum = 0, acc_sum = 0;
  std::size_t batches = 0;

  const std::size_t batch_size = std::max<std::size_t>(1, device_plan.batch_size);

  for (std::size_t base = 0; base < orders.size(); base += examples.size()) {
    const std::span<const std::uint32_t> order =
        orders.subspan(base, examples.size());
    for (std::size_t start = 0; start < order.size(); start += batch_size) {
      const std::size_t end = std::min(order.size(), start + batch_size);
      const graph::Feeds feeds = GatherFeeds(
          device_plan, end - start,
          [&](std::size_t i) -> const data::Example& {
            return examples[order[start + i]];
          });
      graph::ForwardResult fwd;
      FL_ASSIGN_OR_RETURN(
          graph::Gradients grads,
          exec.Backward(device_plan.graph, w, feeds, &fwd));
      FL_RETURN_IF_ERROR(
          graph::ApplySgd(w, grads, device_plan.learning_rate));
      loss_sum += fwd.loss;
      acc_sum += fwd.accuracy;
      ++batches;
    }
  }

  // Delta = n * (w - w_init).
  const auto n = static_cast<float>(examples.size());
  Checkpoint delta = w;
  FL_RETURN_IF_ERROR(delta.AddInPlace(global, -1.0f));
  delta.Scale(n);

  out.weighted_delta = std::move(delta);
  out.weight = n;
  out.metrics.mean_loss = batches > 0 ? loss_sum / static_cast<double>(batches) : 0;
  out.metrics.mean_accuracy =
      batches > 0 ? acc_sum / static_cast<double>(batches) : 0;
  out.metrics.example_count = examples.size();
  out.metrics.batches = batches;
  return out;
}

Result<ClientMetrics> RunClientEvaluation(
    const plan::DevicePlan& device_plan, const Checkpoint& global,
    std::span<const data::Example> examples, std::uint32_t runtime_version) {
  if (examples.empty()) {
    return FailedPreconditionError("no local examples for evaluation");
  }
  const graph::Executor exec(runtime_version);
  ClientMetrics m;
  double loss_sum = 0, acc_sum = 0;
  const std::size_t batch_size =
      std::max<std::size_t>(1, device_plan.batch_size);
  for (std::size_t start = 0; start < examples.size(); start += batch_size) {
    const std::size_t end = std::min(examples.size(), start + batch_size);
    const graph::Feeds feeds =
        BuildFeeds(device_plan, examples.subspan(start, end - start));
    FL_ASSIGN_OR_RETURN(graph::ForwardResult fwd,
                        exec.Forward(device_plan.graph, global, feeds));
    // Weight batch metrics by batch size for an exact dataset mean.
    const auto bsz = static_cast<double>(end - start);
    loss_sum += fwd.loss * bsz;
    acc_sum += fwd.accuracy * bsz;
    ++m.batches;
  }
  m.example_count = examples.size();
  m.mean_loss = loss_sum / static_cast<double>(examples.size());
  m.mean_accuracy = acc_sum / static_cast<double>(examples.size());
  return m;
}

}  // namespace fl::fedavg

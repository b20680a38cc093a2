// ClientUpdate — the device half of Federated Averaging (Appendix B,
// Algorithm 1):
//
//   ClientUpdate(w):
//     B <- (local data divided into minibatches); n <- |B|... w_init <- w
//     for batch b in B: w <- w - eta * grad(w; b)
//     Delta <- n * (w - w_init)     // weighted update
//     return (Delta, n)
//
// FedSGD falls out as the special case epochs=1, batch_size=n (one full
// gradient step), which benches use as the baseline configuration.
#pragma once

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/data/example.h"
#include "src/graph/executor.h"
#include "src/plan/plan.h"

namespace fl::fedavg {

struct ClientMetrics {
  double mean_loss = 0.0;
  double mean_accuracy = 0.0;
  std::size_t example_count = 0;
  std::size_t batches = 0;
};

struct ClientUpdateResult {
  // Delta = n * (w_final - w_init); "more amenable to compression than w".
  Checkpoint weighted_delta;
  // n, the update weight (number of local examples).
  float weight = 0.0f;
  ClientMetrics metrics;
};

// The example orders the training loop visits, epoch-major: epochs x
// `example_count` indices, each epoch a reshuffle of the one before (the
// first of 0 .. n-1). The draws depend only on the count, never on the
// examples, so a caller can draw them before the data is at hand.
std::vector<std::uint32_t> DrawEpochOrders(const plan::DevicePlan& device_plan,
                                           std::size_t example_count,
                                           Rng& shuffle_rng);

// Runs the plan's training loop on `examples` starting from `global`,
// visiting them in `orders` (from DrawEpochOrders). Pure: it reads only its
// arguments, so it may run on any thread. `runtime_version` selects the
// device's executor version — version mismatches surface here exactly as
// they would on an old phone.
Result<ClientUpdateResult> RunClientUpdate(
    const plan::DevicePlan& device_plan, const Checkpoint& global,
    std::span<const data::Example> examples, std::uint32_t runtime_version,
    std::span<const std::uint32_t> orders);

// Draws the orders from `shuffle_rng`, then trains.
Result<ClientUpdateResult> RunClientUpdate(
    const plan::DevicePlan& device_plan, const Checkpoint& global,
    std::span<const data::Example> examples, std::uint32_t runtime_version,
    Rng& shuffle_rng);

// Evaluation-only pass: computes metrics on held-out data, no update
// (Sec. 3: plans "can also encode evaluation tasks").
Result<ClientMetrics> RunClientEvaluation(
    const plan::DevicePlan& device_plan, const Checkpoint& global,
    std::span<const data::Example> examples, std::uint32_t runtime_version);

// Builds feature/label feed tensors from a slice of examples.
graph::Feeds BuildFeeds(const plan::DevicePlan& device_plan,
                        std::span<const data::Example> batch);

}  // namespace fl::fedavg

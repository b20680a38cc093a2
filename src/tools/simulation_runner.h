// In-process FL simulation for modeling work (Sec. 7.1): "Our modeling tools
// allow deployment of FL tasks to a simulated FL server and a fleet of cloud
// jobs emulating devices on a large proxy dataset. The simulation executes
// the same code as we run on device."
//
// No protocol/network/actors: just Algorithm 1 over per-client example sets.
// Used for hyperparameter exploration, pre-training on proxy data, and the
// convergence benches (which need thousands of rounds cheaply).
#pragma once

#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/data/example.h"
#include "src/fedavg/client_update.h"
#include "src/fedavg/server_aggregate.h"
#include "src/graph/model_zoo.h"
#include "src/plan/plan.h"

namespace fl::tools {

struct SimulationConfig {
  std::size_t clients_per_round = 20;   // K in Algorithm 1
  std::size_t rounds = 100;
  double client_failure_rate = 0.0;     // fraction of selected that drop
  std::uint64_t seed = 17;
  // Evaluate on held-out data every `eval_every` rounds (0 = never).
  std::size_t eval_every = 10;
  // Worker threads for the round engine. Each round's participants are
  // drawn up front, then their client updates run on the pool with one
  // FedAvgAccumulator shard per thread, merged in fixed shard order
  // (Aggregator → Master Aggregator, Sec. 4.2); 1 (the default) is the
  // one-shard case and runs inline. At every thread count a failed client
  // update is dropped, not resampled. All randomness is pre-drawn
  // sequentially, so results are deterministic for a fixed (seed, threads)
  // pair; thread count only changes floating-point merge order.
  std::size_t threads = 1;
};

struct RoundPoint {
  std::size_t round = 0;
  double train_loss = 0;
  double eval_loss = 0;
  double eval_accuracy = 0;   // top-1 recall for LM tasks
  bool has_eval = false;
};

struct SimulationResult {
  Checkpoint final_model;
  std::vector<RoundPoint> trajectory;
  std::size_t rounds_run = 0;
};

// Runs FedAvg (per the plan's hyperparameters) over `client_data` — one
// entry per simulated client — sampling clients uniformly each round.
Result<SimulationResult> RunFedAvgSimulation(
    const plan::FLPlan& plan, const Checkpoint& init,
    const std::vector<std::vector<data::Example>>& client_data,
    std::span<const data::Example> eval_data, const SimulationConfig& config);

// Centralized SGD baseline over the pooled data (the "server-trained" model
// of Sec. 8), using the same graph/executor stack.
Result<SimulationResult> RunCentralizedBaseline(
    const plan::FLPlan& plan, const Checkpoint& init,
    std::span<const data::Example> train_data,
    std::span<const data::Example> eval_data, std::size_t epochs,
    const SimulationConfig& config);

}  // namespace fl::tools

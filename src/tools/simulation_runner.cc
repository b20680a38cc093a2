#include "src/tools/simulation_runner.h"

#include <algorithm>
#include <utility>

#include "src/analytics/lifecycle.h"
#include "src/common/thread_pool.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace fl::tools {
namespace {

// Telemetry handles for one simulation run; null/0 when telemetry is
// disabled at simulation start (the hot loops then pay one null check).
struct SimTelemetry {
  telemetry::Counter* updates_total = nullptr;
  telemetry::Counter* update_failures = nullptr;
};

SimTelemetry ResolveSimTelemetry() {
  SimTelemetry t;
  if (!telemetry::Enabled()) return t;
  auto& reg = telemetry::MetricsRegistry::Global();
  t.updates_total = reg.GetCounter("fl_sim_client_updates_total");
  t.update_failures = reg.GetCounter("fl_sim_client_update_failures_total");
  return t;
}

// One pre-drawn round participant: which client trains and the RNG its
// local shuffle uses. Drawn sequentially from the round RNG before any
// dispatch so the draw sequence is independent of thread scheduling.
struct PlannedClient {
  std::size_t client = 0;
  Rng shuffle{0};
};

// Selects a round's participants before any training: draws a candidate
// index, a drop-out coin and a per-client fork until `want` survivors are
// collected (Algorithm 1's header: select 1.3K, keep the first K) or 4 * want
// attempts are spent.
std::vector<PlannedClient> PlanRound(
    Rng& rng, const std::vector<std::vector<data::Example>>& client_data,
    const SimulationConfig& config) {
  const std::size_t want = config.clients_per_round;
  std::vector<PlannedClient> planned;
  planned.reserve(want);
  for (std::size_t attempts = 0;
       planned.size() < want && attempts < want * 4; ++attempts) {
    const std::size_t c = rng.UniformInt(client_data.size());
    if (client_data[c].empty()) continue;
    if (rng.Bernoulli(config.client_failure_rate)) continue;  // drop-out
    planned.push_back(PlannedClient{c, rng.Fork()});
  }
  return planned;
}

// Per-worker aggregation shard — the in-process analogue of one ephemeral
// Aggregator actor (Sec. 4.2). Each shard owns its accumulator; shards are
// merged into the master in fixed index order after the join. Shards are
// pooled across rounds: Rearm zero-fills the accumulator in place, so the
// steady-state round loop never reallocates a model-sized sum buffer.
struct RoundShard {
  explicit RoundShard(plan::AggregationOp op, const Checkpoint& schema)
      : acc(op, schema) {}
  void Rearm() {
    acc.Reset();
    train_loss = 0;
    got = 0;
    status = Status::Ok();
  }
  fedavg::FedAvgAccumulator acc;
  double train_loss = 0;
  std::size_t got = 0;
  Status status = Status::Ok();
};

// Executes one round's client updates on the pool: candidate i runs on
// shard i % shards, each shard processing its candidates in ascending
// order. Returns (train_loss_sum, got) after the fixed-order shard merge.
Result<std::pair<double, std::size_t>> RunRoundOnPool(
    common::ThreadPool& pool, const plan::FLPlan& plan,
    const Checkpoint& global, std::uint32_t runtime,
    const std::vector<std::vector<data::Example>>& client_data,
    const std::vector<PlannedClient>& planned,
    std::vector<RoundShard>& shards, fedavg::FedAvgAccumulator& master,
    const SimTelemetry& telem, std::uint64_t round_span) {
  const std::size_t shard_count =
      std::max<std::size_t>(1, std::min(pool.size(), planned.size()));
  while (shards.size() < shard_count) {
    shards.emplace_back(plan.server.aggregation, global);
  }
  for (std::size_t s = 0; s < shard_count; ++s) shards[s].Rearm();

  pool.ParallelFor(shard_count, [&](std::size_t s) {
    RoundShard& shard = shards[s];
    for (std::size_t i = s; i < planned.size(); i += shard_count) {
      // Worker threads have no thread-local span context: parent the
      // client-update span on the round span explicitly.
      telemetry::ScopedSpan span("client_update", round_span);
      if (span.id() != 0) {
        span.AddAttr("client", std::to_string(planned[i].client));
      }
      // Copy the pre-drawn fork: the planned state itself stays pristine.
      Rng shuffle = planned[i].shuffle;
      auto update = fedavg::RunClientUpdate(plan.device, global,
                                            client_data[planned[i].client],
                                            runtime, shuffle);
      if (telem.updates_total != nullptr) telem.updates_total->Add();
      // A failed update is dropped, not resampled (the determinism
      // contract in DESIGN.md).
      if (!update.ok()) {
        if (telem.update_failures != nullptr) telem.update_failures->Add();
        continue;
      }
      shard.train_loss += update->metrics.mean_loss;
      Status st = shard.acc.Accumulate(std::move(update->weighted_delta),
                                       update->weight, update->metrics);
      if (!st.ok()) {
        shard.status = st;
        return;
      }
      ++shard.got;
    }
  });

  double train_loss = 0;
  std::size_t got = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    RoundShard& shard = shards[s];
    FL_RETURN_IF_ERROR(shard.status);
    train_loss += shard.train_loss;
    got += shard.got;
    // Fold the shard's sum in by reference: the shard keeps its buffers for
    // the next round's Rearm.
    FL_RETURN_IF_ERROR(master.AccumulateSum(shard.acc.delta_sum(),
                                            shard.acc.weight_sum(),
                                            shard.acc.contributions()));
  }
  return std::make_pair(train_loss, got);
}

}  // namespace

Result<SimulationResult> RunFedAvgSimulation(
    const plan::FLPlan& plan, const Checkpoint& init,
    const std::vector<std::vector<data::Example>>& client_data,
    std::span<const data::Example> eval_data,
    const SimulationConfig& config) {
  if (client_data.empty()) {
    return InvalidArgumentError("no client data");
  }
  Rng rng(config.seed);
  SimulationResult result;
  Checkpoint global = init;
  const std::uint32_t runtime = plan.min_runtime_version;

  // The pool outlives every round. threads == 1 spawns no workers:
  // ParallelFor then runs the round's one shard inline.
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  common::ThreadPool pool(threads > 1 ? threads : 0);
  if (threads > 1 && telemetry::Enabled()) {
    // Queue-wait (enqueue -> dequeue) per pool task, in microseconds:
    // sustained growth here means the pool is oversubscribed.
    auto* wait_hist = telemetry::MetricsRegistry::Global().GetHistogram(
        "fl_sim_pool_queue_wait_micros",
        telemetry::HistogramOptions{1.0, 2.0, 24});
    pool.SetQueueWaitObserver([wait_hist](std::int64_t micros) {
      wait_hist->Observe(static_cast<double>(micros));
    });
  }
  const SimTelemetry telem = ResolveSimTelemetry();

  // Round-pooled aggregation state: the master accumulator and the worker
  // shards are built once and zero-filled per round, so the per-round hot
  // loop allocates no model-sized buffers.
  fedavg::FedAvgAccumulator acc(plan.server.aggregation, global);
  std::vector<RoundShard> shard_pool;

  for (std::size_t round = 1; round <= config.rounds; ++round) {
    // Wall-clock span over the whole round; client-update spans nest under
    // it (workers parent on it explicitly, see RunRoundOnPool).
    telemetry::ScopedSpan round_span("sim_round");
    if (round_span.id() != 0) {
      round_span.AddAttr("round", std::to_string(round));
    }
    analytics::Emit(nullptr, {.source = analytics::JournalSource::kSim,
                              .kind = analytics::JournalEventKind::kSimRoundStart,
                              .round = RoundId{round},
                              .a = config.clients_per_round});
    acc.Reset();
    const std::vector<PlannedClient> planned =
        PlanRound(rng, client_data, config);
    FL_ASSIGN_OR_RETURN(
        const auto outcome,
        RunRoundOnPool(pool, plan, global, runtime, client_data, planned,
                       shard_pool, acc, telem, round_span.id()));
    const auto [train_loss, got] = outcome;
    if (got == 0) {
      return AbortedError("round " + std::to_string(round) +
                          ": no client produced an update");
    }
    FL_RETURN_IF_ERROR(acc.FinalizeInPlace(global));
    analytics::Emit(nullptr,
                    {.source = analytics::JournalSource::kSim,
                     .kind = analytics::JournalEventKind::kSimRoundComplete,
                     .round = RoundId{round},
                     .a = got});

    RoundPoint point;
    point.round = round;
    point.train_loss = train_loss / static_cast<double>(got);
    if (config.eval_every > 0 && round % config.eval_every == 0 &&
        !eval_data.empty()) {
      FL_ASSIGN_OR_RETURN(
          fedavg::ClientMetrics eval,
          fedavg::RunClientEvaluation(plan.device, global, eval_data,
                                      runtime));
      point.eval_loss = eval.mean_loss;
      point.eval_accuracy = eval.mean_accuracy;
      point.has_eval = true;
    }
    result.trajectory.push_back(point);
    result.rounds_run = round;
  }
  result.final_model = std::move(global);
  return result;
}

Result<SimulationResult> RunCentralizedBaseline(
    const plan::FLPlan& plan, const Checkpoint& init,
    std::span<const data::Example> train_data,
    std::span<const data::Example> eval_data, std::size_t epochs,
    const SimulationConfig& config) {
  if (train_data.empty()) return InvalidArgumentError("no training data");
  Rng rng(config.seed ^ 0xba5e11e5ULL);
  SimulationResult result;
  Checkpoint global = init;
  const std::uint32_t runtime = plan.min_runtime_version;

  // One "epoch" of centralized SGD == one ClientUpdate over all the data
  // with epochs=1 (identical code path as devices, Sec. 7.1).
  plan::DevicePlan device = plan.device;
  device.epochs = 1;

  for (std::size_t epoch = 1; epoch <= epochs; ++epoch) {
    Rng shuffle = rng.Fork();
    auto update = fedavg::RunClientUpdate(device, global, train_data,
                                          runtime, shuffle);
    if (!update.ok()) return update.status();
    FL_RETURN_IF_ERROR(
        global.AddInPlace(update->weighted_delta, 1.0f / update->weight));

    RoundPoint point;
    point.round = epoch;
    point.train_loss = update->metrics.mean_loss;
    if (config.eval_every > 0 && epoch % config.eval_every == 0 &&
        !eval_data.empty()) {
      FL_ASSIGN_OR_RETURN(
          fedavg::ClientMetrics eval,
          fedavg::RunClientEvaluation(device, global, eval_data, runtime));
      point.eval_loss = eval.mean_loss;
      point.eval_accuracy = eval.mean_accuracy;
      point.has_eval = true;
    }
    result.trajectory.push_back(point);
    result.rounds_run = epoch;
  }
  result.final_model = std::move(global);
  return result;
}

}  // namespace fl::tools

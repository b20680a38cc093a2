// fedavg_sim: the Sec. 7.1 modelling path. tools::RunFedAvgSimulation trains
// the next-word LM over simulated users on the fork-join pool, one round per
// call with the previous model passed in, so each round's latency is timed
// from outside. It bypasses sim, actor, crypto and secagg entirely.
//
// Traced run: replays rounds through common::ThreadPool::ParallelFor with
// per-shard accumulators, exactly as the library's round engine does, and
// times each client task and the shard merge.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "perfbench/src/perfbench.h"
#include "src/common/json_writer.h"
#include "src/common/thread_pool.h"
#include "src/data/text.h"
#include "src/fedavg/client_update.h"
#include "src/fedavg/server_aggregate.h"
#include "src/graph/model_zoo.h"
#include "src/tools/simulation_runner.h"

namespace perfbench {
namespace {

using fl::data::Example;

constexpr std::size_t kUsers = 200;
constexpr std::size_t kSentencesPerUser = 25;
constexpr std::size_t kClientsPerRound = 50;
constexpr std::size_t kRoundsPerJob = 40;

std::size_t Threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

// The workload's inputs; building them is the set-up being timed.
struct SimInputs {
  std::vector<std::vector<Example>> users;
  std::vector<Example> held_out;
  fl::graph::Model model;
  fl::plan::FLPlan plan;
};

SimInputs BuildInputs(std::uint64_t seed) {
  SimInputs in;
  fl::data::TextWorkloadParams params;
  params.vocab_size = 64;
  params.context = 3;
  const fl::data::TextWorkload corpus(params, seed + 5);
  in.users.reserve(kUsers);
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    in.users.push_back(
        corpus.UserExamples(u, kSentencesPerUser, fl::SimTime{}));
  }
  in.held_out = corpus.UserExamples(10'000'019, 100, fl::SimTime{});
  fl::Rng model_rng(seed ^ 0x6d6f64656cull);
  in.model = fl::graph::BuildNextWordModel(64, 3, 16, 64, model_rng);
  fl::plan::TrainingHyperparams hyper;
  hyper.batch_size = 32;
  hyper.epochs = 2;
  hyper.learning_rate = 0.4f;
  in.plan = fl::plan::MakeTrainingPlan(in.model, "lm", hyper, {});
  return in;
}

fl::tools::SimulationConfig RoundConfig(std::uint64_t seed, std::size_t round) {
  fl::tools::SimulationConfig config;
  config.clients_per_round = kClientsPerRound;
  config.rounds = 1;
  config.eval_every = 0;
  config.seed = seed * 1'000'003 + round;
  config.threads = Threads();
  return config;
}

struct SimJob {
  std::vector<double> round_ms;
  std::size_t rounds_ok = 0;
  double wall_s = 0;
  double final_loss = 0;
  std::uint32_t crc = 0;
  bool ok = false;
};

SimJob RunJob(const SimInputs& in, std::uint64_t seed) {
  SimJob job;
  fl::Checkpoint global = in.model.init_params;
  const auto t0 = Clock::now();
  for (std::size_t round = 1; round <= kRoundsPerJob; ++round) {
    const auto r0 = Clock::now();
    auto result = fl::tools::RunFedAvgSimulation(
        in.plan, global, in.users, {}, RoundConfig(seed, round));
    job.round_ms.push_back(NanosSince(r0) / 1e6);
    if (!result.ok() || result->trajectory.size() != 1) break;
    ++job.rounds_ok;
    job.final_loss = result->trajectory.back().train_loss;
    global = std::move(result->final_model);
  }
  job.wall_s = SecondsSince(t0);
  job.crc = ModelCrc(global);
  job.ok = job.rounds_ok == kRoundsPerJob && std::isfinite(job.final_loss);
  return job;
}

double InitialLoss(const SimInputs& in) {
  auto eval = fl::fedavg::RunClientEvaluation(
      in.plan.device, in.model.init_params, in.held_out,
      in.plan.min_runtime_version);
  return eval.ok() ? eval->mean_loss : 0;
}

struct Setup {
  SimInputs inputs;
  std::vector<double> setup_s;
  double bytes_per_user = 0;
};

// Builds the inputs several times and keeps the last build. The first build
// starts from a trimmed heap and gives the memory per user; set-up time is
// the median over all builds, most of which reuse the allocator's warm pages
// (page-fault cost on this small set-up swings with host load).
Setup TimedSetup(std::uint64_t seed, Report& report) {
  Setup s;
  std::uint32_t first_crc = 0;
  ReleaseFreedMemory();
  for (int i = 0; i < 9; ++i) {
    s.inputs = SimInputs{};
    const std::size_t rss0 = CurrentRssBytes();
    const auto t0 = Clock::now();
    s.inputs = BuildInputs(seed);
    s.setup_s.push_back(SecondsSince(t0));
    if (i == 0) {
      const std::size_t rss1 = CurrentRssBytes();
      s.bytes_per_user =
          rss1 > rss0 ? static_cast<double>(rss1 - rss0) / kUsers : 0;
    }
    const std::uint32_t crc = ModelCrc(s.inputs.model.init_params);
    if (i == 0) first_crc = crc;
    report.Attempt(crc == first_crc && s.inputs.users.size() == kUsers,
                   "set-up " + std::to_string(i + 1) + " built other inputs");
  }
  return s;
}

void ReportTimed(const Options& options, Report& report) {
  const Setup setup = TimedSetup(options.seed, report);
  const SimInputs& in = setup.inputs;
  const double initial_loss = InitialLoss(in);

  std::vector<SimJob> jobs;
  const auto budget_t0 = Clock::now();
  while (jobs.size() < 2 ||
         (SecondsSince(budget_t0) < options.seconds && jobs.size() < 64)) {
    jobs.push_back(RunJob(in, options.seed));
    const SimJob& job = jobs.back();
    const bool ok = job.ok && job.crc == jobs.front().crc &&
                    job.final_loss < initial_loss;
    report.Attempt(ok, "job " + std::to_string(jobs.size()) +
                           ": failed round, model differs from job 1, or "
                           "loss did not fall below the initial loss");
  }

  std::vector<double> round_ms, rounds_per_s;
  std::size_t rounds_ok = 0;
  for (const SimJob& job : jobs) {
    round_ms.insert(round_ms.end(), job.round_ms.begin(), job.round_ms.end());
    rounds_per_s.push_back(static_cast<double>(job.rounds_ok) / job.wall_s);
    rounds_ok += job.rounds_ok;
  }
  const double passed = static_cast<double>(report.attempted() -
                                            report.failed()) /
                        static_cast<double>(report.attempted());

  char line[256];
  std::snprintf(line, sizeof(line),
                "fedavg_sim: %zu users x %zu sentences, %zu clients/round, "
                "%zu threads, %zu jobs x %zu rounds; initial loss %.4f, final "
                "train loss %.4f, model crc %08x",
                kUsers, kSentencesPerUser, kClientsPerRound, Threads(),
                jobs.size(), kRoundsPerJob, initial_loss,
                jobs.front().final_loss,
                static_cast<unsigned>(jobs.front().crc));
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "also: train_loss %.6g loss, check_fail_frac %.6g (%zu round "
                "latencies)",
                jobs.front().final_loss, 1.0 - passed, round_ms.size());
  report.Note(line);

  report.Set("setup_s", Median(setup.setup_s), "s");
  report.Set("rounds_per_s", Median(rounds_per_s), "1/s");
  report.Set("client_updates_per_s", Median(rounds_per_s) * kClientsPerRound,
             "1/s");
  report.Set("round_ms_p50", Quantile(round_ms, 0.5), "ms");
  report.Set("round_ms_p90", Quantile(round_ms, 0.9), "ms");
  report.Set("peak_rss_mb",
             static_cast<double>(fl::PeakRssBytes()) / (1024.0 * 1024.0),
             "MiB");
  report.Set("bytes_per_device", setup.bytes_per_user, "B");
  report.Set("upload_bytes_per_update",
             static_cast<double>(in.model.init_params.Serialize().size()), "B");
  report.Set("round_success_frac",
             static_cast<double>(rounds_ok) /
                 static_cast<double>(jobs.size() * kRoundsPerJob),
             "frac");
  report.Set("report_frac", 1.0, "frac");
  report.Set("check_pass_frac", passed, "frac");
}

// ---------------------------------------------------------------------------
// Traced run: the library's round engine, replayed with per-task timing.
// ---------------------------------------------------------------------------

struct Shard {
  Shard(fl::plan::AggregationOp op, const fl::Checkpoint& schema)
      : acc(op, schema) {}
  fl::fedavg::FedAvgAccumulator acc;
  std::vector<double> train_ms;
  double busy_ms = 0;
  bool ok = true;
};

struct ReplayRound {
  double wall_ms = 0;
  double parallel_ms = 0;
  double merge_ms = 0;
  double busy_ms = 0;
  std::size_t shards = 0;
  std::size_t accepted = 0;
  std::vector<double> client_ms;
};

// Mirrors RunFedAvgSimulation's parallel path for one round: the same
// pre-drawn cohort, candidate i on shard i % shards, shards merged in index
// order, then FinalizeInPlace.
ReplayRound Replay(fl::common::ThreadPool& pool, const SimInputs& in,
                   const fl::tools::SimulationConfig& config,
                   fl::Checkpoint& global, bool& ok) {
  ReplayRound out;
  const auto r0 = Clock::now();
  fl::Rng rng(config.seed);
  struct Planned {
    std::size_t client;
    fl::Rng shuffle;
  };
  std::vector<Planned> planned;
  for (std::size_t attempts = 0; planned.size() < config.clients_per_round &&
                                 attempts < config.clients_per_round * 4;
       ++attempts) {
    const std::size_t c = rng.UniformInt(in.users.size());
    if (in.users[c].empty()) continue;
    if (rng.Bernoulli(config.client_failure_rate)) continue;
    planned.push_back(Planned{c, rng.Fork()});
  }
  const fl::plan::AggregationOp op = in.plan.server.aggregation;
  fl::fedavg::FedAvgAccumulator master(op, global);
  const std::size_t shard_count =
      std::max<std::size_t>(1, std::min(pool.size(), planned.size()));
  std::vector<Shard> shards;
  shards.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) shards.emplace_back(op, global);

  const auto p0 = Clock::now();
  pool.ParallelFor(shard_count, [&](std::size_t s) {
    Shard& shard = shards[s];
    for (std::size_t i = s; i < planned.size(); i += shard_count) {
      const auto t0 = Clock::now();
      fl::Rng shuffle = planned[i].shuffle;
      auto update = fl::fedavg::RunClientUpdate(
          in.plan.device, global, in.users[planned[i].client],
          in.plan.min_runtime_version, shuffle);
      const double train_ms = NanosSince(t0) / 1e6;
      shard.train_ms.push_back(train_ms);
      if (!update.ok()) continue;
      shard.ok = shard.acc
                     .Accumulate(std::move(update->weighted_delta),
                                 update->weight, update->metrics)
                     .ok() &&
                 shard.ok;
      shard.busy_ms += NanosSince(t0) / 1e6;
    }
  });
  out.parallel_ms = NanosSince(p0) / 1e6;

  const auto m0 = Clock::now();
  for (Shard& shard : shards) {
    ok = ok && shard.ok &&
         master
             .AccumulateSum(shard.acc.delta_sum(), shard.acc.weight_sum(),
                            shard.acc.contributions())
             .ok();
    out.busy_ms += shard.busy_ms;
    out.accepted += shard.acc.contributions();
    out.client_ms.insert(out.client_ms.end(), shard.train_ms.begin(),
                         shard.train_ms.end());
  }
  ok = ok && master.FinalizeInPlace(global).ok();
  out.merge_ms = NanosSince(m0) / 1e6;
  out.shards = shard_count;
  out.wall_ms = NanosSince(r0) / 1e6;
  return out;
}

void ReportTraced(const Options& options, Report& report) {
  const SimInputs in = BuildInputs(options.seed);
  const SimJob timed = RunJob(in, options.seed);
  report.Attempt(timed.ok, "timed job failed");

  fl::common::ThreadPool pool(Threads());
  fl::Checkpoint global = in.model.init_params;
  bool ok = true;
  std::vector<double> wall, parallel, merge, client_ms, straggler;
  double busy = 0, train = 0, capacity = 0, round_thread_ms = 0;
  std::size_t accepted = 0;
  for (std::size_t round = 1; round <= kRoundsPerJob; ++round) {
    const ReplayRound r =
        Replay(pool, in, RoundConfig(options.seed, round), global, ok);
    wall.push_back(r.wall_ms);
    parallel.push_back(r.parallel_ms);
    merge.push_back(r.merge_ms);
    client_ms.insert(client_ms.end(), r.client_ms.begin(), r.client_ms.end());
    const double median_client = Median(r.client_ms);
    if (median_client > 0) {
      straggler.push_back(
          *std::max_element(r.client_ms.begin(), r.client_ms.end()) /
          median_client);
    }
    busy += r.busy_ms;
    for (double ms : r.client_ms) train += ms;
    accepted += r.accepted;
    capacity += r.parallel_ms * static_cast<double>(r.shards);
    round_thread_ms += r.wall_ms * static_cast<double>(r.shards);
  }
  // The replay is the library's round engine: it must land on the same model.
  report.Attempt(ok && ModelCrc(global) == timed.crc,
                 "replayed rounds diverge from RunFedAvgSimulation");

  const double timed_ms = Median(timed.round_ms);
  const double explained_ms = Median(parallel) + Median(merge);
  char line[200];
  std::snprintf(line, sizeof(line),
                "fedavg_sim traced: %zu rounds replayed on %zu threads; round "
                "%.3f ms timed vs %.3f ms replayed (parallel %.3f + merge "
                "%.3f)",
                wall.size(), pool.size(), timed_ms, Median(wall),
                Median(parallel), Median(merge));
  report.Note(line);

  for (const char* name :
       {"sim.events_scheduled", "sim.events_fired", "sim.events_cancelled",
        "sim.events_cascaded", "sim.heap_callbacks"}) {
    report.Set(name, 0, "count");
  }
  report.Set("sim.step_ns_p50", 0, "ns");
  report.Set("sim.step_ns_p99", 0, "ns");
  report.Set("device.checkins", 0, "count");
  report.Set("device.attest_pair_ns", 0, "ns");
  report.Set("device.attest_share", 0, "frac");
  report.Set("actor.messages", 0, "count");
  report.Set("actor.step_ns", 0, "ns");
  report.Set("actor.share", 0, "frac");
  report.Set("core.checkin_step_ns", 0, "ns");
  report.Set("core.other_step_ns", 0, "ns");
  report.Set("server.checkin_accept_ratio", 0, "frac");
  report.Set("server.rounds_started", static_cast<double>(wall.size()),
             "count");
  report.Set("server.update_yield",
             static_cast<double>(accepted) /
                 static_cast<double>(client_ms.size()),
             "frac");
  report.Set("fedavg.client_update_ms_p50", Quantile(client_ms, 0.5), "ms");
  report.Set("fedavg.client_update_ms_p90", Quantile(client_ms, 0.9), "ms");
  report.Set("fedavg.train_share",
             round_thread_ms > 0 ? train / round_thread_ms : 0, "frac");
  report.Set("fedavg.merge_ms", Median(merge), "ms");
  report.Set("fedavg.encode_us", 0, "us");
  report.Set("fedavg.decode_us", 0, "us");
  report.Set("fedavg.codec_ratio", 0, "x");
  report.Set("fedavg.codec_share", 0, "frac");
  report.Set("secagg.share_keys_ms", 0, "ms");
  report.Set("secagg.mask_input_ms", 0, "ms");
  report.Set("secagg.unmask_ms", 0, "ms");
  report.Set("secagg.finalize_ms", 0, "ms");
  report.Set("secagg.prg_words", 0, "count");
  report.Set("secagg.modexps", 0, "count");
  report.Set("secagg.share", 0, "frac");
  report.Set("pool.busy_frac", capacity > 0 ? busy / capacity : 0, "frac");
  report.Set("pool.straggler_ratio", Median(straggler), "x");
  report.Set("trace.overhead_frac", Median(wall) / timed_ms - 1.0, "frac");
  report.Set("trace.unattributed_frac",
             std::max(0.0, timed_ms - explained_ms) / timed_ms, "frac");
}

}  // namespace

void RunFedAvgSim(const Options& options, Report& report) {
  if (options.trace) {
    ReportTraced(options, report);
  } else {
    ReportTimed(options, report);
  }
}

}  // namespace perfbench

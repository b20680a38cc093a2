// Parallel round engine throughput: sweeps SimulationConfig::threads over
// {1, 2, 4, 8} on a nextword-convergence-sized workload (100 clients per
// round) and reports simulated-round throughput. The paper scales a round
// by fanning client updates across ephemeral Aggregators under a Master
// Aggregator (Sec. 4.2); here the same reduction tree runs in-process with
// one accumulator shard per worker thread.
//
// A second sweep, run first because its children must fork before this
// process starts a thread, sizes FLSystem's compute-pool cutoff for device
// training. It runs one plain fleet whose 64 -> 8 logistic regression
// trains for 1 to 32 epochs, so only the training work per update
// (parameters x epochs x batch size) grows, and then a 1 024 -> 8 one for
// 1 and 2 epochs, whose parameters also widen the loop's per-example work
// (generating and querying examples). Each runs with its client updates on
// the event loop and again as compute-pool jobs. Each run is a forked
// child, so the serial run's allocator has never seen a second thread. The
// cutoff is the work from which the pooled fleet is faster.
//
// Results go to stdout and, machine-readable, to BENCH_parallel_rounds.json
// in the current directory (threads, seconds, rounds/sec, client updates/s,
// speedup vs threads=1, the cutoff sweep, plus the host's
// hardware_concurrency — speedups are bounded by physical cores, not by the
// requested thread count).
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "src/data/blobs.h"
#include "src/data/text.h"
#include "src/tools/simulation_runner.h"

using namespace fl;

namespace {

struct SweepPoint {
  std::size_t threads = 0;
  double seconds = 0;
  double rounds_per_sec = 0;
  double updates_per_sec = 0;
  double final_train_loss = 0;
};

struct CutoffPoint {
  std::size_t features = 0;
  std::size_t epochs = 0;
  std::size_t work = 0;  // parameters x epochs x batch size
  std::size_t rounds = 0;
  double serial_s = 0;  // medians over paired runs
  double pooled_s = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct FleetRun {
  double run_s = 0;
  std::size_t rounds = 0;
};

// Two simulated hours of a 3 000-device plain fleet training a `features`
// -> 8 logistic regression for `epochs` epochs (40 examples per device,
// batch 32), in a forked child whose pool cutoff is `min_work`. Devices
// train at 200 examples/s, so the epochs barely move the simulated schedule.
FleetRun TimeFleetInChild(std::size_t features, std::size_t epochs,
                          std::size_t min_work) {
  int fds[2];
  FL_CHECK(::pipe(fds) == 0);
  std::fflush(stdout);
  const pid_t pid = ::fork();
  FL_CHECK(pid >= 0);
  if (pid == 0) {
    ::close(fds[0]);
    core::internal::SetTrainingPoolMinWorkForBench(min_work);
    core::FLSystemConfig config;
    config.seed = 7;
    config.population.device_count = 3000;
    config.population.mean_examples_per_sec = 200;
    config.selector_count = 2;
    config.coordinator_tick = Seconds(15);
    config.pace.rendezvous_period = Minutes(3);
    config.device_checkin_cadence = Minutes(45);
    protocol::RoundConfig rc;
    rc.goal_count = 25;
    rc.overselection = 1.3;
    rc.selection_timeout = Minutes(5);
    rc.min_selection_fraction = 0.6;
    rc.reporting_deadline = Minutes(10);
    rc.min_reporting_fraction = 0.6;
    rc.devices_per_aggregator = 20;
    core::FLSystem system(config);
    Rng model_rng(1);
    plan::TrainingHyperparams hyper;
    hyper.learning_rate = 0.1f;
    hyper.epochs = epochs;
    system.AddTrainingTask("train",
                           graph::BuildLogisticRegression(features, 8,
                                                          model_rng),
                           hyper, {}, rc, Seconds(30));
    auto blobs = std::make_shared<data::BlobsWorkload>(
        data::BlobsParams{.classes = 8, .feature_dim = features}, 5);
    system.ProvisionData([blobs](const sim::DeviceProfile& profile,
                                 core::DeviceAgent& agent, Rng&, SimTime now) {
      agent.GetOrCreateStore("default").AddBatch(
          blobs->UserExamples(profile.id.value, 40, now));
    });
    system.Start();
    const auto t0 = std::chrono::steady_clock::now();
    system.RunFor(Hours(2));
    FleetRun run;
    run.run_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    run.rounds = system.stats().rounds_committed();
    const bool pooled = system.compute_pool() != nullptr;
    if (pooled != (min_work == 0)) run.rounds = 0;  // cutoff not applied
    FL_CHECK(::write(fds[1], &run, sizeof(run)) ==
             static_cast<ssize_t>(sizeof(run)));
    ::_exit(0);
  }
  ::close(fds[1]);
  FleetRun run;
  FL_CHECK(::read(fds[0], &run, sizeof(run)) ==
           static_cast<ssize_t>(sizeof(run)));
  ::close(fds[0]);
  int status = 0;
  FL_CHECK(::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0);
  return run;
}

// Serial and pooled runs alternate over `reps` pairs so drift on a shared
// host hits both; both must commit the same rounds.
CutoffPoint CutoffCost(std::size_t features, std::size_t epochs,
                       std::size_t reps) {
  constexpr std::size_t kNever = ~std::size_t{0};
  CutoffPoint p;
  p.features = features;
  p.epochs = epochs;
  p.work = (features * 8 + 8) * epochs * 32;
  std::vector<double> serial, pooled;
  for (std::size_t r = 0; r < reps; ++r) {
    const FleetRun s = TimeFleetInChild(features, epochs, kNever);
    const FleetRun q = TimeFleetInChild(features, epochs, 0);
    FL_CHECK(s.rounds > 0 && s.rounds == q.rounds);
    p.rounds = s.rounds;
    serial.push_back(s.run_s);
    pooled.push_back(q.run_s);
  }
  p.serial_s = Median(serial);
  p.pooled_s = Median(pooled);
  return p;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Parallel round engine — thread sweep on a 100-client/round workload",
      "Sec. 4.2: rounds fan out across ephemeral Aggregators under a Master "
      "Aggregator; per-round wall clock should drop near-linearly with "
      "workers.");

  // --- Cutoff sweep, first: its children must fork before this process
  // starts a thread. ---
  std::vector<CutoffPoint> cutoff;
  for (std::size_t epochs : {1u, 2u, 4u, 8u, 16u, 32u}) {
    cutoff.push_back(CutoffCost(64, epochs, 5));
  }
  for (std::size_t epochs : {1u, 2u}) {
    cutoff.push_back(CutoffCost(1024, epochs, 5));
  }
  std::printf("\nTraining pool cutoff sweep (3 000-device plain fleet, "
              "features -> 8 LR, 2 sim-h, median of 5 paired runs):\n");
  std::printf("%8s %7s %9s %7s %10s %10s %8s\n", "features", "epochs", "work",
              "rounds", "serial s", "pooled s", "ratio");
  for (const CutoffPoint& p : cutoff) {
    std::printf("%8zu %7zu %9zu %7zu %10.3f %10.3f %8.3f\n", p.features,
                p.epochs, p.work, p.rounds, p.serial_s, p.pooled_s,
                p.pooled_s / p.serial_s);
  }

  // nextword-convergence-sized: Markov keyboard corpus, embedding+tanh LM.
  data::TextWorkloadParams text_params;
  text_params.vocab_size = 64;
  text_params.context = 3;
  data::TextWorkload corpus(text_params, 4242);

  const std::size_t users = 200;
  std::vector<std::vector<data::Example>> per_user;
  per_user.reserve(users);
  for (std::uint64_t u = 0; u < users; ++u) {
    per_user.push_back(corpus.UserExamples(u, 25, SimTime{0}));
  }

  Rng model_rng(9);
  const graph::Model model = graph::BuildNextWordModel(
      text_params.vocab_size, text_params.context, 16, 64, model_rng);
  plan::TrainingHyperparams hyper;
  hyper.batch_size = 32;
  hyper.epochs = 2;
  hyper.learning_rate = 0.4f;
  const plan::FLPlan plan = plan::MakeTrainingPlan(model, "lm", hyper, {});

  tools::SimulationConfig base;
  base.clients_per_round = 100;
  base.rounds = 4;
  base.eval_every = 0;  // measure the round engine, not evaluation
  base.seed = 71;

  const std::size_t hw = std::thread::hardware_concurrency();
  std::printf("\nhardware_concurrency = %zu\n", hw);
  std::printf("%8s %10s %12s %14s %10s %14s\n", "threads", "seconds",
              "rounds/s", "updates/s", "speedup", "train loss");

  std::vector<SweepPoint> points;
  for (std::size_t threads : {1, 2, 4, 8}) {
    tools::SimulationConfig config = base;
    config.threads = threads;
    // Warm-up pass (page-in, allocator steady state), then the timed run.
    {
      tools::SimulationConfig warm = config;
      warm.rounds = 1;
      FL_CHECK(tools::RunFedAvgSimulation(plan, model.init_params, per_user,
                                          {}, warm)
                   .ok());
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = tools::RunFedAvgSimulation(plan, model.init_params,
                                                   per_user, {}, config);
    const auto t1 = std::chrono::steady_clock::now();
    FL_CHECK(result.ok());

    SweepPoint p;
    p.threads = threads;
    p.seconds = std::chrono::duration<double>(t1 - t0).count();
    p.rounds_per_sec = static_cast<double>(config.rounds) / p.seconds;
    p.updates_per_sec = p.rounds_per_sec *
                        static_cast<double>(config.clients_per_round);
    p.final_train_loss = result->trajectory.back().train_loss;
    points.push_back(p);

    const double speedup = points.front().seconds / p.seconds;
    std::printf("%8zu %10.3f %12.2f %14.1f %9.2fx %14.4f\n", p.threads,
                p.seconds, p.rounds_per_sec, p.updates_per_sec, speedup,
                p.final_train_loss);
  }

  bench::JsonWriter json;
  json.BeginObject()
      .Field("bench", "parallel_rounds")
      .Field("workload", "nextword LM, 200 users, 100 clients/round, "
                         "25 examples/client, 2 epochs, batch 32")
      .Field("clients_per_round", std::size_t{100})
      .Field("rounds_timed", base.rounds)
      .EnvironmentFields()
      .BeginArray("results");
  for (const SweepPoint& p : points) {
    json.BeginObject()
        .Field("threads", p.threads)
        .Field("seconds", p.seconds)
        .Field("rounds_per_sec", p.rounds_per_sec)
        .Field("client_updates_per_sec", p.updates_per_sec)
        .Field("speedup_vs_1_thread", points.front().seconds / p.seconds)
        .Field("final_train_loss", p.final_train_loss)
        .EndObject();
  }
  json.EndArray().BeginArray("pool_cutoff_sweep");
  for (const CutoffPoint& p : cutoff) {
    json.BeginObject()
        .Field("features", p.features)
        .Field("epochs", p.epochs)
        .Field("training_work", p.work)
        .Field("rounds_committed", p.rounds)
        .Field("serial_run_s", p.serial_s)
        .Field("pooled_run_s", p.pooled_s)
        .Field("pooled_over_serial", p.pooled_s / p.serial_s)
        .EndObject();
  }
  json.EndArray().EndObject();

  const char* out = "BENCH_parallel_rounds.json";
  if (json.WriteFile(out)) {
    std::printf("\nwrote %s\n", out);
  } else {
    std::printf("\nFAILED to write %s\n", out);
    return 1;
  }
  std::printf("(speedup saturates at the host's physical core count; "
              "threads=1 is the bit-exact sequential baseline)\n");
  return 0;
}

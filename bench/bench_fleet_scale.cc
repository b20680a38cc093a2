// Fleet-scale event core benchmark: can the simulator's discrete-event
// substrate carry a million-device population (Sec. 2: populations of
// "up to tens of millions" with ~10k concurrent participants)?
//
// Two measurements:
//
//  1. Churn microbench: the simulator's dominant queue pattern is timeout
//     churn — every session schedules deadlines that are almost always
//     cancelled before they fire. Reports queue operations per second and
//     the queue's lifetime counters (every scheduled event is either fired
//     or cancelled once the queue drains).
//
//  2. Fleet macro run: N devices (default 1,000,000) simulated over a
//     multi-day diurnal cycle, reporting events/sec, peak RSS,
//     bytes/device, the queue's lifetime counters, and the wheel's
//     per-level occupancy.
//
// Results go to stdout and BENCH_fleet_scale.json.
//
// Usage: bench_fleet_scale [devices] [sim_hours]   (defaults: 1000000 48)
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"
#include "src/sim/event_queue.h"

using namespace fl;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Current (not peak) resident set, for a before/after delta around the
// fleet run: the macro numbers should not charge the churn bench's memory
// to the fleet.
std::size_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    std::size_t kb = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %zu kB", &kb) == 1) {
      return kb * 1024;
    }
    break;
  }
  return 0;
}

struct ChurnResult {
  double seconds = 0;
  double ops_per_sec = 0;
  sim::EventQueue::Stats stats;
};

// Timeout churn: each round schedules a batch of deadlines spread over the
// next ten minutes, cancels 90% of them (sessions that completed in time),
// and advances the clock one minute so survivors interleave with fresh
// batches across wheel levels. ops/sec counts every queue operation the
// engine absorbed: schedules, cancels, and fires.
ChurnResult ChurnBench(std::size_t rounds, std::size_t batch) {
  sim::EventQueue q;
  Rng rng(11);
  std::uint64_t fired = 0;
  std::vector<sim::EventHandle> handles(batch);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < batch; ++i) {
      handles[i] = q.After(Millis(1 + static_cast<std::int64_t>(
                                           rng.UniformInt(std::uint64_t{
                                               10 * 60 * 1000}))),
                           [&fired] { ++fired; });
    }
    for (std::size_t i = 0; i < batch; ++i) {
      if (i % 10 != 0) q.Cancel(handles[i]);
    }
    q.RunFor(Minutes(1));
  }
  q.Run();
  ChurnResult result;
  result.seconds = SecondsSince(t0);
  result.stats = q.stats();
  const std::uint64_t ops =
      result.stats.scheduled + result.stats.cancelled + result.stats.fired;
  result.ops_per_sec = static_cast<double>(ops) / result.seconds;
  FL_CHECK(fired == result.stats.fired);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t devices =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1'000'000;
  const std::int64_t sim_hours = argc > 2 ? std::atoll(argv[2]) : 48;

  bench::PrintHeader(
      "Fleet-scale event core — a million devices on one queue",
      "Sec. 2: FL populations reach tens of millions of devices; the "
      "simulator's event core must sustain that scale in memory and "
      "events/sec.");

  // --- 1. churn microbench ---
  const std::size_t churn_rounds = 2'000;
  const std::size_t churn_batch = 1'000;
  ChurnBench(100, churn_batch);  // warm-up
  const ChurnResult churn = ChurnBench(churn_rounds, churn_batch);

  std::printf("\nchurn microbench (%zu rounds x %zu timeouts, 90%% "
              "cancelled):\n", churn_rounds, churn_batch);
  std::printf("  %-12s %8.2f M ops/s  (%.3f s)\n", "throughput",
              churn.ops_per_sec / 1e6, churn.seconds);
  std::printf("  %-12s %llu scheduled = %llu fired + %llu cancelled\n",
              "events",
              static_cast<unsigned long long>(churn.stats.scheduled),
              static_cast<unsigned long long>(churn.stats.fired),
              static_cast<unsigned long long>(churn.stats.cancelled));

  // --- 2. fleet macro run ---
  const std::size_t rss_before = CurrentRssBytes();
  const auto build_t0 = std::chrono::steady_clock::now();
  auto config = bench::FleetConfig(devices, /*seed=*/42);
  // Provision once, so the event counts stay comparable across recordings:
  // a refresh adds one event per period (devices generate data lazily, when
  // they start training), and only changes what the devices that train
  // later read.
  config.data_refresh_period = Millis(0);
  core::FLSystem system(std::move(config));
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.2f;
  hyper.epochs = 1;
  system.AddTrainingTask("train", bench::BenchModel(), hyper, {},
                         bench::StandardRound(25), Seconds(30));
  // Every device has data (a selected-but-empty device fails its round,
  // Sec. 5's "-v[*"), but a small batch each: example storage must not
  // drown the per-device footprint the bench is measuring. Only devices
  // that start training ever generate it.
  system.ProvisionData(bench::BlobsProvisioner(/*seed=*/5,
                                               /*per_device=*/30));
  system.Start();
  const double build_seconds = SecondsSince(build_t0);

  const auto run_t0 = std::chrono::steady_clock::now();
  system.RunFor(Hours(sim_hours));
  const double run_seconds = SecondsSince(run_t0);

  const sim::EventQueue::Stats fleet = system.queue().stats();
  const auto occupancy = system.queue().LevelOccupancy();
  const std::size_t peak_rss = bench::PeakRssBytes();
  const std::size_t fleet_rss =
      peak_rss > rss_before ? peak_rss - rss_before : 0;
  const double bytes_per_device =
      static_cast<double>(fleet_rss) / static_cast<double>(devices);
  const double events_per_sec =
      static_cast<double>(fleet.fired) / run_seconds;

  std::printf("\nfleet macro run:\n");
  std::printf("  %-24s %zu\n", "devices", devices);
  std::printf("  %-24s %lld h\n", "simulated time",
              static_cast<long long>(sim_hours));
  std::printf("  %-24s %.1f s build + provision, %.1f s run\n", "wall time",
              build_seconds, run_seconds);
  std::printf("  %-24s %.2f M fired (%.2f M scheduled, %.2f M cancelled)\n",
              "events",
              static_cast<double>(fleet.fired) / 1e6,
              static_cast<double>(fleet.scheduled) / 1e6,
              static_cast<double>(fleet.cancelled) / 1e6);
  std::printf("  %-24s %.2f M events/s\n", "throughput", events_per_sec / 1e6);
  std::printf("  %-24s %.2f GiB peak (%.0f bytes/device)\n", "memory",
              static_cast<double>(fleet_rss) / (1024.0 * 1024.0 * 1024.0),
              bytes_per_device);
  std::printf("  %-24s %zu committed\n", "rounds",
              system.stats().rounds_committed());
  std::printf("  %-24s", "wheel occupancy");
  for (std::size_t level = 0; level < occupancy.size(); ++level) {
    std::printf(" L%zu=%zu", level, occupancy[level]);
  }
  std::printf(" (overflow last)\n");

  bench::JsonWriter json;
  json.BeginObject()
      .Field("bench", "fleet_scale")
      .EnvironmentFields()
      .BeginObject("churn")
      .Field("rounds", churn_rounds)
      .Field("batch", churn_batch)
      .Field("seconds", churn.seconds)
      .Field("ops_per_sec", churn.ops_per_sec)
      .Field("scheduled", static_cast<std::size_t>(churn.stats.scheduled))
      .Field("fired", static_cast<std::size_t>(churn.stats.fired))
      .Field("cancelled", static_cast<std::size_t>(churn.stats.cancelled))
      .EndObject()
      .BeginObject("fleet")
      .Field("devices", devices)
      .Field("sim_hours", static_cast<std::size_t>(sim_hours))
      .Field("build_seconds", build_seconds)
      .Field("run_seconds", run_seconds)
      .Field("events_scheduled", static_cast<std::size_t>(fleet.scheduled))
      .Field("events_fired", static_cast<std::size_t>(fleet.fired))
      .Field("events_cancelled", static_cast<std::size_t>(fleet.cancelled))
      .Field("events_cascaded", static_cast<std::size_t>(fleet.cascaded))
      .Field("heap_callbacks", static_cast<std::size_t>(fleet.heap_callbacks))
      .Field("allocated_nodes", fleet.allocated_nodes)
      .Field("events_per_sec", events_per_sec)
      .Field("peak_rss_bytes", peak_rss)
      .Field("fleet_rss_bytes", fleet_rss)
      .Field("bytes_per_device", bytes_per_device)
      .Field("rounds_committed", system.stats().rounds_committed())
      .BeginArray("wheel_level_occupancy");
  for (std::size_t level : occupancy) {
    json.Field("", level);
  }
  json.EndArray().EndObject().EndObject();

  const char* out = "BENCH_fleet_scale.json";
  if (json.WriteFile(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::printf("FAILED to write %s\n", out);
    return 1;
  }
  return 0;
}

// Observability-plane overhead, one harness for every plane (Sec. 5:
// production monitoring must not tax the system it observes).
//
// Macro: one fleet scenario timed in process CPU seconds (getrusage, every
// thread). The reference is the shipping default: recorder on; telemetry,
// journal, ops plane and profiler off. Each arm flips one switch; the
// ops-plane arm adds the plane to the telemetry arm. A round builds one
// fleet per configuration and runs them in lockstep 15-sim-minute slices,
// switching planes before each slice in an order shuffled per slice, so
// machine-speed drift lands on every configuration alike. Per arm, the
// per-round ratios (CPU with the plane / without) give a median, quartiles
// and a distribution-free 95% interval for the median: `within` if its top
// is <= the bound, `over` if its bottom is above, else `unresolved`.
// Micro: disabled-site costs, held against the reference run as hot-loop
// estimates, and enabled-side throughputs, one run scraped over HTTP among
// them. Compiled-out planes' arms read `compiled_out`. Writes
// BENCH_overhead.json.
//
// Usage: bench_overhead [devices] [sim_hours]   (defaults: 10000 6)
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/analytics/lifecycle.h"
#include "src/ops/http.h"
#include "src/profiler/cpu_profiler.h"
#include "src/profiler/heap_profiler.h"
#include "src/profiler/profiler.h"
#include "src/profiler/start.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"

using namespace fl;

namespace {

constexpr int kRounds = 12;
constexpr Duration kSlice = Minutes(15);
constexpr double kHotLoopBoundPct = 2.0;
const char* const kJournalPath = "BENCH_overhead_journal.log";
volatile std::uint64_t g_sink = 0;

using Rows = std::vector<std::pair<const char*, double>>;

double CpuSecondsNow() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// One configuration's plane switches; the defaults are the shipping ones.
struct Planes {
  bool recorder = true;
  bool telemetry = false;
  bool journal = false;
  bool ops = false;
  const char* profiler_hz = nullptr;    // FL_PROFILER_HZ; nullptr = off
  const char* heap_interval = nullptr;  // FL_PROFILER_HEAP_INTERVAL
};

// A configuration the macro section times. Every one but the reference is
// an arm, compared with configuration `compare_to`.
struct Config {
  const char* name;
  Planes planes;
  double bound_pct;         // NaN: no bound
  int compare_to;           // -1 for the reference
  bool plane_is_reference;  // the plane is on in the compared-to run
  bool CompiledIn() const {
    return (telemetry::kCompiledIn || !planes.telemetry) &&
           (profiler::kCompiledIn || planes.profiler_hz == nullptr);
  }
};

// Per-run CPU seconds and counts, each reported per configuration as the
// median over its runs. The sampler's rate is filled in after the run.
enum Count {
  kCpuSeconds, kFlightRecords, kJournalEvents, kJournalBytes, kCpuSamples,
  kHeapSamples, kActorMessages, kRoundsCommitted, kCpuSamplesPerCpuSecond,
  kNumCounts
};
constexpr std::array<const char*, kNumCounts> kCountNames = {
    "cpu_seconds",    "flight_records", "journal_events", "journal_bytes",
    "cpu_samples",    "heap_samples",   "actor_messages", "rounds_committed",
    "cpu_samples_per_cpu_second"};
using Counts = std::array<double, kNumCounts>;

Counts Snapshot(core::FLSystem& system) {
  return {CpuSecondsNow(),
          static_cast<double>(telemetry::FlightRecorder::Global().total_records()),
          static_cast<double>(analytics::Journal::Global().events_written()),
          static_cast<double>(analytics::Journal::Global().bytes_written()),
          static_cast<double>(profiler::CpuProfiler::Global().samples_taken()),
          static_cast<double>(profiler::HeapProfiler::Global().samples_taken()),
          static_cast<double>(system.actor_system().messages_delivered()),
          static_cast<double>(system.stats().rounds_committed()), 0};
}

// A fleet and its slices' costs so far. The profiler's sampling phase is
// carried across slices, so a profiler arm samples as if run without a break.
struct Fleet {
  std::unique_ptr<core::FLSystem> system;
  Counts counts{};
  itimerval cpu_timer{};
  std::int64_t heap_countdown = 0;
};

// Sets every switch. The profiler arms through StartFromEnv(), as
// FLSystem::Start does in a deployment.
void Apply(const Planes& p) {
  analytics::Journal::Global().Close();
  profiler::StopAll();
  profiler::HeapProfiler::Global().Reset();
  if (p.profiler_hz != nullptr) {
    ::setenv("FL_PROFILER_HZ", p.profiler_hz, 1);
    ::setenv("FL_PROFILER_HEAP_INTERVAL", p.heap_interval, 1);
  }
  profiler::SetEnabled(p.profiler_hz != nullptr);
  telemetry::SetFlightRecorderEnabled(p.recorder);
  telemetry::SetEnabled(p.telemetry);
  if (p.journal) FL_CHECK(analytics::Journal::Global().Open(kJournalPath).ok());
  FL_CHECK(profiler::StartFromEnv().ok());
}

Fleet BuildFleet(std::size_t devices, bool ops) {
  auto config = bench::FleetConfig(devices, /*seed=*/42);
  config.data_refresh_period = Millis(0);
  if (ops) config.statusz_port = 0;
  Fleet f{std::make_unique<core::FLSystem>(std::move(config))};
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.2f;
  hyper.epochs = 1;
  f.system->AddTrainingTask("train", bench::BenchModel(), hyper, {},
                            bench::StandardRound(25), Seconds(30));
  f.system->ProvisionData(bench::BlobsProvisioner(/*seed=*/5, /*per_device=*/30));
  Apply(Planes{});
  f.system->Start();
  FL_CHECK(ops == (f.system->ops_plane() != nullptr));
  return f;
}

// Advances one fleet under `planes`, charging the CPU time and the counts
// to it. The journal's buffered tail is flushed inside the timed window.
void RunSlice(Fleet& f, const Planes& planes, Duration d) {
  Apply(planes);
  const bool sampling = profiler::CpuProfiler::Global().running();
  if (sampling && (f.cpu_timer.it_value.tv_sec | f.cpu_timer.it_value.tv_usec)) {
    ::setitimer(ITIMER_PROF, &f.cpu_timer, nullptr);
  }
#ifndef FL_PROFILER_DISABLED
  profiler::internal::g_heap_countdown = f.heap_countdown;
#endif
  const Counts c0 = Snapshot(*f.system);
  f.system->RunFor(d);
  analytics::Journal::Global().Flush();
  const Counts c1 = Snapshot(*f.system);
  if (sampling) ::getitimer(ITIMER_PROF, &f.cpu_timer);
#ifndef FL_PROFILER_DISABLED
  f.heap_countdown = profiler::internal::g_heap_countdown;
#endif
  for (int c = 0; c < kNumCounts; ++c) f.counts[c] += c1[c] - c0[c];
}

// Median, quartiles (linear interpolation) and the distribution-free
// interval for the median: [x(k), x(n+1-k)] misses the median with
// probability 2 P(Bin(n, 1/2) <= k-1); k is the largest that keeps the
// coverage >= 95%.
struct Summary { double median, q1, q3, lo, hi, coverage; };

Summary Summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(n - 1);
    const auto i = static_cast<std::size_t>(pos);
    const double f = pos - static_cast<double>(i);
    return i + 1 < n ? v[i] + f * (v[i + 1] - v[i]) : v[i];
  };
  const double scale = std::ldexp(1.0, -static_cast<int>(n));
  double coef = 1, cdf = 0, tail = scale;
  std::size_t k = 1;
  for (std::size_t j = 0; 2 * (j + 1) <= n; ++j) {
    cdf += coef * scale;  // P(B <= j)
    if (cdf > 0.025) break;
    k = j + 1;
    tail = cdf;
    coef = coef * static_cast<double>(n - j) / static_cast<double>(j + 1);
  }
  return {at(0.5), at(0.25), at(0.75), v[k - 1], v[n - k], 1.0 - 2.0 * tail};
}

double Pct(double ratio) { return (ratio - 1.0) * 100.0; }

const char* Verdict(double bound, const Summary& s) {
  if (std::isnan(bound)) return "no_bound";
  if (Pct(s.hi) <= bound) return "within";
  if (Pct(s.lo) > bound) return "over";
  return "unresolved";
}

// ns per iteration of `body`, median of five timed passes.
template <typename Body>
double NsPerIter(std::size_t iters, Body body) {
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) body(i);
    const std::chrono::duration<double, std::nano> d =
        std::chrono::steady_clock::now() - t0;
    ns.push_back(d.count() / static_cast<double>(iters));
  }
  return Summarize(ns).median;
}

// Disabled-site ns per call (less the baseline loop, for the sites that wrap
// it) into `micro`; enabled-side throughputs into `enabled`.
void MeasureSites(const Planes& idle, Rows& micro, Rows& enabled) {
  constexpr std::size_t kIters = 10'000'000;
  Apply(Planes{});
  std::uint64_t acc = 0;
  auto work = [&](std::size_t i) { acc += i ^ (acc >> 3); };
  auto emit = [](std::size_t i) {
    analytics::Emit(nullptr, {.t = SimTime{static_cast<std::int64_t>(i)},
                              .kind = analytics::JournalEventKind::kCheckin,
                              .device = DeviceId{i & 1023},
                              .session = SessionId{i}});
  };
  auto emit_site = [&](std::size_t i) { work(i); emit(i); };
  auto& registry = telemetry::MetricsRegistry::Global();
  auto* counter = registry.GetCounter("bench_overhead_total");
  auto* hist = registry.GetHistogram("bench_overhead_value");
  const double base_ns = NsPerIter(kIters, work);
  micro.emplace_back("baseline_loop", base_ns);
  micro.emplace_back("telemetry_site_disabled",
                     NsPerIter(kIters, [&](std::size_t i) {
                       work(i);
                       if (telemetry::Enabled()) {
                         counter->Add();
                         hist->Observe(static_cast<double>(i & 1023));
                       }
                     }) - base_ns);
  micro.emplace_back("emit_journal_closed_recorder_on",
                     NsPerIter(kIters, emit_site) - base_ns);
  telemetry::SetFlightRecorderEnabled(false);
  micro.emplace_back("emit_journal_closed_recorder_off",
                     NsPerIter(kIters, emit_site) - base_ns);
  g_sink = acc;  // keeps the baseline loops live

  FL_CHECK(analytics::Journal::Global().Open(kJournalPath).ok());
  enabled.emplace_back("journal_events_per_sec",
                       1e9 / NsPerIter(200'000, emit));
  enabled.emplace_back(
      "journal_bytes_per_event",
      static_cast<double>(analytics::Journal::Global().bytes_written()) /
          static_cast<double>(analytics::Journal::Global().events_written()));
  Apply(Planes{});
  if (!profiler::kCompiledIn) return;

  char* volatile alloc_sink = nullptr;  // defeats allocation elision
  auto alloc_pair = [&](std::size_t i) {
    char* p = new char[64];
    p[0] = static_cast<char>(i);
    alloc_sink = p;
    delete[] p;
  };
  micro.emplace_back("alloc_pair_profiler_disabled",
                     NsPerIter(kIters, alloc_pair));
  micro.emplace_back("scoped_phase_disabled",
                     NsPerIter(kIters, [](std::size_t i) {
                       profiler::ScopedPhase s(profiler::Phase::kTraining, i);
                     }));
  // Armed idle: one sampled allocation stays live so every delete takes the
  // filter bit test, as in a real run with live samples.
  Apply(idle);
  char* pinned = new char[16];
  micro.emplace_back("alloc_pair_profiler_armed_idle",
                     NsPerIter(kIters, alloc_pair));
  delete[] pinned;
  // Ring writes: the seqlock slot path the SIGPROF handler runs.
  profiler::CpuProfiler& cpu = profiler::CpuProfiler::Global();
  std::uintptr_t frames[16];
  for (std::size_t i = 0; i < 16; ++i) frames[i] = 0x400000 + i * 64;
  cpu.RecordSynthetic(frames, 16);  // allocates the ring outside the loop
  enabled.emplace_back("ring_writes_per_sec",
                       1e9 / NsPerIter(kIters / 10, [&](std::size_t) {
                         cpu.RecordSynthetic(frames, 16);
                       }));
  cpu.ClearForTest();
  Apply(Planes{});
}

// Runs one fleet with the ops plane up while a client thread scrapes the
// four endpoints; appends requests served and scrapes/s to `enabled`.
void MeasureServing(std::size_t devices, std::int64_t sim_hours,
                    const Planes& ops_planes, Rows& enabled) {
  Fleet fleet = BuildFleet(devices, true);
  std::atomic<bool> stop{false};
  std::uint64_t scrapes_ok = 0;
  std::thread client([&, port = fleet.system->ops_plane()->port()] {
    const char* paths[] = {"/metrics", "/statusz", "/rounds", "/healthz"};
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      int status = 0;
      std::string body;
      if (ops::HttpGet("127.0.0.1", port, paths[i % 4], &status, &body)
              .ok() && (status == 200 || status == 503) && !body.empty()) {
        ++scrapes_ok;
      }
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  RunSlice(fleet, ops_planes, Hours(sim_hours));
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  stop.store(true, std::memory_order_relaxed);
  client.join();
  enabled.emplace_back(
      "requests_served",
      fleet.system->ops_plane()->server().http().requests_served());
  enabled.emplace_back("requests_per_sec", scrapes_ok / wall.count());
  Apply(Planes{});
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t devices =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 10'000;
  const std::int64_t sim_hours = argc > 2 ? std::atoll(argv[2]) : 6;

  bench::PrintHeader(
      "Observability-plane overhead — one harness, one verdict rule",
      "Sec. 5: monitoring must not tax the system it observes.");

  // The recorder arm turns the recorder off, so its ratio is inverted.
  const double kNoBound = std::nan("");
  const std::vector<Config> configs = {
      {"reference", {}, kNoBound, -1, false},
      {"recorder", {.recorder = false}, 2.0, 0, true},
      {"telemetry", {.telemetry = true}, kNoBound, 0, false},
      {"journal", {.journal = true}, 5.0, 0, false},
      {"ops_plane", {.telemetry = true, .ops = true}, 2.0, 2, false},
      {"profiler_idle", {.profiler_hz = "0", .heap_interval = "1073741824"},
       2.0, 0, false},
      {"profiler_100hz", {.profiler_hz = "100", .heap_interval = "262144"},
       10.0, 0, false},
  };
  std::vector<int> order;  // the configurations that run
  for (int c = 0; c < static_cast<int>(configs.size()); ++c) {
    if (configs[c].CompiledIn()) order.push_back(c);
  }

  Rows micro, enabled;
  MeasureSites(configs[5].planes, micro, enabled);

  std::vector<std::vector<Fleet>> runs(configs.size());
  const std::int64_t slices = Hours(sim_hours).millis / kSlice.millis;
  std::mt19937 order_rng(7);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Fleet> fleets(configs.size());
    std::rotate(order.begin(), order.begin() + 1, order.end());
    for (int c : order) fleets[c] = BuildFleet(devices, configs[c].planes.ops);
    for (std::int64_t s = 0; s < slices; ++s) {
      std::shuffle(order.begin(), order.end(), order_rng);
      for (int c : order) RunSlice(fleets[c], configs[c].planes, kSlice);
    }
    Apply(Planes{});
    for (int c : order) {
      Counts& n = fleets[c].counts;
      n[kCpuSamplesPerCpuSecond] = n[kCpuSamples] / n[kCpuSeconds];
      fleets[c].system.reset();
      runs[c].push_back(std::move(fleets[c]));
    }
  }
  if (telemetry::kCompiledIn) {
    MeasureServing(devices, sim_hours, configs[4].planes, enabled);
  }

  auto median_of = [&](int c, int k) {
    std::vector<double> v;
    for (const Fleet& f : runs[c]) v.push_back(f.counts[k]);
    return Summarize(v).median;
  };
  const double ref_cpu_s = median_of(0, kCpuSeconds);
  std::printf("\nmacro fleet (%zu devices, %lld sim-h, %d rounds of lockstep "
              "fleets); reference %.3f CPU s\n",
              devices, static_cast<long long>(sim_hours), kRounds, ref_cpu_s);
  std::printf("  %-15s %-6s %6s %8s  %-18s  %-24s %s\n", "arm", "bound",
              "rounds", "median", "[q1, q3]", "95% CI (coverage)", "verdict");

  bench::JsonWriter json;
  json.BeginObject()
      .Field("bench", "overhead")
      .EnvironmentFields()
      .Field("devices", devices)
      .Field("sim_hours", static_cast<std::int64_t>(sim_hours))
      .Field("rounds", static_cast<std::int64_t>(kRounds))
      .Field("slice_sim_minutes", kSlice.Minutes())
      .BeginArray("configs");
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const Config& arm = configs[c];
    char bound[16] = "-";
    json.BeginObject().Field("name", arm.name);
    if (std::isnan(arm.bound_pct)) {
      json.Raw("bound_pct", "null");
    } else {
      json.Field("bound_pct", arm.bound_pct);
      std::snprintf(bound, sizeof(bound), "<=%.0f%%", arm.bound_pct);
    }
    if (!arm.CompiledIn()) {
      json.Field("verdict", "compiled_out").EndObject();
      std::printf("  %-15s %-6s compiled out\n", arm.name, bound);
      continue;
    }
    json.BeginArray("cpu_seconds_per_round");
    for (const Fleet& f : runs[c]) json.Field("", f.counts[kCpuSeconds]);
    json.EndArray().BeginObject("medians");
    for (int k = 0; k < kNumCounts; ++k) {
      json.Field(kCountNames[k], median_of(c, k));
    }
    json.EndObject();
    if (arm.compare_to < 0) {
      json.EndObject();
      continue;
    }
    std::vector<double> ratios;
    for (int r = 0; r < kRounds; ++r) {
      const double on = runs[c][r].counts[kCpuSeconds];
      const double off = runs[arm.compare_to][r].counts[kCpuSeconds];
      ratios.push_back(arm.plane_is_reference ? off / on : on / off);
    }
    const Summary s = Summarize(ratios);
    const char* verdict = Verdict(arm.bound_pct, s);
    json.Field("compared_to", configs[arm.compare_to].name)
        .Field("rounds", static_cast<std::int64_t>(ratios.size()))
        .Field("median_pct", Pct(s.median))
        .Field("q1_pct", Pct(s.q1))
        .Field("q3_pct", Pct(s.q3))
        .Field("ci95_lo_pct", Pct(s.lo))
        .Field("ci95_hi_pct", Pct(s.hi))
        .Field("ci_coverage", s.coverage)
        .Field("verdict", verdict)
        .EndObject();
    std::printf("  %-15s %-6s %6zu %+7.2f%%  [%+6.2f, %+6.2f]    "
                "[%+6.2f, %+6.2f] (%.1f%%)  %s\n",
                arm.name, bound, ratios.size(), Pct(s.median), Pct(s.q1),
                Pct(s.q3), Pct(s.lo), Pct(s.hi), s.coverage * 100.0, verdict);
  }
  json.EndArray();

  // Hot-loop estimates: the disabled sites' share of the reference run. Each
  // journaled Emit() writes one ring record and takes one telemetry gate;
  // each actor message takes two (send and dispatch).
  const double emits = median_of(0, kFlightRecords);
  const double telemetry_sites = 2.0 * median_of(0, kActorMessages) + emits;
  const double ref_ns = ref_cpu_s * 1e9;
  const double telemetry_pct =
      std::max(0.0, micro[1].second) * telemetry_sites / ref_ns * 100.0;
  const double journal_pct =
      std::max(0.0, micro[3].second) * emits / ref_ns * 100.0;
  // A compiled-out plane's rows are absent (see the *_compiled_in fields).
  auto print_rows = [&](const char* title, const char* key, const Rows& rows) {
    std::printf("\n%s:\n", title);
    json.BeginObject(key);
    for (const auto& [name, value] : rows) {
      std::printf("  %-36s %14.3f\n", name, value);
      json.Field(name, value);
    }
    json.EndObject();
  };
  print_rows("disabled sites, ns per call", "micro_ns", micro);
  print_rows("enabled-side throughputs (requests: one scraped run)",
             "throughput", enabled);
  print_rows("hot-loop estimates, % of the reference run (bound 2%)",
             "hot_loop",
             {{"bound_pct", kHotLoopBoundPct},
              {"telemetry_disabled_pct", telemetry_pct},
              {"journal_disabled_pct", journal_pct}});
  const bool hot_ok = std::max(telemetry_pct, journal_pct) <= kHotLoopBoundPct;
  json.Field("hot_loop_verdict", hot_ok ? "within" : "over").EndObject();
  std::remove(kJournalPath);
  if (!json.WriteFile("BENCH_overhead.json")) return 1;
  std::printf("\nwrote BENCH_overhead.json\n");
  return 0;
}

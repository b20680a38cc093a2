// Flight-recorder overhead: proves "always-on" is affordable. Two
// measurements:
//
//  1. Micro: analytics::Emit() of a journaled event with no reducers and
//     the journal closed, in a tight loop — the enabled cost per record
//     (six relaxed stores + one release store + one relaxed fetch_add, plus
//     the Emit() call) and the disabled cost (the call and its gate loads).
//  2. Macro: the fleet simulator (FLSystem, the protocol hot path every
//     record site lives on) run with the recorder OFF vs ON, telemetry and
//     journal OFF both ways. Gate: enabled overhead <= 2% of the OFF run.
//
// Results go to stdout and BENCH_flight_recorder.json.
//
// Usage: bench_flight_recorder [devices] [sim_hours]   (defaults: 20000 4)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"
#include "src/analytics/lifecycle.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

using namespace fl;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One protocol-shaped record per iteration; the varying ids keep the loop
// honest without adding work the real sites don't do.
double RecordLoop(std::size_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    analytics::Emit(nullptr,
                    {.t = SimTime{static_cast<std::int64_t>(i)},
                     .kind = analytics::JournalEventKind::kTrainStart,
                     .device = DeviceId{i & 0xffff},
                     .session = SessionId{i},
                     .round = RoundId{i >> 10}});
  }
  return SecondsSince(t0);
}

double MacroFleetSeconds(std::size_t devices, std::int64_t sim_hours) {
  auto config = bench::FleetConfig(devices, /*seed=*/42);
  config.data_refresh_period = Millis(0);
  core::FLSystem system(std::move(config));
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.2f;
  hyper.epochs = 1;
  system.AddTrainingTask("train", bench::BenchModel(), hyper, {},
                         bench::StandardRound(25), Seconds(30));
  system.ProvisionData(bench::BlobsProvisioner(/*seed=*/5, /*per_device=*/30));
  system.Start();
  const auto t0 = std::chrono::steady_clock::now();
  system.RunFor(Hours(sim_hours));
  return SecondsSince(t0);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t devices =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20'000;
  const std::int64_t sim_hours = argc > 2 ? std::atoll(argv[2]) : 4;

  bench::PrintHeader(
      "Flight-recorder overhead — always-on must stay under 2%",
      "Sec. 8: postmortem evidence must exist before anyone asks for it; "
      "the per-thread rings record every protocol edge even with telemetry "
      "and the journal off, for <= 2% of fleet-simulator throughput.");

  telemetry::SetEnabled(false);  // isolate the recorder's own cost

  // --- 1. micro: ns per record, enabled vs disabled gate ---
  const std::size_t iters = 20'000'000;
  telemetry::SetFlightRecorderEnabled(true);
  RecordLoop(iters / 10);  // warm-up: registers this thread's ring
  const double on_s = RecordLoop(iters);
  telemetry::SetFlightRecorderEnabled(false);
  const double gate_s = RecordLoop(iters);
  const double on_ns = on_s / static_cast<double>(iters) * 1e9;
  const double gate_ns = gate_s / static_cast<double>(iters) * 1e9;
  std::printf("\nmicro loop (%zu records):\n", iters);
  std::printf("  %-28s %8.2f ns/record\n", "recorder enabled", on_ns);
  std::printf("  %-28s %8.2f ns/call (gate only)\n", "recorder disabled",
              gate_ns);

  // --- 2. macro: the fleet simulator with the recorder off vs on ---
  // Interleaved best-of-3 pairs: single runs on a shared machine jitter by
  // more than the effect being measured; the minimum of each arm estimates
  // the noise-free cost, and interleaving keeps drift (thermal, page cache)
  // from loading one arm.
  telemetry::SetFlightRecorderEnabled(false);
  MacroFleetSeconds(devices, sim_hours);  // warm-up
  double off_s = 1e300;
  double macro_on_s = 1e300;
  constexpr int kPairs = 3;
  for (int p = 0; p < kPairs; ++p) {
    telemetry::SetFlightRecorderEnabled(false);
    off_s = std::min(off_s, MacroFleetSeconds(devices, sim_hours));
    telemetry::SetFlightRecorderEnabled(true);
    macro_on_s = std::min(macro_on_s, MacroFleetSeconds(devices, sim_hours));
  }
  telemetry::SetFlightRecorderEnabled(false);
  const double overhead_pct = (macro_on_s - off_s) / off_s * 100.0;
  const bool within_gate = overhead_pct <= 2.0;
  const std::uint64_t recorded =
      telemetry::FlightRecorder::Global().total_records();

  std::printf("\nmacro fleet simulator (%zu devices, %lld sim-hours, "
              "best of %d interleaved pairs):\n",
              devices, static_cast<long long>(sim_hours), kPairs);
  std::printf("  %-28s %8.3f s\n", "recorder disabled", off_s);
  std::printf("  %-28s %8.3f s  (%+.2f%% vs disabled)\n", "recorder enabled",
              macro_on_s, overhead_pct);
  std::printf("  %-28s %llu records across %zu ring(s)\n", "recorded",
              static_cast<unsigned long long>(recorded),
              telemetry::FlightRecorder::Global().rings_registered());
  std::printf("\nalways-on overhead %.2f%% — target <= 2%%: %s\n",
              overhead_pct, within_gate ? "PASS" : "FAIL");

  bench::JsonWriter json;
  json.BeginObject()
      .Field("bench", "flight_recorder")
      .EnvironmentFields()
      .BeginObject("micro")
      .Field("iters", iters)
      .Field("enabled_ns_per_record", on_ns)
      .Field("disabled_gate_ns", gate_ns)
      .EndObject()
      .BeginObject("macro")
      .Field("devices", devices)
      .Field("sim_hours", static_cast<std::size_t>(sim_hours))
      .Field("disabled_seconds", off_s)
      .Field("enabled_seconds", macro_on_s)
      .Field("overhead_pct", overhead_pct)
      .Field("records", static_cast<std::size_t>(recorded))
      .EndObject()
      .Field("within_2pct", within_gate)
      .EndObject();

  const char* out = "BENCH_flight_recorder.json";
  if (json.WriteFile(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::printf("FAILED to write %s\n", out);
    return 1;
  }
  // Timing noise on loaded CI machines can breach the gate spuriously; the
  // JSON records the verdict, the bench itself always exits 0.
  return 0;
}

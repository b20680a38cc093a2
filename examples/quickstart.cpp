// Quickstart: train a small classifier across a simulated fleet of phones
// with Federated Averaging, end to end through the round protocol
// (selection -> configuration -> reporting, Sec. 2.2).
//
//   $ ./examples/quickstart
//
// What happens:
//  1. A 300-device fleet is generated with realistic availability (devices
//     are only eligible while idle, charging, and on WiFi) and network
//     heterogeneity.
//  2. An FL task is defined from a model + hyperparameters; plan generation
//     and versioning run exactly as in a production deployment.
//  3. The actor-model server (Coordinator / Selectors / Master Aggregators /
//     Aggregators) runs rounds; each round aggregates ~20 device updates.
//  4. We watch the global model improve on held-out data.
//
// Set FL_TELEMETRY=1 in the environment to additionally record the round
// telemetry and dump, on exit:
//   quickstart_trace.json    — Chrome trace; open in https://ui.perfetto.dev
//   quickstart_metrics.prom  — Prometheus text exposition
//   quickstart_metrics.json  — the same metrics as flat JSON
// and list every Sec. 5 health check that failed during the run.
//
// Set FL_JOURNAL=<path> to additionally write the durable event journal
// (one line per device/server lifecycle event); analyze it offline with
//   ./src/tools/fl_analyze <path>
//
// Set FL_STATUSZ=<port> (0 = ephemeral) to serve the live ops plane while
// the sim runs — /metrics, /statusz, /rounds, /healthz, /tracez on
// loopback; watch it with  ./src/tools/fl_top --port <port>
#include <cstdio>
#include <cstdlib>

#include "src/analytics/journal.h"
#include "src/common/logging.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/fedavg/client_update.h"
#include "src/graph/model_zoo.h"
#include "src/telemetry/export.h"

using namespace fl;

int main() {
  SetLogLevel(LogLevel::kWarning);

  const char* telemetry_env = std::getenv("FL_TELEMETRY");
  const bool telemetry_on =
      telemetry_env != nullptr && telemetry_env[0] != '\0' &&
      telemetry_env[0] != '0';
  if (telemetry_on) telemetry::SetEnabled(true);

  const char* journal_path = std::getenv("FL_JOURNAL");
  const bool journal_on = journal_path != nullptr && journal_path[0] != '\0';
  if (journal_on) {
    const Status s = analytics::Journal::Global().Open(journal_path);
    if (!s.ok()) {
      std::printf("FAILED to open journal %s: %s\n", journal_path,
                  s.ToString().c_str());
      return 1;
    }
  }

  // --- 1. The deployment: population, network, server topology. ---
  core::FLSystemConfig config;
  config.population_name = "population/quickstart";
  config.population.device_count = 300;
  config.population.mean_examples_per_sec = 150;
  config.selector_count = 2;
  config.pace.rendezvous_period = Minutes(3);
  core::FLSystem system(std::move(config));

  // --- 2. The FL task: model + hyperparameters + round policy. ---
  Rng model_rng(1);
  const graph::Model model = graph::BuildLogisticRegression(8, 4, model_rng);

  plan::TrainingHyperparams hyper;
  hyper.batch_size = 20;
  hyper.epochs = 2;
  hyper.learning_rate = 0.25f;

  protocol::RoundConfig round;
  round.goal_count = 20;       // K updates commit a round (Algorithm 1)
  round.overselection = 1.3;   // select 130% to absorb drop-outs (Sec. 9)
  round.selection_timeout = Minutes(4);
  round.reporting_deadline = Minutes(8);
  round.devices_per_aggregator = 16;

  system.AddTrainingTask("quickstart-train", model, hyper, {}, round,
                         Seconds(30));

  // --- 3. On-device data: every phone's example store gets its own
  //        (label-skewed) slice of a Gaussian-blob mixture. ---
  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
  system.ProvisionData([blobs](const sim::DeviceProfile& profile,
                               core::DeviceAgent& agent, Rng&, SimTime now) {
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 40, now));
  });

  system.Start();
  if (system.ops_plane() != nullptr) {
    std::printf("Ops plane: http://127.0.0.1:%d (try fl_top --port %d)\n",
                system.ops_plane()->port(), system.ops_plane()->port());
  }

  // --- 4. Run simulated hours; report model quality as rounds commit. ---
  const auto eval = blobs->GlobalExamples(99, 500, SimTime{0});
  const plan::FLPlan eval_plan = plan::MakeEvaluationPlan(model, "eval", {});
  std::printf("sim-time   rounds  held-out loss  held-out accuracy\n");
  for (int hour = 1; hour <= 6; ++hour) {
    system.RunFor(Hours(1));
    const auto metrics = fedavg::RunClientEvaluation(
        eval_plan.device, system.model_store().Latest(), eval, 3);
    if (metrics.ok()) {
      std::printf("%8s   %5zu   %12.4f   %16.1f%%\n",
                  FormatSimTime(system.now()).c_str(),
                  system.stats().rounds_committed(), metrics->mean_loss,
                  100.0 * metrics->mean_accuracy);
    }
  }

  std::printf("\nFleet analytics: %llu check-ins, %llu accepted into rounds, "
              "%llu told to come back later\n",
              static_cast<unsigned long long>(system.frontend().checkins()),
              static_cast<unsigned long long>(system.stats().accepted()),
              static_cast<unsigned long long>(system.stats().rejected()));
  std::printf("Traffic: %s down, %s up\n",
              HumanBytes(system.stats().total_download_bytes()).c_str(),
              HumanBytes(system.stats().total_upload_bytes()).c_str());

  if (telemetry_on) {
    const bool ok = telemetry::WriteChromeTraceFile("quickstart_trace.json") &&
                    telemetry::WritePrometheusFile("quickstart_metrics.prom") &&
                    telemetry::WriteMetricsJsonFile("quickstart_metrics.json");
    if (!ok) {
      std::printf("FAILED to write telemetry dumps\n");
      return 1;
    }
    std::printf("\nTelemetry: wrote quickstart_trace.json (open in "
                "ui.perfetto.dev), quickstart_metrics.prom, "
                "quickstart_metrics.json\n");
    const auto& failures = system.health().failures();
    if (!failures.empty()) {
      std::printf("Health checks failed %zu time(s):\n", failures.size());
      for (const ops::FailedCheck& f : failures) {
        std::printf("  [%s] %s: %s\n", FormatSimTime(SimTime{f.t_ms}).c_str(),
                    f.check.name.c_str(), f.check.detail.c_str());
      }
    }
  }
  if (journal_on) {
    auto& journal = analytics::Journal::Global();
    std::printf("\nJournal: wrote %llu events (%llu bytes) to %s — inspect "
                "with fl_analyze\n",
                static_cast<unsigned long long>(journal.events_written()),
                static_cast<unsigned long long>(journal.bytes_written()),
                journal_path);
    journal.Close();
  }
  return 0;
}

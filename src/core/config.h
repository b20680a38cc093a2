// Top-level configuration of a simulated FL deployment: one FL population,
// a device fleet, the network between them, and the server stack.
#pragma once

#include <optional>
#include <string>

#include "src/graph/registry.h"
#include "src/ops/debug_bundle.h"
#include "src/ops/health.h"
#include "src/ops/ops_plane.h"
#include "src/protocol/pace_steering.h"
#include "src/sim/availability.h"
#include "src/sim/network.h"

namespace fl::core {

struct FLSystemConfig {
  std::string population_name = "population/default";
  std::uint64_t seed = 42;

  sim::PopulationParams population;
  sim::DiurnalCurve::Params diurnal;
  sim::NetworkModel::Params network;
  protocol::PaceSteeringPolicy::Params pace;

  // Server topology.
  std::size_t selector_count = 4;
  Duration coordinator_tick = Seconds(10);
  std::size_t max_waiting_per_selector = 5000;
  bool pipelined_selection = true;  // Sec. 4.3 (off = ablation)

  // Device behaviour.
  // Floor on how often a device offers itself for work (the JobScheduler
  // cadence; pace-steering windows can only push check-ins later). The
  // paper: devices "connect as frequently as needed to run all scheduled FL
  // tasks, but not more" (Sec. 2.3).
  Duration device_checkin_cadence = Seconds(60);
  Duration device_give_up = Minutes(8);   // waiting with no server response
  Duration ack_timeout = Minutes(3);      // upload sent, no ack
  Duration data_refresh_period = Hours(12);  // 0 => provision once

  // Analytics resolution.
  Duration stats_bucket = Minutes(15);

  // Live ops plane (Sec. 5): embedded /statusz-/metrics-/healthz server.
  // nullopt = off (zero listening sockets, recording branches disabled).
  // Defaults to the FL_STATUSZ env override: FL_STATUSZ=0 binds an
  // ephemeral loopback port, FL_STATUSZ=8080 a fixed one. Enabling the
  // plane also turns runtime telemetry on (it serves registry metrics).
  std::optional<int> statusz_port = ops::StatuszPortFromEnv();
  // SLO bounds evaluated on each stats tick while telemetry is on and
  // surfaced on /healthz; the defaults are lenient enough for a warming-up
  // CI fleet.
  ops::HealthPolicy health_policy;

  // Diagnostic bundles (anomaly forensics): non-empty = write bundles under
  // this directory when health flips unhealthy or a round is abandoned, and
  // install the fatal-signal flight-recorder dump. Defaults to the
  // FL_BUNDLE_DIR env override; empty = off. Works with or without the
  // statusz plane (the /debugz endpoint needs the plane, captures do not).
  std::string bundle_dir = ops::BundleDirFromEnv();
  ops::DiagnosticBundler::Options bundle_options;  // .dir overridden above
};

}  // namespace fl::core

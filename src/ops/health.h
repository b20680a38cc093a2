// Declarative health / SLO evaluation (Sec. 5: health metrics are "fed
// into automatic time-series monitors that trigger alerts on substantial
// deviations"). This is the one alerting engine: a HealthPolicy states
// bounds, and on every FLSystem stats tick (telemetry on) the evaluator
// re-checks them against the sliding-window store and the tick's registry
// snapshot, remembers each failed check, caches the verdict for /healthz
// (200 healthy / 503 unhealthy), and mirrors each check into
// `fl_ops_health*` gauges so health itself is scrapeable and chartable.
// The liveness check is computed when the report is read, so a sim that
// stops ticking reads unhealthy.
//
// Defaults are deliberately lenient (a small CI fleet mid-warmup must read
// healthy); tests and real deployments tighten them.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/ops/window_store.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace fl::ops {

struct HealthPolicy {
  // Abandoned / finished rounds over the trailing `round_window_ms` must
  // stay at or below this ratio; skipped until `min_rounds_for_ratio`
  // rounds finished in the window (warmup).
  double max_abandoned_ratio = 0.9;
  std::int64_t round_window_ms = 10 * 60 * 1000;
  std::uint64_t min_rounds_for_ratio = 5;

  // Commit-rate floor in rounds/hour over the same window; 0 disables.
  // Also warmup-gated by min_rounds_for_ratio (on *attempted* rounds) so a
  // fleet that has not had time to finish anything is not failed.
  double min_commit_per_hour = 0.0;

  // Cumulative p99 of the fl_actor_mailbox_depth histogram must stay at or
  // below this; 0 disables.
  double max_mailbox_depth_p99 = 0.0;

  // Max wall-clock ms since the last stats tick, measured when the report
  // is read; 0 disables. This is the liveness check: a wedged sim stops
  // ticking and /healthz goes 503.
  std::int64_t max_sample_staleness_wall_ms = 60 * 1000;
};

struct HealthCheck {
  std::string name;  // metric-suffix-safe, e.g. "abandoned_ratio"
  bool ok = true;
  double observed = 0;
  double bound = 0;
  std::string detail;
};

struct HealthReport {
  bool healthy = true;
  std::int64_t evaluated_at_ms = 0;  // series time of the evaluation
  std::uint64_t evaluations = 0;
  std::vector<HealthCheck> checks;

  std::string ToJson() const;
};

// A check that failed at a tick, stamped with the tick's series time.
struct FailedCheck {
  std::int64_t t_ms = 0;
  HealthCheck check;
};

class HealthEvaluator {
 public:
  // The rejected_spike check: the per-tick delta of
  // fl_server_devices_rejected_total fails when it departs from the mean of
  // its trailing kSpikeWindow non-failing deltas by more than kSpikeSigmas
  // standard deviations (floored at kSpikeMinSigma, since a healthy
  // baseline sits near zero). The first sight of the counter only seeds
  // it, and the check passes until kSpikeWarmup deltas form a baseline.
  static constexpr std::size_t kSpikeWindow = 48;
  static constexpr std::size_t kSpikeWarmup = 12;
  static constexpr double kSpikeSigmas = 4.0;
  static constexpr double kSpikeMinSigma = 10.0;

  explicit HealthEvaluator(HealthPolicy policy = {});

  // One stats tick: runs the tick checks (abandoned_ratio, commit_per_hour,
  // mailbox_depth_p99, rejected_spike), caches the report, remembers each
  // failed check and publishes the fl_ops_health gauges. `now_ms` is series
  // time (sim millis in the FLSystem wiring); `now_wall_us` is the tick's
  // wall clock, which the liveness check later reads against.
  HealthReport Evaluate(const SlidingWindowStore& store,
                        const telemetry::MetricsSnapshot& snapshot,
                        std::int64_t now_ms,
                        std::int64_t now_wall_us = telemetry::WallMicros());

  // The last tick's report plus the liveness check, sample_staleness: the
  // wall-clock ms from that tick to `now_wall_us` against the policy
  // bound. This is what /healthz serves. healthy=true with no checks
  // before the first tick.
  HealthReport latest(std::int64_t now_wall_us = telemetry::WallMicros()) const;

  // Every failed tick check so far, oldest first. Sim thread only.
  const std::vector<FailedCheck>& failures() const { return failures_; }

  const HealthPolicy& policy() const { return policy_; }

 private:
  HealthCheck RejectedSpike(const telemetry::MetricsSnapshot& snapshot);

  HealthPolicy policy_;
  std::uint64_t evaluations_ = 0;
  std::vector<FailedCheck> failures_;
  // rejected_spike: the counter at the previous tick (unset until first
  // seen) and the baseline. Failing deltas stay out of the baseline, so a
  // sustained incident keeps failing instead of becoming the new normal.
  std::optional<std::uint64_t> last_rejected_;
  std::deque<double> rejected_baseline_;

  mutable std::mutex mu_;
  HealthReport latest_;
  std::int64_t last_tick_wall_us_ = 0;
};

}  // namespace fl::ops

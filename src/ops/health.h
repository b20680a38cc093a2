// Declarative health / SLO evaluation for the ops plane (Sec. 5: pacing
// steering and on-call alerting both hang off round-health signals). A
// HealthPolicy states bounds; the evaluator re-checks them on every ops
// tick against the sliding-window store and the latest registry snapshot,
// caches the verdict for /healthz (200 healthy / 503 unhealthy), and
// mirrors each check into `fl_ops_health*` gauges so health itself is
// scrapeable and chartable.
//
// Defaults are deliberately lenient (a small CI fleet mid-warmup must read
// healthy); tests and real deployments tighten them.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/analytics/window_store.h"
#include "src/telemetry/metrics.h"

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

  // Max wall-clock ms since the sampler last ran; 0 disables. This is the
  // liveness check: a wedged sim stops ticking and /healthz goes 503.
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

class HealthEvaluator {
 public:
  explicit HealthEvaluator(HealthPolicy policy = {});

  // Runs every check, caches the report, and publishes fl_ops_health
  // gauges. `now_ms` is series time (sim millis in the FLSystem wiring);
  // staleness compares wall-clock micros.
  HealthReport Evaluate(const analytics::SlidingWindowStore& store,
                        const telemetry::MetricsSnapshot& snapshot,
                        std::int64_t now_ms, std::int64_t last_sample_wall_us,
                        std::int64_t now_wall_us);

  // The most recent report (what /healthz serves). healthy=true with zero
  // evaluations before the first tick.
  HealthReport latest() const;

  const HealthPolicy& policy() const { return policy_; }

 private:
  void PublishGauges(const HealthReport& report);

  HealthPolicy policy_;
  std::uint64_t evaluations_ = 0;

  mutable std::mutex mu_;
  HealthReport latest_;
};

}  // namespace fl::ops

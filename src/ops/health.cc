#include "src/ops/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/json_writer.h"

namespace fl::ops {
namespace {

std::string FormatDetail(const char* fmt, double a, double b) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

void PublishGauges(const HealthReport& report) {
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetGauge("fl_ops_health")->Set(report.healthy ? 1.0 : 0.0);
  for (const HealthCheck& c : report.checks) {
    registry.GetGauge("fl_ops_health_" + c.name)->Set(c.ok ? 1.0 : 0.0);
    registry.GetGauge("fl_ops_health_" + c.name + "_observed")
        ->Set(c.observed);
  }
}

}  // namespace

HealthEvaluator::HealthEvaluator(HealthPolicy policy) : policy_(policy) {}

HealthReport HealthEvaluator::Evaluate(
    const SlidingWindowStore& store,
    const telemetry::MetricsSnapshot& snapshot, std::int64_t now_ms,
    std::int64_t now_wall_us) {
  HealthReport report;
  report.evaluated_at_ms = now_ms;
  report.evaluations = ++evaluations_;

  const double committed =
      store.WindowDelta("fl_server_rounds_committed_total",
                        policy_.round_window_ms);
  const double abandoned =
      store.WindowDelta("fl_server_rounds_abandoned_total",
                        policy_.round_window_ms);
  const double finished = committed + abandoned;

  {
    HealthCheck check;
    check.name = "abandoned_ratio";
    check.bound = policy_.max_abandoned_ratio;
    check.observed = finished > 0 ? abandoned / finished : 0.0;
    if (finished < static_cast<double>(policy_.min_rounds_for_ratio)) {
      check.ok = true;
      check.detail = FormatDetail(
          "warmup: %.0f/%.0f rounds finished in window", finished,
          static_cast<double>(policy_.min_rounds_for_ratio));
    } else {
      check.ok = check.observed <= check.bound;
      check.detail = FormatDetail("abandoned ratio %.3f (bound %.3f)",
                                  check.observed, check.bound);
    }
    report.checks.push_back(std::move(check));
  }

  if (policy_.min_commit_per_hour > 0) {
    HealthCheck check;
    check.name = "commit_per_hour";
    check.bound = policy_.min_commit_per_hour;
    const double hours =
        static_cast<double>(policy_.round_window_ms) / (3600.0 * 1000.0);
    check.observed = hours > 0 ? committed / hours : 0.0;
    if (finished < static_cast<double>(policy_.min_rounds_for_ratio)) {
      check.ok = true;
      check.detail = "warmup: too few finished rounds in window";
    } else {
      check.ok = check.observed >= check.bound;
      check.detail = FormatDetail("commit rate %.1f/h (floor %.1f/h)",
                                  check.observed, check.bound);
    }
    report.checks.push_back(std::move(check));
  }

  if (policy_.max_mailbox_depth_p99 > 0) {
    HealthCheck check;
    check.name = "mailbox_depth_p99";
    check.bound = policy_.max_mailbox_depth_p99;
    const auto* h = snapshot.FindHistogram("fl_actor_mailbox_depth");
    check.observed =
        h != nullptr ? telemetry::BucketQuantile(h->bounds, h->counts, 99.0)
                     : 0.0;
    check.ok = check.observed <= check.bound;
    check.detail = FormatDetail("mailbox depth p99 %.1f (bound %.1f)",
                                check.observed, check.bound);
    report.checks.push_back(std::move(check));
  }

  report.checks.push_back(RejectedSpike(snapshot));

  for (const HealthCheck& c : report.checks) {
    if (c.ok) continue;
    report.healthy = false;
    failures_.push_back(FailedCheck{now_ms, c});
  }

  PublishGauges(report);
  {
    std::lock_guard<std::mutex> lock(mu_);
    latest_ = report;
    last_tick_wall_us_ = now_wall_us;
  }
  return report;
}

HealthCheck HealthEvaluator::RejectedSpike(
    const telemetry::MetricsSnapshot& snapshot) {
  HealthCheck check;
  check.name = "rejected_spike";
  const auto* counter =
      snapshot.FindCounter("fl_server_devices_rejected_total");
  if (counter == nullptr) {
    check.detail = "no rejections counted yet";
    return check;
  }
  if (!last_rejected_.has_value()) {
    // First sight of the counter: establish the base so a large
    // pre-existing total doesn't read as one giant delta.
    last_rejected_ = counter->value;
    check.detail = "seeded";
    return check;
  }
  const double delta = static_cast<double>(counter->value - *last_rejected_);
  last_rejected_ = counter->value;
  check.observed = delta;
  if (rejected_baseline_.size() >= kSpikeWarmup) {
    double mean = 0;
    for (double v : rejected_baseline_) mean += v;
    mean /= static_cast<double>(rejected_baseline_.size());
    double var = 0;
    for (double v : rejected_baseline_) var += (v - mean) * (v - mean);
    var /= static_cast<double>(rejected_baseline_.size());
    const double band = kSpikeSigmas * std::max(std::sqrt(var), kSpikeMinSigma);
    check.ok = std::fabs(delta - mean) <= band;
    check.bound = delta >= mean ? mean + band : mean - band;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%.0f rejections this tick vs baseline %.1f +/- %.1f",
                  delta, mean, band);
    check.detail = buf;
  } else {
    check.detail = FormatDetail("warmup: %.0f/%.0f baseline ticks",
                                static_cast<double>(rejected_baseline_.size()),
                                static_cast<double>(kSpikeWarmup));
  }
  if (check.ok) {
    rejected_baseline_.push_back(delta);
    if (rejected_baseline_.size() > kSpikeWindow) {
      rejected_baseline_.pop_front();
    }
  }
  return check;
}

HealthReport HealthEvaluator::latest(std::int64_t now_wall_us) const {
  HealthReport report;
  std::int64_t tick_wall_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    report = latest_;
    tick_wall_us = last_tick_wall_us_;
  }
  if (report.evaluations == 0 || policy_.max_sample_staleness_wall_ms <= 0) {
    return report;
  }
  HealthCheck check;
  check.name = "sample_staleness";
  check.bound = static_cast<double>(policy_.max_sample_staleness_wall_ms);
  check.observed = static_cast<double>(now_wall_us - tick_wall_us) / 1000.0;
  check.ok = check.observed <= check.bound;
  check.detail = FormatDetail("last tick %.0fms ago (bound %.0fms)",
                              check.observed, check.bound);
  report.healthy = report.healthy && check.ok;
  report.checks.push_back(std::move(check));
  return report;
}

std::string HealthReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("healthy", healthy);
  w.Field("evaluated_at_ms", evaluated_at_ms);
  w.Field("evaluations", evaluations);
  w.BeginArray("checks");
  for (const HealthCheck& c : checks) {
    w.BeginObject()
        .Field("name", c.name)
        .Field("ok", c.ok)
        .Field("observed", c.observed)
        .Field("bound", c.bound)
        .Field("detail", c.detail)
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace fl::ops

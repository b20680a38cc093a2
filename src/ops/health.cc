#include "src/ops/health.h"

#include <cstdio>

#include "src/common/json_writer.h"

namespace fl::ops {
namespace {

std::string FormatDetail(const char* fmt, double a, double b) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

HealthEvaluator::HealthEvaluator(HealthPolicy policy) : policy_(policy) {}

HealthReport HealthEvaluator::Evaluate(
    const analytics::SlidingWindowStore& store,
    const telemetry::MetricsSnapshot& snapshot, std::int64_t now_ms,
    std::int64_t last_sample_wall_us, std::int64_t now_wall_us) {
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

  if (policy_.max_sample_staleness_wall_ms > 0) {
    HealthCheck check;
    check.name = "sample_staleness";
    check.bound = static_cast<double>(policy_.max_sample_staleness_wall_ms);
    if (last_sample_wall_us <= 0) {
      check.ok = true;  // nothing sampled yet: still warming up
      check.observed = 0;
      check.detail = "warmup: no samples yet";
    } else {
      check.observed =
          static_cast<double>(now_wall_us - last_sample_wall_us) / 1000.0;
      check.ok = check.observed <= check.bound;
      check.detail = FormatDetail("last sample %.0fms ago (bound %.0fms)",
                                  check.observed, check.bound);
    }
    report.checks.push_back(std::move(check));
  }

  report.healthy = true;
  for (const HealthCheck& c : report.checks) {
    if (!c.ok) report.healthy = false;
  }

  PublishGauges(report);
  {
    std::lock_guard<std::mutex> lock(mu_);
    latest_ = report;
  }
  return report;
}

HealthReport HealthEvaluator::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

void HealthEvaluator::PublishGauges(const HealthReport& report) {
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetGauge("fl_ops_health")->Set(report.healthy ? 1.0 : 0.0);
  for (const HealthCheck& c : report.checks) {
    registry.GetGauge("fl_ops_health_" + c.name)->Set(c.ok ? 1.0 : 0.0);
    registry.GetGauge("fl_ops_health_" + c.name + "_observed")
        ->Set(c.observed);
  }
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

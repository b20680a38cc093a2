#include "src/ops/health.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "src/common/rng.h"
#include "src/ops/json.h"
#include "src/ops/window_store.h"
#include "src/telemetry/metrics.h"

namespace fl::ops {
namespace {

using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;

constexpr std::int64_t kUs = 1'000;  // micros per milli

// Feeds `committed`/`abandoned` cumulative totals into the store as one
// sample per second ending at `end_ms`.
void FeedRounds(SlidingWindowStore* store, std::int64_t end_ms,
                double committed, double abandoned) {
  for (int s = 0; s <= 10; ++s) {
    const std::int64_t t = end_ms - (10 - s) * 1'000;
    const double frac = s / 10.0;
    store->Record("fl_server_rounds_committed_total", t, committed * frac);
    store->Record("fl_server_rounds_abandoned_total", t, abandoned * frac);
  }
}

const HealthCheck* FindCheck(const HealthReport& report,
                             const std::string& name) {
  for (const HealthCheck& c : report.checks) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().ResetValuesForTest(); }
};

double SnapshotQuantile(const MetricsSnapshot::HistogramValue& h, double p) {
  return telemetry::BucketQuantile(h.bounds, h.counts, p);
}

TEST(SnapshotHistogramQuantileTest, MatchesLiveHistogramEstimator) {
  MetricsSnapshot::HistogramValue h;
  h.bounds = {1.0, 2.0, 4.0, 8.0};
  h.counts = {0, 10, 0, 0, 0};  // all ten samples in (1, 2]
  h.count = 10;
  // Interior quantiles interpolate within the bucket; never on a boundary.
  EXPECT_GT(SnapshotQuantile(h, 50.0), 1.0);
  EXPECT_LT(SnapshotQuantile(h, 50.0), 2.0);
  // Clamped at the midpoint offsets so p=0/p=100 stay inside the bucket.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(h, 0.0), 1.0 + 0.5 / 10.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(h, 100.0), 2.0 - 0.5 / 10.0);

  // A registry snapshot of a live histogram gives bit-identical estimates,
  // overflow bucket included.
  auto& registry = MetricsRegistry::Global();
  telemetry::Histogram* live = registry.GetHistogram(
      "health_test_quantile_parity", telemetry::HistogramOptions{1.0, 2.0, 4});
  live->ResetForTest();
  for (double v : {0.5, 1.5, 1.7, 3.0, 3.9, 6.0, 7.5, 100.0, 250.0}) {
    live->Observe(v);
  }
  const MetricsSnapshot snap = registry.Snapshot();
  const auto* copy = snap.FindHistogram("health_test_quantile_parity");
  ASSERT_NE(copy, nullptr);
  ASSERT_EQ(copy->counts.back(), 2u);  // two samples in overflow
  for (double p : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 88.0, 90.0, 99.0, 100.0}) {
    const double a = live->Quantile(p);
    const double b = SnapshotQuantile(*copy, p);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << "p=" << p << " live " << a << " snapshot " << b;
  }
  EXPECT_EQ(SnapshotQuantile(*copy, 99.0), 8.0);  // clamped to the range
}

TEST(SnapshotHistogramQuantileTest, SingleSampleReportsBucketMidpoint) {
  MetricsSnapshot::HistogramValue h;
  h.bounds = {1.0, 2.0};
  h.counts = {0, 1, 0};
  h.count = 1;
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(SnapshotQuantile(h, p), 1.5) << "p=" << p;
  }
}

TEST(SnapshotHistogramQuantileTest, EmptyAndOverflowEdges) {
  MetricsSnapshot::HistogramValue empty;
  EXPECT_DOUBLE_EQ(SnapshotQuantile(empty, 50.0), 0.0);

  MetricsSnapshot::HistogramValue overflow;
  overflow.bounds = {1.0, 2.0};
  overflow.counts = {0, 0, 5};  // everything above the last bound
  overflow.count = 5;
  EXPECT_DOUBLE_EQ(SnapshotQuantile(overflow, 99.0), 2.0);
}

TEST_F(HealthTest, HealthyBeforeFirstEvaluation) {
  HealthEvaluator evaluator;
  const HealthReport report = evaluator.latest();
  EXPECT_TRUE(report.healthy);
  EXPECT_EQ(report.evaluations, 0u);
  EXPECT_TRUE(report.checks.empty());
}

TEST_F(HealthTest, AbandonedRatioWarmupThenFailure) {
  HealthPolicy policy;
  policy.max_abandoned_ratio = 0.5;
  policy.round_window_ms = 60'000;
  policy.min_rounds_for_ratio = 5;
  HealthEvaluator evaluator(policy);

  SlidingWindowStore store;
  MetricsSnapshot snapshot;

  // Two finished rounds: under the warmup floor, so still healthy even
  // though both were abandoned.
  FeedRounds(&store, 20'000, 0, 2);
  HealthReport report =
      evaluator.Evaluate(store, snapshot, 20'000);
  const HealthCheck* check = FindCheck(report, "abandoned_ratio");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
  EXPECT_NE(check->detail.find("warmup"), std::string::npos);
  EXPECT_TRUE(report.healthy);

  // Past warmup with 8/10 abandoned: unhealthy.
  SlidingWindowStore bad;
  FeedRounds(&bad, 20'000, 2, 8);
  report =
      evaluator.Evaluate(bad, snapshot, 20'000);
  check = FindCheck(report, "abandoned_ratio");
  ASSERT_NE(check, nullptr);
  EXPECT_FALSE(check->ok);
  EXPECT_NEAR(check->observed, 0.8, 1e-9);
  EXPECT_FALSE(report.healthy);
  EXPECT_EQ(report.evaluations, 2u);

  // A healthy mix passes.
  SlidingWindowStore good;
  FeedRounds(&good, 20'000, 9, 1);
  report =
      evaluator.Evaluate(good, snapshot, 20'000);
  EXPECT_TRUE(report.healthy);
}

TEST_F(HealthTest, CommitRateFloor) {
  HealthPolicy policy;
  policy.round_window_ms = 60'000;  // 1 min window
  policy.min_rounds_for_ratio = 5;
  policy.min_commit_per_hour = 600.0;  // i.e. >= 10 commits per minute
  HealthEvaluator evaluator(policy);
  MetricsSnapshot snapshot;

  SlidingWindowStore slow;
  FeedRounds(&slow, 20'000, 5, 5);  // 5 commits/min = 300/h: too slow
  HealthReport report =
      evaluator.Evaluate(slow, snapshot, 20'000);
  const HealthCheck* check = FindCheck(report, "commit_per_hour");
  ASSERT_NE(check, nullptr);
  EXPECT_FALSE(check->ok);
  EXPECT_NEAR(check->observed, 300.0, 1e-6);

  SlidingWindowStore fast;
  FeedRounds(&fast, 20'000, 20, 0);  // 20 commits/min = 1200/h
  report =
      evaluator.Evaluate(fast, snapshot, 20'000);
  check = FindCheck(report, "commit_per_hour");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
}

TEST_F(HealthTest, MailboxDepthUsesSnapshotHistogram) {
  HealthPolicy policy;
  policy.max_mailbox_depth_p99 = 4.0;
  HealthEvaluator evaluator(policy);
  SlidingWindowStore store;

  MetricsSnapshot snapshot;
  MetricsSnapshot::HistogramValue h;
  h.name = "fl_actor_mailbox_depth";
  h.bounds = {1.0, 2.0, 4.0, 8.0, 16.0};
  h.counts = {0, 0, 0, 100, 0, 0};  // p99 lands in (4, 8]: too deep
  h.count = 100;
  snapshot.histograms.push_back(h);

  HealthReport report = evaluator.Evaluate(store, snapshot, 1'000);
  const HealthCheck* check = FindCheck(report, "mailbox_depth_p99");
  ASSERT_NE(check, nullptr);
  EXPECT_FALSE(check->ok);
  EXPECT_GT(check->observed, 4.0);

  // Missing histogram: observed 0, passes.
  MetricsSnapshot bare;
  report = evaluator.Evaluate(store, bare, 2'000);
  check = FindCheck(report, "mailbox_depth_p99");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
  EXPECT_DOUBLE_EQ(check->observed, 0.0);
}

TEST_F(HealthTest, SampleStalenessIsTheLivenessCheck) {
  HealthPolicy policy;
  policy.max_sample_staleness_wall_ms = 1'000;
  HealthEvaluator evaluator(policy);
  SlidingWindowStore store;
  MetricsSnapshot snapshot;

  // No tick yet: no checks, healthy.
  HealthReport report = evaluator.latest(/*now_wall_us=*/5'000 * kUs);
  EXPECT_TRUE(report.healthy);
  EXPECT_EQ(FindCheck(report, "sample_staleness"), nullptr);

  // The tick's own report has no staleness check: it is read-time only.
  report = evaluator.Evaluate(store, snapshot, 0, /*now_wall_us=*/1'000 * kUs);
  EXPECT_EQ(FindCheck(report, "sample_staleness"), nullptr);

  // Read 200ms after the tick: healthy.
  report = evaluator.latest(1'200 * kUs);
  const HealthCheck* check = FindCheck(report, "sample_staleness");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
  EXPECT_NEAR(check->observed, 200.0, 1e-9);
  EXPECT_TRUE(report.healthy);

  // Read 5s after it, with no tick since (a wedged sim): unhealthy.
  report = evaluator.latest(6'000 * kUs);
  check = FindCheck(report, "sample_staleness");
  ASSERT_NE(check, nullptr);
  EXPECT_FALSE(check->ok);
  EXPECT_FALSE(report.healthy);

  // The next tick makes it fresh again.
  evaluator.Evaluate(store, snapshot, 1'000, 6'500 * kUs);
  EXPECT_TRUE(evaluator.latest(6'600 * kUs).healthy);
}

TEST_F(HealthTest, PublishesHealthGauges) {
  HealthPolicy policy;
  policy.max_mailbox_depth_p99 = 4.0;
  HealthEvaluator evaluator(policy);
  SlidingWindowStore store;

  MetricsSnapshot deep;
  MetricsSnapshot::HistogramValue h;
  h.name = "fl_actor_mailbox_depth";
  h.bounds = {1.0, 2.0, 4.0, 8.0, 16.0};
  h.counts = {0, 0, 0, 0, 100, 0};  // p99 in (8, 16]: too deep
  h.count = 100;
  deep.histograms.push_back(h);
  evaluator.Evaluate(store, deep, 0);
  auto& registry = MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(registry.GetGauge("fl_ops_health")->Value(), 0.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("fl_ops_health_mailbox_depth_p99")->Value(), 0.0);
  EXPECT_GT(
      registry.GetGauge("fl_ops_health_mailbox_depth_p99_observed")->Value(),
      8.0);

  evaluator.Evaluate(store, MetricsSnapshot{}, 1'000);  // no histogram: ok
  EXPECT_DOUBLE_EQ(registry.GetGauge("fl_ops_health")->Value(), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("fl_ops_health_mailbox_depth_p99")->Value(), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("fl_ops_health_rejected_spike")->Value(), 1.0);
}

TEST_F(HealthTest, ReportJsonRoundTrips) {
  HealthEvaluator evaluator;
  SlidingWindowStore store;
  MetricsSnapshot snapshot;
  const HealthReport report =
      evaluator.Evaluate(store, snapshot, 1'234);

  const auto parsed = JsonValue::Parse(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.Find("healthy")->AsBool(false), report.healthy);
  EXPECT_EQ(root.Find("evaluated_at_ms")->AsInt(), 1'234);
  EXPECT_EQ(root.Find("evaluations")->AsInt(), 1);
  const JsonValue* checks = root.Find("checks");
  ASSERT_NE(checks, nullptr);
  ASSERT_EQ(checks->size(), report.checks.size());
  EXPECT_EQ((*checks)[0].Find("name")->AsString(), report.checks[0].name);
}

// rejected_spike, the Sec. 5 deviation monitor: the per-tick delta of
// fl_server_devices_rejected_total against its trailing baseline (48 ticks,
// 12 to warm up, 4 sigma, sigma floored at 10).
class DeviationMonitorTest : public HealthTest {
 protected:
  // One tick whose snapshot holds the cumulative rejection count `total`.
  HealthReport Tick(std::uint64_t total) {
    MetricsSnapshot snapshot;
    snapshot.counters.push_back({"fl_server_devices_rejected_total", total});
    return evaluator_.Evaluate(store_, snapshot, ++tick_ * 60'000);
  }
  // One tick that adds `delta` rejections; returns whether the check held.
  bool Step(double delta) {
    total_ += static_cast<std::uint64_t>(std::max(0.0, delta));
    const HealthReport report = Tick(total_);
    const HealthCheck* check = FindCheck(report, "rejected_spike");
    EXPECT_NE(check, nullptr);
    return check == nullptr || check->ok;
  }
  // Seeds the counter, then feeds `n` ticks of `delta` each.
  void Baseline(int n, double delta) {
    Tick(total_);
    for (int i = 0; i < n; ++i) EXPECT_TRUE(Step(delta)) << "tick " << i;
  }

  HealthEvaluator evaluator_;
  SlidingWindowStore store_;
  std::uint64_t total_ = 0;
  std::int64_t tick_ = 0;
};

TEST_F(DeviationMonitorTest, PassesWithoutTheCounter) {
  const HealthReport report = evaluator_.Evaluate(store_, MetricsSnapshot{}, 0);
  const HealthCheck* check = FindCheck(report, "rejected_spike");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
  EXPECT_TRUE(report.healthy);
}

TEST_F(DeviationMonitorTest, FirstSightOnlySeeds) {
  // A large total accumulated before the first tick is not one giant delta.
  total_ = 1'000'000;
  const HealthReport report = Tick(total_);
  const HealthCheck* check = FindCheck(report, "rejected_spike");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
  EXPECT_EQ(check->detail, "seeded");
  EXPECT_TRUE(Step(10));
  EXPECT_TRUE(evaluator_.failures().empty());
}

TEST_F(DeviationMonitorTest, QuietDuringWarmup) {
  Baseline(HealthEvaluator::kSpikeWarmup - 1, 0);
  total_ += 1'000'000'000;  // wild, but the baseline is one tick short
  const HealthReport report = Tick(total_);
  const HealthCheck* check = FindCheck(report, "rejected_spike");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
  EXPECT_NE(check->detail.find("warmup"), std::string::npos);
}

TEST_F(DeviationMonitorTest, AlertsOnSpikeAfterBaseline) {
  Tick(total_);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(Step(std::round(100 + rng.Normal(0, 5)))) << "tick " << i;
  }
  // Sec. 5's incident: rejections "much higher than expected".
  total_ += 500;
  const HealthReport report = Tick(total_);
  EXPECT_FALSE(report.healthy);  // a failing check fails the tick
  ASSERT_EQ(evaluator_.failures().size(), 1u);
  const FailedCheck& failed = evaluator_.failures()[0];
  EXPECT_EQ(failed.t_ms, report.evaluated_at_ms);
  EXPECT_EQ(failed.check.name, "rejected_spike");
  EXPECT_DOUBLE_EQ(failed.check.observed, 500.0);
  // The bound is the top of the baseline's 4-sigma band (sigma floored).
  EXPECT_NEAR(failed.check.bound, 100.0 + 4 * 10.0, 3.0);
}

TEST_F(DeviationMonitorTest, AlertsOnCounterDeltaSpike) {
  // A steady ~10 rejections per tick; the first tick only seeds the total.
  Baseline(HealthEvaluator::kSpikeWarmup, 10);
  EXPECT_TRUE(evaluator_.failures().empty());
  // A 50x jump between two ticks is the Sec. 5 anomaly.
  EXPECT_FALSE(Step(500));
  ASSERT_EQ(evaluator_.failures().size(), 1u);
  const FailedCheck& failed = evaluator_.failures()[0];
  EXPECT_EQ(failed.check.name, "rejected_spike");
  EXPECT_DOUBLE_EQ(failed.check.observed, 500.0);
  EXPECT_DOUBLE_EQ(failed.check.bound, 10.0 + 4 * 10.0);
}

TEST_F(DeviationMonitorTest, SigmaFloorIgnoresBlips) {
  // A flat zero baseline has sigma 0; the floor of 10 keeps single-device
  // blips inside a band of +/- 40.
  Baseline(HealthEvaluator::kSpikeWarmup, 0);
  EXPECT_FALSE(Step(41));
  ASSERT_EQ(evaluator_.failures().size(), 1u);
  EXPECT_DOUBLE_EQ(evaluator_.failures()[0].check.bound, 40.0);
  EXPECT_TRUE(Step(40));
}

TEST_F(DeviationMonitorTest, DropBelowTheBandFails) {
  Baseline(HealthEvaluator::kSpikeWarmup, 100);
  EXPECT_FALSE(Step(50));
  EXPECT_DOUBLE_EQ(evaluator_.failures()[0].check.bound, 60.0);
}

TEST_F(DeviationMonitorTest, NoAlertWithinNormalVariation) {
  Tick(total_);
  Rng rng(2);
  int failures = 0;
  for (int i = 0; i < 500; ++i) {
    if (!Step(std::round(rng.Normal(100.0, 10.0)))) ++failures;
  }
  EXPECT_LE(failures, 2);  // 4-sigma band: very rare false positives
}

TEST_F(DeviationMonitorTest, AdaptsToSlowDrift) {
  // A slow diurnal drift does not fail: the rolling baseline tracks it.
  Tick(total_);
  Rng rng(3);
  int failures = 0;
  for (int i = 0; i < 500; ++i) {
    const double base = 200.0 + 100.0 * std::sin(i * 0.02);
    if (!Step(std::round(base + rng.Normal(0, 5)))) ++failures;
  }
  EXPECT_LE(failures, 5);
}

TEST_F(DeviationMonitorTest, OutliersDoNotContaminateBaseline) {
  // Failing deltas stay out of the baseline: otherwise one spike drags the
  // mean up and inflates sigma, and a sustained incident stops failing
  // after its first tick.
  Baseline(HealthEvaluator::kSpikeWarmup, 10);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(Step(100)) << "tick " << i;
  ASSERT_EQ(evaluator_.failures().size(), 5u);
  EXPECT_DOUBLE_EQ(evaluator_.failures().back().check.bound, 50.0);
  EXPECT_TRUE(Step(10));
}

}  // namespace
}  // namespace fl::ops

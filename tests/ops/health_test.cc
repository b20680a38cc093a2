#include "src/ops/health.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "src/analytics/window_store.h"
#include "src/ops/json.h"
#include "src/telemetry/metrics.h"

namespace fl::ops {
namespace {

using analytics::SlidingWindowStore;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;

constexpr std::int64_t kUs = 1'000;  // micros per milli

SlidingWindowStore::Options StoreOptions() {
  SlidingWindowStore::Options opts;
  opts.resolutions = {{1'000, 120}, {10'000, 120}};
  return opts;
}

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

  SlidingWindowStore store(StoreOptions());
  MetricsSnapshot snapshot;

  // Two finished rounds: under the warmup floor, so still healthy even
  // though both were abandoned.
  FeedRounds(&store, 20'000, 0, 2);
  HealthReport report =
      evaluator.Evaluate(store, snapshot, 20'000, 20'000 * kUs, 20'000 * kUs);
  const HealthCheck* check = FindCheck(report, "abandoned_ratio");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
  EXPECT_NE(check->detail.find("warmup"), std::string::npos);
  EXPECT_TRUE(report.healthy);

  // Past warmup with 8/10 abandoned: unhealthy.
  SlidingWindowStore bad(StoreOptions());
  FeedRounds(&bad, 20'000, 2, 8);
  report =
      evaluator.Evaluate(bad, snapshot, 20'000, 20'000 * kUs, 20'000 * kUs);
  check = FindCheck(report, "abandoned_ratio");
  ASSERT_NE(check, nullptr);
  EXPECT_FALSE(check->ok);
  EXPECT_NEAR(check->observed, 0.8, 1e-9);
  EXPECT_FALSE(report.healthy);
  EXPECT_EQ(report.evaluations, 2u);

  // A healthy mix passes.
  SlidingWindowStore good(StoreOptions());
  FeedRounds(&good, 20'000, 9, 1);
  report =
      evaluator.Evaluate(good, snapshot, 20'000, 20'000 * kUs, 20'000 * kUs);
  EXPECT_TRUE(report.healthy);
}

TEST_F(HealthTest, CommitRateFloor) {
  HealthPolicy policy;
  policy.round_window_ms = 60'000;  // 1 min window
  policy.min_rounds_for_ratio = 5;
  policy.min_commit_per_hour = 600.0;  // i.e. >= 10 commits per minute
  HealthEvaluator evaluator(policy);
  MetricsSnapshot snapshot;

  SlidingWindowStore slow(StoreOptions());
  FeedRounds(&slow, 20'000, 5, 5);  // 5 commits/min = 300/h: too slow
  HealthReport report =
      evaluator.Evaluate(slow, snapshot, 20'000, 20'000 * kUs, 20'000 * kUs);
  const HealthCheck* check = FindCheck(report, "commit_per_hour");
  ASSERT_NE(check, nullptr);
  EXPECT_FALSE(check->ok);
  EXPECT_NEAR(check->observed, 300.0, 1e-6);

  SlidingWindowStore fast(StoreOptions());
  FeedRounds(&fast, 20'000, 20, 0);  // 20 commits/min = 1200/h
  report =
      evaluator.Evaluate(fast, snapshot, 20'000, 20'000 * kUs, 20'000 * kUs);
  check = FindCheck(report, "commit_per_hour");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
}

TEST_F(HealthTest, MailboxDepthUsesSnapshotHistogram) {
  HealthPolicy policy;
  policy.max_mailbox_depth_p99 = 4.0;
  HealthEvaluator evaluator(policy);
  SlidingWindowStore store(StoreOptions());

  MetricsSnapshot snapshot;
  MetricsSnapshot::HistogramValue h;
  h.name = "fl_actor_mailbox_depth";
  h.bounds = {1.0, 2.0, 4.0, 8.0, 16.0};
  h.counts = {0, 0, 0, 100, 0, 0};  // p99 lands in (4, 8]: too deep
  h.count = 100;
  snapshot.histograms.push_back(h);

  HealthReport report = evaluator.Evaluate(store, snapshot, 1'000, kUs, kUs);
  const HealthCheck* check = FindCheck(report, "mailbox_depth_p99");
  ASSERT_NE(check, nullptr);
  EXPECT_FALSE(check->ok);
  EXPECT_GT(check->observed, 4.0);

  // Missing histogram: observed 0, passes.
  MetricsSnapshot bare;
  report = evaluator.Evaluate(store, bare, 2'000, kUs, kUs);
  check = FindCheck(report, "mailbox_depth_p99");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);
  EXPECT_DOUBLE_EQ(check->observed, 0.0);
}

TEST_F(HealthTest, SampleStalenessIsTheLivenessCheck) {
  HealthPolicy policy;
  policy.max_sample_staleness_wall_ms = 1'000;
  HealthEvaluator evaluator(policy);
  SlidingWindowStore store(StoreOptions());
  MetricsSnapshot snapshot;

  // No samples yet: warmup, healthy.
  HealthReport report =
      evaluator.Evaluate(store, snapshot, 0, /*last_sample_wall_us=*/0,
                         /*now_wall_us=*/5'000 * kUs);
  const HealthCheck* check = FindCheck(report, "sample_staleness");
  ASSERT_NE(check, nullptr);
  EXPECT_TRUE(check->ok);

  // Fresh sample 200ms ago: healthy.
  report = evaluator.Evaluate(store, snapshot, 0, 1'000 * kUs, 1'200 * kUs);
  check = FindCheck(report, "sample_staleness");
  EXPECT_TRUE(check->ok);
  EXPECT_NEAR(check->observed, 200.0, 1e-9);

  // Wedged for 5s: unhealthy.
  report = evaluator.Evaluate(store, snapshot, 0, 1'000 * kUs, 6'000 * kUs);
  check = FindCheck(report, "sample_staleness");
  EXPECT_FALSE(check->ok);
  EXPECT_FALSE(report.healthy);
}

TEST_F(HealthTest, PublishesHealthGauges) {
  HealthPolicy policy;
  policy.max_sample_staleness_wall_ms = 1'000;
  HealthEvaluator evaluator(policy);
  SlidingWindowStore store(StoreOptions());
  MetricsSnapshot snapshot;

  evaluator.Evaluate(store, snapshot, 0, 1'000 * kUs, 10'000 * kUs);  // stale
  auto& registry = MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(registry.GetGauge("fl_ops_health")->Value(), 0.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("fl_ops_health_sample_staleness")->Value(), 0.0);
  EXPECT_NEAR(
      registry.GetGauge("fl_ops_health_sample_staleness_observed")->Value(),
      9'000.0, 1e-9);

  evaluator.Evaluate(store, snapshot, 0, 1'000 * kUs, 1'100 * kUs);  // fresh
  EXPECT_DOUBLE_EQ(registry.GetGauge("fl_ops_health")->Value(), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("fl_ops_health_sample_staleness")->Value(), 1.0);
}

TEST_F(HealthTest, ReportJsonRoundTrips) {
  HealthEvaluator evaluator;
  SlidingWindowStore store(StoreOptions());
  MetricsSnapshot snapshot;
  const HealthReport report =
      evaluator.Evaluate(store, snapshot, 1'234, kUs, kUs);

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

}  // namespace
}  // namespace fl::ops

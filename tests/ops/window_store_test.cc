#include "src/ops/window_store.h"

#include <gtest/gtest.h>

namespace fl::ops {
namespace {

// The rings are 1 s x 120 (2 min), 10 s x 360 (1 h) and 5 min x 288.

TEST(SlidingWindowStoreTest, WindowDeltaOfCumulativeCounter) {
  SlidingWindowStore store;
  // Counter grows 10/s for 8 seconds.
  for (int s = 0; s <= 8; ++s) {
    store.Record("ctr", s * 1'000, 10.0 * s);
  }
  // Over the last 5 s: first slot in window holds 30, latest 80.
  EXPECT_NEAR(store.WindowDelta("ctr", 5'000), 50.0, 1e-9);
  // Full span: everything.
  EXPECT_NEAR(store.WindowDelta("ctr", 9'000), 80.0, 1e-9);
}

TEST(SlidingWindowStoreTest, DeltaClampedOnCounterReset) {
  SlidingWindowStore store;
  store.Record("ctr", 1'000, 100.0);
  store.Record("ctr", 2'000, 5.0);  // process restart: total reset
  EXPECT_DOUBLE_EQ(store.WindowDelta("ctr", 5'000), 0.0);
}

TEST(SlidingWindowStoreTest, RingLapEvictsStaleSlots) {
  SlidingWindowStore store;
  store.Record("g", 0, 1.0);
  // 240 s later: the 1 s ring (120 slots) has lapped twice and the new
  // sample lands on the old slot, which must not contaminate the window.
  store.Record("g", 240'000, 3.0);
  EXPECT_DOUBLE_EQ(store.WindowDelta("g", 5'000), 0.0);
  // The 10 s ring still holds both points (1 h span).
  EXPECT_DOUBLE_EQ(store.WindowDelta("g", 300'000), 2.0);
  const auto pts = store.Series("g", 10'000);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].t_ms, 0);
  EXPECT_EQ(pts[1].t_ms, 240'000);
}

TEST(SlidingWindowStoreTest, PicksFinestResolutionCoveringWindow) {
  SlidingWindowStore store;
  for (int s = 0; s <= 200; ++s) {
    store.Record("ctr", s * 1'000, static_cast<double>(s));
  }
  // A 5 s window fits the 1 s ring: slots 195..200.
  EXPECT_DOUBLE_EQ(store.WindowDelta("ctr", 5'000), 5.0);
  // A 180 s window exceeds the 1 s ring's 120 s span, so the 10 s ring
  // serves it from its 20 s slot (the 1 s ring would read 119).
  EXPECT_DOUBLE_EQ(store.WindowDelta("ctr", 180'000), 180.0);
}

TEST(SlidingWindowStoreTest, UnknownSeriesReadsEmpty) {
  SlidingWindowStore store;
  store.Record("a", 0, 1);
  EXPECT_EQ(store.series_count(), 1u);
  EXPECT_DOUBLE_EQ(store.WindowDelta("nope", 1'000), 0.0);
  EXPECT_TRUE(store.Series("nope", 1'000).empty());
  // A slot width that is not one of the rings reads empty too.
  EXPECT_TRUE(store.Series("a", 2'000).empty());
  EXPECT_EQ(store.Series("a", 1'000).size(), 1u);
}

TEST(SlidingWindowStoreTest, RecordsEverySnapshotInstrument) {
  SlidingWindowStore store;
  EXPECT_EQ(store.samples(), 0u);
  telemetry::MetricsSnapshot snapshot;
  snapshot.counters.push_back({"c_total", 7});
  snapshot.gauges.push_back({"g", 2.5});
  telemetry::MetricsSnapshot::HistogramValue h;
  h.name = "h";
  h.count = 3;
  h.sum = 4.5;
  snapshot.histograms.push_back(h);
  store.Record(60'000, snapshot);
  snapshot.counters[0].value = 10;
  store.Record(120'000, snapshot);

  EXPECT_EQ(store.samples(), 2u);
  EXPECT_EQ(store.last_sample_t_ms(), 120'000);
  EXPECT_EQ(store.series_count(), 4u);
  EXPECT_DOUBLE_EQ(store.WindowDelta("c_total", 120'000), 3.0);
  const auto gauge = store.Series("g", 10'000);
  ASSERT_EQ(gauge.size(), 2u);
  EXPECT_DOUBLE_EQ(gauge[1].value, 2.5);
  EXPECT_DOUBLE_EQ(store.Series("h_count", 10'000).back().value, 3.0);
  EXPECT_DOUBLE_EQ(store.Series("h_sum", 10'000).back().value, 4.5);
}

TEST(SlidingWindowStoreTest, NegativeTimestampsIgnored) {
  SlidingWindowStore store;
  store.Record("x", -5, 1.0);
  EXPECT_EQ(store.series_count(), 0u);
}

}  // namespace
}  // namespace fl::ops

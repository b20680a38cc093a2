// Per-round ledger for the /rounds endpoint: a reducer over the lifecycle
// event stream (src/analytics/lifecycle.h) that keeps the last K finished
// rounds as analytics::RoundRecords (src/analytics/round_record.h), plus
// check-in, outcome and error totals.
//
// core::FLSystem feeds it every event after FleetStats and the registry
// metrics. Recording is disabled by default: with the ops plane off, each
// event costs one branch (plus the abandon check). The ops-plane arm of
// bench_overhead (BENCH_overhead.json) holds the plane turned on to <= 2%.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/analytics/lifecycle.h"
#include "src/analytics/round_record.h"

namespace fl::ops {

class RoundLedger {
 public:
  // `capacity` bounds the retained finished rounds.
  explicit RoundLedger(std::size_t capacity = 256);

  // Recording is off until enabled (FLSystem enables it with the ops
  // plane).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Anomaly hook: fires on every non-committed round outcome, even while
  // recording is disabled (the diagnostic bundler must trigger with the ops
  // plane off). Called outside the ledger lock, so the observer may read
  // RecentJson()/totals(). Set before the sim starts; not thread-safe to
  // swap mid-run.
  using AbandonedObserver =
      std::function<void(SimTime, RoundId, protocol::RoundOutcome)>;
  void set_on_abandoned(AbandonedObserver observer) {
    on_abandoned_ = std::move(observer);
  }

  // Reduces one lifecycle event: round facts fold into their round's
  // record (round_outcome finishes it); master accepts, check-in rejections,
  // outcomes and errors update the totals.
  void On(const analytics::LifecycleEvent& e);

  // Cumulative totals since enable (checkin accept/reject, commit/abandon).
  struct Totals {
    std::uint64_t rounds_committed = 0;
    std::uint64_t rounds_abandoned = 0;
    std::uint64_t checkins_accepted = 0;
    std::uint64_t checkins_rejected = 0;
    std::uint64_t errors = 0;
  };
  Totals totals() const;

  // Most recent finished rounds, newest first, at most `max`.
  std::vector<analytics::RoundRecord> Recent(std::size_t max = SIZE_MAX) const;

  // {"totals":{...},"rounds":[...]} for /rounds; newest first.
  std::string RecentJson(std::size_t max) const;

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  AbandonedObserver on_abandoned_;

  mutable std::mutex mu_;
  analytics::RoundBook rounds_;
  Totals totals_;
};

}  // namespace fl::ops

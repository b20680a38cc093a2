// FleetStats: the analytics layer of the deployment (Sec. 5), implemented
// over src/analytics primitives. It is a reducer over the lifecycle event
// stream (src/analytics/lifecycle.h): every server actor and device agent
// fact arrives through On(), and it owns every series the Fig. 5-9 /
// Table 1 benches read. Device-state occupancy is the one direct feed
// (OnDeviceStateChange): one reporter, no journal line, per-toggle hot path.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>

#include "src/analytics/events.h"
#include "src/analytics/lifecycle.h"
#include "src/analytics/round_record.h"
#include "src/analytics/timeseries.h"

namespace fl::core {

// One round's participants in Fig. 7's terms, built from its RoundRecord.
struct RoundParticipantCounts {
  std::size_t completed = 0;
  std::size_t aborted = 0;   // server had enough (incl. late '#' rejections)
  std::size_t dropped = 0;   // device-side failures
};

class FleetStats {
 public:
  FleetStats(SimTime start, Duration bucket);

  // Reduces one lifecycle event. Table 1 shapes: device session events
  // append a glyph to the session's buffer; session_end tallies sessions
  // that progressed past check-in (>= 2 events) and records the
  // participation time of assigned ones.
  void On(const analytics::LifecycleEvent& e);

  void OnDeviceStateChange(analytics::DeviceState from,
                           analytics::DeviceState to);

  // Samples current device-state occupancy into the per-state series.
  void SampleStates(SimTime t);

  // --- Accessors for benches/tests ---
  const analytics::TimeSeries& StateSeries(analytics::DeviceState s) const {
    return state_series_[static_cast<std::size_t>(s)];
  }
  const analytics::TimeSeries& round_completions() const {
    return round_completions_;
  }
  const analytics::TimeSeries& round_failures() const {
    return round_failures_;
  }
  const analytics::TimeSeries& download_series() const { return download_; }
  const analytics::TimeSeries& upload_series() const { return upload_; }
  const analytics::TimeSeries& drop_series() const { return drops_; }
  const analytics::TimeSeries& completion_series() const {
    return completions_;
  }
  const analytics::Histogram& round_duration_hist() const {
    return round_duration_;
  }
  const analytics::Histogram& selection_duration_hist() const {
    return selection_duration_;
  }
  const analytics::Histogram& participation_hist() const {
    return participation_;
  }
  const analytics::SessionShapeTally& shapes() const { return shapes_; }
  // Rounds with at least one participant outcome, by id.
  std::map<RoundId, RoundParticipantCounts> per_round() const;
  // Finished rounds in completion order — the feed for adaptive window
  // tuning (Sec. 11) and the Fig. 5/6 outcome series.
  const std::deque<analytics::RoundRecord>& round_log() const {
    return rounds_.finished();
  }
  std::uint64_t total_download_bytes() const { return total_download_; }
  std::uint64_t total_upload_bytes() const { return total_upload_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t errors() const { return errors_; }
  std::size_t rounds_committed() const { return rounds_committed_; }
  std::size_t rounds_abandoned() const { return rounds_abandoned_; }

 private:
  void RecordRound(const analytics::RoundRecord& r);

  std::array<std::size_t, 5> live_counts_{};
  std::array<analytics::TimeSeries, 5> state_series_;
  analytics::TimeSeries round_completions_;
  analytics::TimeSeries round_failures_;
  analytics::TimeSeries download_;
  analytics::TimeSeries upload_;
  analytics::TimeSeries drops_;
  analytics::TimeSeries completions_;
  analytics::Histogram round_duration_;
  analytics::Histogram selection_duration_;
  analytics::Histogram participation_;
  analytics::SessionShapeTally shapes_;
  // Table 1 glyphs of each open session, keyed by session id.
  std::unordered_map<std::uint64_t, std::string> open_shapes_;
  analytics::RoundBook rounds_;
  std::uint64_t total_download_ = 0;
  std::uint64_t total_upload_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t errors_ = 0;
  std::size_t rounds_committed_ = 0;
  std::size_t rounds_abandoned_ = 0;
};

}  // namespace fl::core

// Sliding-window metric store (Sec. 5 live ops plane): per-series ring
// buffers at three downsampled resolutions (1 s / 10 s / 5 min). The
// FLSystem stats tick records every registry snapshot into it; the health
// checks and the status-server endpoints (and through them fl_top) read it.
//
// The store is clock-agnostic: callers stamp every Record() with a
// millisecond timestamp of whatever clock they live on (the discrete-event
// sim clock inside FLSystem), so tests drive it with an injected clock.
//
// Concurrency: one mutex guards the series map and every ring. Writes are
// a handful of array stores per resolution (no allocation after a series'
// first Record), reads copy out small vectors; both sides are far off any
// hot path (the stats tick runs once per sim minute, HTTP reads are human-
// rate), so a single short-held lock is the simple TSan-clean choice.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/metrics.h"

namespace fl::ops {

class SlidingWindowStore {
 public:
  struct Resolution {
    std::int64_t slot_ms = 0;  // width of one ring slot
    std::size_t slots = 0;     // ring capacity (span = slot_ms * slots)
  };

  // Finest-to-coarsest: 1 s x 120 (2 min), 10 s x 360 (1 h), 5 min x 288
  // (24 h).
  static constexpr std::array<Resolution, 3> kResolutions = {
      {{1'000, 120}, {10'000, 360}, {300'000, 288}}};

  struct Point {
    std::int64_t t_ms = 0;  // slot start time
    double value = 0;       // last recorded value in the slot
  };

  // Records one sample of `series` at time `t_ms`. Values are treated as
  // levels (gauges) or cumulative totals (counters) purely by how they are
  // queried later; the store keeps the first and last value per slot.
  void Record(std::string_view series, std::int64_t t_ms, double value);

  // Records every instrument of a registry snapshot at `t_ms`: counters and
  // gauges under their own names, histograms as `<name>_count` /
  // `<name>_sum` series. Counts the sample for /statusz.
  void Record(std::int64_t t_ms, const telemetry::MetricsSnapshot& snapshot);

  // For cumulative counters: latest value minus the earliest value seen in
  // the trailing `window_ms` (measured from the series' latest recorded
  // time, on the finest ring whose span covers the window, clamped to the
  // coarsest), floored at 0 (a process restart resets totals).
  double WindowDelta(std::string_view series, std::int64_t window_ms) const;

  // Per-slot last-values at the resolution with `slot_ms` (must be one of
  // kResolutions), oldest first. Empty slots are skipped.
  std::vector<Point> Series(std::string_view series,
                            std::int64_t slot_ms) const;

  std::size_t series_count() const;
  // Snapshots recorded so far, and the time stamp of the latest one.
  std::uint64_t samples() const;
  std::int64_t last_sample_t_ms() const;

 private:
  struct Slot {
    std::int64_t start_ms = -1;  // -1 = never written
    double first = 0, last = 0;
  };
  struct SeriesData {
    std::array<std::vector<Slot>, kResolutions.size()> rings;
    std::int64_t latest_ms = 0;
  };

  void RecordLocked(std::string_view series, std::int64_t t_ms, double value);
  const SeriesData* FindLocked(std::string_view series) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<SeriesData>, std::less<>> series_;
  std::uint64_t samples_ = 0;
  std::int64_t last_sample_t_ms_ = 0;
};

}  // namespace fl::ops

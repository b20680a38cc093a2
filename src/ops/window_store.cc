#include "src/ops/window_store.h"

#include <algorithm>

namespace fl::ops {

void SlidingWindowStore::Record(std::string_view series, std::int64_t t_ms,
                                double value) {
  const std::scoped_lock lock(mu_);
  RecordLocked(series, t_ms, value);
}

void SlidingWindowStore::Record(std::int64_t t_ms,
                                const telemetry::MetricsSnapshot& snapshot) {
  const std::scoped_lock lock(mu_);
  for (const auto& c : snapshot.counters) {
    RecordLocked(c.name, t_ms, static_cast<double>(c.value));
  }
  for (const auto& g : snapshot.gauges) RecordLocked(g.name, t_ms, g.value);
  for (const auto& h : snapshot.histograms) {
    RecordLocked(h.name + "_count", t_ms, static_cast<double>(h.count));
    RecordLocked(h.name + "_sum", t_ms, h.sum);
  }
  ++samples_;
  last_sample_t_ms_ = t_ms;
}

void SlidingWindowStore::RecordLocked(std::string_view series,
                                      std::int64_t t_ms, double value) {
  if (t_ms < 0) return;
  auto it = series_.find(series);
  if (it == series_.end()) {
    auto data = std::make_unique<SeriesData>();
    for (std::size_t i = 0; i < kResolutions.size(); ++i) {
      data->rings[i].resize(kResolutions[i].slots);
    }
    it = series_.emplace(std::string(series), std::move(data)).first;
  }
  SeriesData& s = *it->second;
  s.latest_ms = std::max(s.latest_ms, t_ms);
  for (std::size_t i = 0; i < kResolutions.size(); ++i) {
    const Resolution& res = kResolutions[i];
    const std::int64_t slot_start = t_ms - t_ms % res.slot_ms;
    Slot& slot = s.rings[i][static_cast<std::size_t>(
        (t_ms / res.slot_ms) % static_cast<std::int64_t>(res.slots))];
    if (slot.start_ms != slot_start) slot = Slot{slot_start, value, value};
    slot.last = value;
  }
}

const SlidingWindowStore::SeriesData* SlidingWindowStore::FindLocked(
    std::string_view series) const {
  const auto it = series_.find(series);
  return it == series_.end() ? nullptr : it->second.get();
}

double SlidingWindowStore::WindowDelta(std::string_view series,
                                       std::int64_t window_ms) const {
  const std::scoped_lock lock(mu_);
  const SeriesData* s = FindLocked(series);
  if (s == nullptr) return 0.0;
  // Finest resolution whose full span covers the window; fall back to the
  // coarsest when the window outreaches everything.
  std::size_t pick = kResolutions.size() - 1;
  for (std::size_t i = 0; i < kResolutions.size(); ++i) {
    const Resolution& r = kResolutions[i];
    if (r.slot_ms * static_cast<std::int64_t>(r.slots) >= window_ms) {
      pick = i;
      break;
    }
  }
  const std::int64_t slot_ms = kResolutions[pick].slot_ms;
  const std::int64_t from = s->latest_ms - window_ms;
  const Slot* earliest = nullptr;
  const Slot* latest = nullptr;
  for (const Slot& slot : s->rings[pick]) {
    // Stale ring entries from a previous lap are older than the window by
    // construction; the start_ms check drops them.
    if (slot.start_ms < 0 || slot.start_ms + slot_ms <= from ||
        slot.start_ms > s->latest_ms) {
      continue;
    }
    if (earliest == nullptr || slot.start_ms < earliest->start_ms) {
      earliest = &slot;
    }
    if (latest == nullptr || slot.start_ms > latest->start_ms) latest = &slot;
  }
  if (earliest == nullptr) return 0.0;
  return std::max(0.0, latest->last - earliest->first);
}

std::vector<SlidingWindowStore::Point> SlidingWindowStore::Series(
    std::string_view series, std::int64_t slot_ms) const {
  const std::scoped_lock lock(mu_);
  const SeriesData* s = FindLocked(series);
  if (s == nullptr) return {};
  std::vector<Point> out;
  for (std::size_t i = 0; i < kResolutions.size(); ++i) {
    if (kResolutions[i].slot_ms != slot_ms) continue;
    for (const Slot& slot : s->rings[i]) {
      if (slot.start_ms < 0 || slot.start_ms > s->latest_ms) continue;
      out.push_back(Point{slot.start_ms, slot.last});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Point& a, const Point& b) { return a.t_ms < b.t_ms; });
  return out;
}

std::size_t SlidingWindowStore::series_count() const {
  const std::scoped_lock lock(mu_);
  return series_.size();
}

std::uint64_t SlidingWindowStore::samples() const {
  const std::scoped_lock lock(mu_);
  return samples_;
}

std::int64_t SlidingWindowStore::last_sample_t_ms() const {
  const std::scoped_lock lock(mu_);
  return last_sample_t_ms_;
}

}  // namespace fl::ops

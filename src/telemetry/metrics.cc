#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cctype>

#include "src/common/status.h"

namespace fl::telemetry {

Histogram::Histogram(HistogramOptions opts) {
  FL_CHECK(opts.first_bound > 0 && opts.growth > 1.0 && opts.buckets > 0);
  bounds_.reserve(opts.buckets);
  double b = opts.first_bound;
  for (std::size_t i = 0; i < opts.buckets; ++i) {
    bounds_.push_back(b);
    b *= opts.growth;
  }
  counts_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double s;
    __builtin_memcpy(&s, &old, sizeof(s));
    s += v;
    std::uint64_t neu;
    __builtin_memcpy(&neu, &s, sizeof(neu));
    if (sum_bits_.compare_exchange_weak(old, neu,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

double Histogram::Sum() const {
  const std::uint64_t b = sum_bits_.load(std::memory_order_relaxed);
  double s;
  __builtin_memcpy(&s, &b, sizeof(s));
  return s;
}

double BucketQuantile(std::span<const double> bounds,
                      std::span<const std::uint64_t> counts, double p) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 *
                        static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t prev = cum;
    cum += counts[i];
    if (static_cast<double>(cum) < target) continue;
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    // Midpoint-clamped interpolation: the c samples in this bucket are
    // treated as sitting at in-bucket midpoints, so frac stays inside
    // [0.5/c, 1 - 0.5/c]. Raw interpolation reported the exact bucket
    // boundary for quantiles landing on a cumulative-count edge, and spread
    // a single-sample bucket's answers across its whole width (p1 near the
    // bottom, p99 near the top, for one observation).
    const double c = static_cast<double>(counts[i]);
    const double frac = std::clamp((target - static_cast<double>(prev)) / c,
                                   0.5 / c, 1.0 - 0.5 / c);
    return lo + (hi - lo) * frac;
  }
  return bounds.back();  // overflow bucket
}

double Histogram::Quantile(double p) const {
  return BucketQuantile(bounds_, BucketCounts(), p);
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::ResetForTest() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

const MetricsSnapshot::CounterValue* MetricsSnapshot::FindCounter(
    std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::FindGauge(
    std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();  // leaked
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         HistogramOptions opts) {
  const std::scoped_lock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(opts))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  const std::scoped_lock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = name;
    hv.bounds = h->bounds();
    hv.counts = h->BucketCounts();
    hv.count = h->Count();
    hv.sum = h->Sum();
    snap.histograms.push_back(std::move(hv));
  }
  return snap;
}

void MetricsRegistry::ResetValuesForTest() {
  const std::scoped_lock lock(mu_);
  for (auto& [name, c] : counters_) c->ResetForTest();
  for (auto& [name, g] : gauges_) g->ResetForTest();
  for (auto& [name, h] : histograms_) h->ResetForTest();
}

std::string MetricsRegistry::Sanitize(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      out += static_cast<char>(std::tolower(u));
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

}  // namespace fl::telemetry

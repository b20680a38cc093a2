// Thread-safe metrics registry (Sec. 5): counters, gauges and
// fixed-exponential-bucket histograms feeding the Prometheus/JSON dumps and,
// through the stats tick's snapshots, the ops window store and health checks.
//
// Concurrency model (all of it TSan-clean by construction):
//  * Counter increments go to one of kCounterCells cache-line-sized cells
//    picked by the calling thread's ThreadOrdinal(), so hot paths under the
//    PR 1 ThreadPool never contend on a shared line; Value() sums the cells.
//  * Histograms use one relaxed atomic per bucket plus a CAS-loop double sum.
//  * Registry lookups take a mutex, but instruments are never removed, so
//    callers cache the returned pointer (function-local static or a field)
//    and the mutex stays off the hot path. ResetValuesForTest() zeroes
//    values without invalidating any cached pointer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/telemetry.h"

namespace fl::telemetry {

// Monotonic counter with per-thread sharded cells.
class Counter {
 public:
  static constexpr std::size_t kCells = 16;

  void Add(std::uint64_t n = 1) {
    cells_[ThreadOrdinal() % kCells].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }
  void ResetForTest() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kCells> cells_{};
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { bits_.store(ToBits(v), std::memory_order_relaxed); }
  void Add(double d) {
    std::uint64_t old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(old, ToBits(FromBits(old) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  double Value() const {
    return FromBits(bits_.load(std::memory_order_relaxed));
  }
  void ResetForTest() { Set(0); }

 private:
  static std::uint64_t ToBits(double v) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double FromBits(std::uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

// Bucket layout for a Histogram: upper bound of bucket i is
// first_bound * growth^i (Prometheus `le` semantics: v <= bound lands in
// bucket i); values above the last bound go to an implicit overflow bucket.
struct HistogramOptions {
  double first_bound = 1.0;
  double growth = 2.0;
  std::size_t buckets = 24;
};

// Midpoint-clamped linear interpolation inside the owning bucket; p in
// [0, 100]. `counts` pairs with `bounds` plus one trailing overflow bucket,
// as in Histogram::BucketCounts(). Estimates never sit exactly on a bucket
// boundary, and a single-sample bucket reports its midpoint for every p.
// The overflow bucket reports its lower bound (the estimate is clamped to
// the configured range). The one estimator for live histograms and
// MetricsSnapshot copies alike.
double BucketQuantile(std::span<const double> bounds,
                      std::span<const std::uint64_t> counts, double p);

class Histogram {
 public:
  explicit Histogram(HistogramOptions opts);

  void Observe(double v);

  std::uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double Sum() const;
  double Mean() const {
    const std::uint64_t n = Count();
    return n > 0 ? Sum() / static_cast<double>(n) : 0.0;
  }
  // BucketQuantile over the current bucket counts.
  double Quantile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  // counts()[i] pairs with bounds()[i]; the extra last element is overflow.
  std::vector<std::uint64_t> BucketCounts() const;

  void ResetForTest();

 private:
  std::vector<double> bounds_;
  // bounds_.size() + 1 entries; the last one is the overflow bucket.
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double stored as bits, CAS add
};

// Point-in-time copy of every instrument, safe to read at leisure.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  const CounterValue* FindCounter(std::string_view name) const;
  const GaugeValue* FindGauge(std::string_view name) const;
  const HistogramValue* FindHistogram(std::string_view name) const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Get-or-create by name. Names should be Prometheus-style
  // ([a-zA-Z_][a-zA-Z0-9_]*); Sanitize() maps arbitrary strings into that
  // alphabet. Returned pointers stay valid for the registry's lifetime.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name, HistogramOptions opts = {});

  MetricsSnapshot Snapshot() const;

  // Zeroes every value but keeps every instrument alive (cached pointers in
  // instrumentation sites stay valid across tests).
  void ResetValuesForTest();

  // Lowercases and maps every char outside [a-z0-9_] to '_' (so an actor
  // name like "aggregator-r12-0" can become part of a metric name).
  static std::string Sanitize(std::string_view raw);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace fl::telemetry

// Exporters for the telemetry subsystem (Sec. 5: dashboards and time-series
// monitors are fed from one data path; these dumps and the ops health
// checks both read MetricsRegistry snapshots):
//  * Chrome `trace_event` JSON (the "JSON Array Format" with a traceEvents
//    wrapper) — drag into https://ui.perfetto.dev to see rounds, their
//    Selection / Configuration / Reporting phases, and per-client-update
//    work laid out per thread.
//  * Prometheus text exposition of a MetricsSnapshot — counters, gauges and
//    cumulative histogram buckets.
//  * A flat JSON metrics dump for benches and notebooks.
#pragma once

#include <string>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace fl::telemetry {

// Renders spans as Chrome trace JSON. Timestamp domain: if any span carries
// a nonzero SimTime the whole trace is rendered on the simulation clock
// (µs = SimTime millis * 1000); otherwise on the wall clock. Mixing both
// kinds in one trace keeps the sim clock and renders wall-only spans at
// their (zero-width) sim position — export such traces separately instead.
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans);

// Prometheus text format, one line per sample; histograms expose
// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
std::string PrometheusText(const MetricsSnapshot& snapshot);

// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
std::string MetricsJson(const MetricsSnapshot& snapshot);

// Convenience wrappers over the global tracer/registry; return false on
// I/O failure.
bool WriteChromeTraceFile(const std::string& path);
bool WritePrometheusFile(const std::string& path);
bool WriteMetricsJsonFile(const std::string& path);

}  // namespace fl::telemetry

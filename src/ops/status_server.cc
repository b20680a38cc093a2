#include "src/ops/status_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "src/analytics/profile.h"
#include "src/analytics/symbolizer.h"
#include "src/common/json_writer.h"
#include "src/profiler/cpu_profiler.h"
#include "src/profiler/heap_profiler.h"
#include "src/profiler/profiler.h"
#include "src/telemetry/export.h"
#include "src/telemetry/trace.h"

namespace fl::ops {
namespace {

// The series /statusz ships for fl_top's charts: round and checkin totals
// (rates come from differencing) plus the two headline fleet gauges.
constexpr const char* kChartSeries[] = {
    "fl_server_rounds_committed_total", "fl_server_rounds_abandoned_total",
    "fl_server_devices_accepted_total", "fl_server_devices_rejected_total",
    "fl_sim_live_actors",               "fl_sim_event_queue_pending",
    "fl_server_upload_bytes_total",     "fl_server_download_bytes_total",
};

constexpr std::int64_t kTenMinutesMs = 10 * 60 * 1000;

// First value of `key` in a query string ("a=1&b=2"); empty when absent.
std::string QueryParam(const std::string& query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string_view pair =
        std::string_view(query).substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return "";
}

void HtmlEscapeInto(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '&': *out += "&amp;"; break;
      case '<': *out += "&lt;"; break;
      case '>': *out += "&gt;"; break;
      default: *out += c;
    }
  }
}

double SpanDurationMs(const telemetry::SpanRecord& s) {
  if (s.wall_end_us > s.wall_start_us) {
    return static_cast<double>(s.wall_end_us - s.wall_start_us) / 1000.0;
  }
  return static_cast<double>((s.sim_end - s.sim_start).millis);
}

}  // namespace

namespace {
HttpServer::Options HttpOptionsFrom(const StatusServer::Options& opts) {
  HttpServer::Options http_opts;
  http_opts.port = opts.port;
  http_opts.worker_threads = opts.worker_threads;
  return http_opts;
}
}  // namespace

StatusServer::StatusServer(Options opts, Sources sources)
    : opts_(std::move(opts)), sources_(sources), http_(HttpOptionsFrom(opts_)) {}

Status StatusServer::Start() {
  start_wall_us_ = telemetry::WallMicros();
  http_.Handle("/", [this](const HttpRequest& r) { return Index(r); });
  http_.Handle("/metrics",
               [this](const HttpRequest& r) { return Metrics(r); });
  http_.Handle("/statusz",
               [this](const HttpRequest& r) { return Statusz(r); });
  http_.Handle("/rounds", [this](const HttpRequest& r) { return Rounds(r); });
  http_.Handle("/healthz",
               [this](const HttpRequest& r) { return Healthz(r); });
  http_.Handle("/tracez", [this](const HttpRequest& r) { return Tracez(r); });
  http_.Handle("/debugz", [this](const HttpRequest& r) { return Debugz(r); });
  http_.Handle("/profilez",
               [this](const HttpRequest& r) { return Profilez(r); });
  return http_.Start();
}

void StatusServer::Stop() { http_.Stop(); }

HttpResponse StatusServer::Metrics(const HttpRequest&) const {
  return HttpResponse::Text(telemetry::PrometheusText(
      telemetry::MetricsRegistry::Global().Snapshot()));
}

HttpResponse StatusServer::Statusz(const HttpRequest& req) const {
  if (req.QueryParamIs("format", "html")) {
    return HttpResponse::Html(StatuszHtml());
  }
  return HttpResponse::Json(StatuszJson());
}

std::int64_t StatusServer::SimNowMs() const {
  return sources_.store != nullptr ? sources_.store->last_sample_t_ms() : 0;
}

std::string StatusServer::StatuszJson() const {
  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Field("population", opts_.population);
  w.BeginObject("build").EnvironmentFields().EndObject();
  w.Field("uptime_wall_seconds",
          static_cast<double>(telemetry::WallMicros() - start_wall_us_) /
              1e6);
  const std::int64_t sim_ms = SimNowMs();
  w.Field("sim_time_ms", sim_ms);
  w.Field("sim_time", FormatSimTime(SimTime{sim_ms}));
  if (sources_.store != nullptr) {
    w.Field("samples", sources_.store->samples());
    w.Field("last_sample_t_ms", sim_ms);
  }
  w.BeginObject("server")
      .Field("requests_served", http_.requests_served())
      .Field("connections_accepted", http_.connections_accepted())
      .Field("parse_errors", http_.parse_errors())
      .EndObject();
  if (sources_.health != nullptr) {
    w.Raw("health", sources_.health->latest().ToJson());
  }
  if (sources_.ledger != nullptr) {
    const RoundLedger::Totals t = sources_.ledger->totals();
    w.BeginObject("round_totals")
        .Field("rounds_committed", t.rounds_committed)
        .Field("rounds_abandoned", t.rounds_abandoned)
        .Field("checkins_accepted", t.checkins_accepted)
        .Field("checkins_rejected", t.checkins_rejected)
        .Field("errors", t.errors)
        .EndObject();
  }
  w.BeginObject("counters");
  for (const auto& c : snapshot.counters) w.Field(c.name, c.value);
  w.EndObject();
  w.BeginObject("gauges");
  for (const auto& g : snapshot.gauges) w.Field(g.name, g.value);
  w.EndObject();
  if (sources_.store != nullptr) {
    // Trailing 10-minute deltas of the headline counters, plus the chart
    // series at 10 s resolution (fl_top differences them client-side).
    w.BeginObject("windows");
    w.Field("commit_per_10m",
            sources_.store->WindowDelta("fl_server_rounds_committed_total",
                                        kTenMinutesMs));
    w.Field("abandon_per_10m",
            sources_.store->WindowDelta("fl_server_rounds_abandoned_total",
                                        kTenMinutesMs));
    w.Field("accept_per_10m",
            sources_.store->WindowDelta("fl_server_devices_accepted_total",
                                        kTenMinutesMs));
    w.Field("reject_per_10m",
            sources_.store->WindowDelta("fl_server_devices_rejected_total",
                                        kTenMinutesMs));
    w.Field("upload_bytes_per_10m",
            sources_.store->WindowDelta("fl_server_upload_bytes_total",
                                        kTenMinutesMs));
    w.Field("download_bytes_per_10m",
            sources_.store->WindowDelta("fl_server_download_bytes_total",
                                        kTenMinutesMs));
    w.EndObject();
    const std::int64_t chart_slot_ms =
        SlidingWindowStore::kResolutions[1].slot_ms;
    w.BeginObject("series");
    for (const char* name : kChartSeries) {
      const auto points = sources_.store->Series(name, chart_slot_ms);
      if (points.empty()) continue;
      w.BeginObject(name);
      w.Field("slot_ms", chart_slot_ms);
      w.BeginArray("points");
      for (const auto& p : points) {
        w.BeginArray().Field("", p.t_ms).Field("", p.value).EndArray();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

std::string StatusServer::StatuszHtml() const {
  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  std::string out;
  out += "<!doctype html><html><head><title>statusz</title></head><body>";
  out += "<h1>";
  HtmlEscapeInto(&out, opts_.population);
  out += "</h1>";
  const std::int64_t sim_ms = SimNowMs();
  out += "<p>sim time " + FormatSimTime(SimTime{sim_ms}) + ", uptime " +
         std::to_string(
             (telemetry::WallMicros() - start_wall_us_) / 1000000) +
         "s</p>";
  if (sources_.health != nullptr) {
    const HealthReport report = sources_.health->latest();
    out += report.healthy ? "<p><b>HEALTHY</b></p>"
                          : "<p><b>UNHEALTHY</b></p>";
    out += "<table border=1><tr><th>check</th><th>ok</th><th>detail</th>"
           "</tr>";
    for (const HealthCheck& c : report.checks) {
      out += "<tr><td>";
      HtmlEscapeInto(&out, c.name);
      out += c.ok ? "</td><td>ok</td><td>" : "</td><td><b>FAIL</b></td><td>";
      HtmlEscapeInto(&out, c.detail);
      out += "</td></tr>";
    }
    out += "</table>";
  }
  out += "<h2>gauges</h2><table border=1>";
  for (const auto& g : snapshot.gauges) {
    out += "<tr><td>";
    HtmlEscapeInto(&out, g.name);
    out += "</td><td>" + std::to_string(g.value) + "</td></tr>";
  }
  out += "</table><p><a href=\"/metrics\">metrics</a> "
         "<a href=\"/rounds\">rounds</a> <a href=\"/healthz\">healthz</a> "
         "<a href=\"/tracez\">tracez</a></p></body></html>";
  return out;
}

HttpResponse StatusServer::Rounds(const HttpRequest& req) const {
  if (sources_.ledger == nullptr) {
    return HttpResponse::Json("{\"totals\":{},\"rounds\":[]}");
  }
  std::size_t limit = opts_.default_rounds_limit;
  const std::string raw = QueryParam(req.query, "limit");
  if (!raw.empty()) {
    const long parsed = std::strtol(raw.c_str(), nullptr, 10);
    if (parsed > 0) limit = static_cast<std::size_t>(parsed);
  }
  limit = std::min(limit, opts_.max_rounds_limit);
  return HttpResponse::Json(sources_.ledger->RecentJson(limit));
}

HttpResponse StatusServer::Healthz(const HttpRequest&) const {
  if (sources_.health == nullptr) {
    return HttpResponse::Json("{\"healthy\":true,\"checks\":[]}");
  }
  const HealthReport report = sources_.health->latest();
  return HttpResponse::Json(report.ToJson(), report.healthy ? 200 : 503);
}

HttpResponse StatusServer::Tracez(const HttpRequest&) const {
  const auto& tracer = telemetry::Tracer::Global();
  const std::vector<telemetry::SpanRecord> spans = tracer.Completed();
  struct NameAgg {
    std::uint64_t count = 0;
    double total_ms = 0;
    double max_ms = 0;
  };
  std::map<std::string, NameAgg> by_name;
  for (const auto& s : spans) {
    NameAgg& agg = by_name[s.name];
    const double ms = SpanDurationMs(s);
    ++agg.count;
    agg.total_ms += ms;
    agg.max_ms = std::max(agg.max_ms, ms);
  }
  JsonWriter w;
  w.BeginObject();
  w.Field("completed_spans", spans.size());
  w.Field("open_spans", tracer.open_spans());
  w.Field("dropped_spans", tracer.dropped_spans());
  w.BeginArray("by_name");
  for (const auto& [name, agg] : by_name) {
    w.BeginObject()
        .Field("name", name)
        .Field("count", agg.count)
        .Field("mean_ms",
               agg.count > 0 ? agg.total_ms / static_cast<double>(agg.count)
                             : 0.0)
        .Field("max_ms", agg.max_ms)
        .EndObject();
  }
  w.EndArray();
  w.BeginArray("recent");
  const std::size_t take = std::min<std::size_t>(spans.size(), 20);
  for (std::size_t i = spans.size() - take; i < spans.size(); ++i) {
    const auto& s = spans[i];
    w.BeginObject()
        .Field("name", s.name)
        .Field("sim_start_ms", s.sim_start.millis)
        .Field("duration_ms", SpanDurationMs(s))
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  return HttpResponse::Json(w.str());
}

HttpResponse StatusServer::Debugz(const HttpRequest& req) const {
  if (sources_.bundler == nullptr) {
    return HttpResponse::Json(
        "{\"enabled\":false,\"captured\":0,\"bundles\":[]}");
  }
  const std::string bundle_raw = QueryParam(req.query, "bundle");
  const std::string file = QueryParam(req.query, "file");
  if (bundle_raw.empty() && file.empty()) {
    return HttpResponse::Json(sources_.bundler->HistoryJson());
  }
  // File serving: the client names a bundle by seq and a file from the
  // known set — never a path. Everything else is 404.
  char* end = nullptr;
  const unsigned long long seq = std::strtoull(bundle_raw.c_str(), &end, 10);
  if (end == bundle_raw.c_str() || *end != '\0') {
    return HttpResponse::Text("bad bundle seq\n", 400);
  }
  const auto& known = DiagnosticBundler::KnownFiles();
  if (std::find(known.begin(), known.end(), file) == known.end()) {
    return HttpResponse::Text("unknown bundle file\n", 404);
  }
  std::string dir;
  for (const auto& b : sources_.bundler->History()) {
    if (b.seq == seq) {
      dir = b.path;
      break;
    }
  }
  if (dir.empty()) return HttpResponse::Text("no such bundle\n", 404);
  std::FILE* f = std::fopen((dir + "/" + file).c_str(), "rb");
  if (f == nullptr) return HttpResponse::Text("bundle file missing\n", 404);
  std::string body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  if (file.size() > 5 && file.compare(file.size() - 5, 5, ".json") == 0) {
    return HttpResponse::Json(std::move(body));
  }
  return HttpResponse::Text(std::move(body));
}

HttpResponse StatusServer::Profilez(const HttpRequest& req) const {
  if (!profiler::kCompiledIn) {
    return HttpResponse::Text("profiler compiled out (-DFL_PROFILER=OFF)\n",
                              503);
  }
  if (!profiler::Enabled()) {
    return HttpResponse::Text("profiler disabled; set FL_PROFILER=1\n", 503);
  }

  if (QueryParam(req.query, "type") == "heap") {
    const bool live = QueryParam(req.query, "which") != "total";
    analytics::Symbolizer symbolizer;
    const analytics::FoldedProfile profile = analytics::FoldHeapSites(
        profiler::HeapProfiler::Global().Snapshot(), symbolizer, live);
    return HttpResponse::Text(profile.ToString());
  }

  long seconds = 5;
  const std::string seconds_raw = QueryParam(req.query, "seconds");
  if (!seconds_raw.empty()) seconds = std::atol(seconds_raw.c_str());
  seconds = std::clamp<long>(seconds, 1, 60);

  bool expected = false;
  if (!profilez_busy_.compare_exchange_strong(expected, true)) {
    return HttpResponse::Text("cpu capture already in flight\n", 409);
  }

  profiler::CpuProfiler& cpu = profiler::CpuProfiler::Global();
  bool started_here = false;
  if (!cpu.running()) {
    int hz = profiler::CpuProfiler::kDefaultHz;
    const std::string hz_raw = QueryParam(req.query, "hz");
    if (!hz_raw.empty()) {
      hz = std::clamp<int>(std::atoi(hz_raw.c_str()), 1,
                           profiler::CpuProfiler::kMaxHz);
    }
    const Status status = cpu.Start(hz);
    if (!status.ok()) {
      profilez_busy_.store(false);
      return HttpResponse::Text(status.ToString() + "\n", 503);
    }
    started_here = true;
  }

  // Window the continuous stream by seq, polling incrementally so a busy
  // thread cannot lap its 1024-slot ring within our collection period.
  std::uint64_t cursor = cpu.last_seq();
  std::vector<profiler::CpuSample> samples;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::vector<profiler::CpuSample> batch = cpu.CollectSince(cursor);
    for (profiler::CpuSample& sample : batch) {
      cursor = std::max(cursor, sample.seq);
      samples.push_back(std::move(sample));
    }
  }
  if (started_here) cpu.Stop();
  profilez_busy_.store(false);

  analytics::Symbolizer symbolizer;
  const analytics::FoldedProfile profile =
      analytics::FoldCpuSamples(samples, symbolizer);
  return HttpResponse::Text(profile.ToString());
}

HttpResponse StatusServer::Index(const HttpRequest&) const {
  std::string out =
      "<!doctype html><html><head><title>fl ops</title></head><body>"
      "<h1>";
  HtmlEscapeInto(&out, opts_.population);
  out +=
      "</h1><ul>"
      "<li><a href=\"/metrics\">/metrics</a> Prometheus text</li>"
      "<li><a href=\"/statusz?format=html\">/statusz</a> build, health, "
      "fleet gauges (JSON by default)</li>"
      "<li><a href=\"/rounds\">/rounds</a> recent round records</li>"
      "<li><a href=\"/healthz\">/healthz</a> SLO verdict</li>"
      "<li><a href=\"/tracez\">/tracez</a> span summaries</li>"
      "<li><a href=\"/debugz\">/debugz</a> diagnostic bundles</li>"
      "<li><a href=\"/profilez\">/profilez</a> collapsed-stack profile "
      "(?seconds=N&amp;type=cpu|heap)</li>"
      "</ul></body></html>";
  return HttpResponse::Html(out);
}

}  // namespace fl::ops

#include "src/telemetry/export.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace fl::telemetry {
namespace {

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  if (!f) return false;
  f << body << "\n";
  return static_cast<bool>(f);
}

}  // namespace

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans) {
  bool use_sim = false;
  for (const SpanRecord& s : spans) {
    if (s.sim_start.millis != 0 || s.sim_end.millis != 0) {
      use_sim = true;
      break;
    }
  }

  // Span index by id: a parent outside the exported set (say, the round of
  // a run that stopped mid-round) is written as "0", so the span is a root;
  // a parent inside it anchors the flow arrows drawn to children linked
  // across actors (SpanRecord::flow_parent).
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);

  const auto start_ts = [&](const SpanRecord& s) {
    return use_sim ? s.sim_start.millis * 1000 : s.wall_start_us;
  };

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    const auto parent = by_id.find(s.parent);
    const std::uint64_t parent_id = parent == by_id.end() ? 0 : s.parent;
    const std::int64_t ts = start_ts(s);
    const std::int64_t end =
        use_sim ? s.sim_end.millis * 1000 : s.wall_end_us;
    const std::int64_t dur = end > ts ? end - ts : 0;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(out, s.name);
    out += ",\"cat\":\"fl\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(ts);
    out += ",\"dur\":";
    out += std::to_string(dur);
    out += ",\"pid\":0,\"tid\":";
    out += std::to_string(s.tid);
    out += ",\"args\":{\"span_id\":\"";
    out += std::to_string(s.id);
    out += "\",\"parent\":\"";
    out += std::to_string(parent_id);
    out += '"';
    if (s.ctx_round != 0) {
      out += ",\"ctx_round\":\"" + std::to_string(s.ctx_round) + '"';
    }
    if (s.ctx_session != 0) {
      out += ",\"ctx_session\":\"" + std::to_string(s.ctx_session) + '"';
    }
    if (s.ctx_device != 0) {
      out += ",\"ctx_device\":\"" + std::to_string(s.ctx_device) + '"';
    }
    for (const auto& [k, v] : s.attrs) {
      out += ',';
      AppendJsonString(out, k);
      out += ':';
      AppendJsonString(out, v);
    }
    out += "}}";
    // Perfetto flow arrow parent → child for cross-actor links:
    // a flow-start ("s") on the parent span's track at its begin time and a
    // flow-finish ("f", bp:"e") at this span's begin. Keyed by the child
    // span id, which is unique per link.
    if (s.flow_parent && parent_id != 0) {
      const SpanRecord& p = spans[parent->second];
      out += ",{\"name\":\"ctx\",\"cat\":\"fl\",\"ph\":\"s\",\"id\":";
      out += std::to_string(s.id);
      out += ",\"ts\":";
      out += std::to_string(start_ts(p));
      out += ",\"pid\":0,\"tid\":";
      out += std::to_string(p.tid);
      out += "},{\"name\":\"ctx\",\"cat\":\"fl\",\"ph\":\"f\",\"bp\":\"e\","
             "\"id\":";
      out += std::to_string(s.id);
      out += ",\"ts\":";
      out += std::to_string(ts);
      out += ",\"pid\":0,\"tid\":";
      out += std::to_string(s.tid);
      out += '}';
    }
  }
  out += "]}";
  return out;
}

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    out += "# TYPE " + c.name + " counter\n";
    out += c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snapshot.gauges) {
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + " ";
    AppendDouble(out, g.value);
    out += "\n";
  }
  for (const auto& h : snapshot.histograms) {
    out += "# TYPE " + h.name + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cum += h.counts[i];
      out += h.name + "_bucket{le=\"";
      AppendDouble(out, h.bounds[i]);
      out += "\"} " + std::to_string(cum) + "\n";
    }
    cum += h.counts.empty() ? 0 : h.counts.back();
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + "\n";
    out += h.name + "_sum ";
    AppendDouble(out, h.sum);
    out += "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, c.name);
    out += ':' + std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& g : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, g.name);
    out += ':';
    AppendDouble(out, g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : snapshot.histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, h.name);
    out += ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ',';
      AppendDouble(out, h.bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(h.counts[i]);
    }
    out += "],\"count\":" + std::to_string(h.count) + ",\"sum\":";
    AppendDouble(out, h.sum);
    out += '}';
  }
  out += "}}";
  return out;
}

bool WriteChromeTraceFile(const std::string& path) {
  return WriteFile(path, ChromeTraceJson(Tracer::Global().Completed()));
}

bool WritePrometheusFile(const std::string& path) {
  return WriteFile(path, PrometheusText(MetricsRegistry::Global().Snapshot()));
}

bool WriteMetricsJsonFile(const std::string& path) {
  return WriteFile(path, MetricsJson(MetricsRegistry::Global().Snapshot()));
}

}  // namespace fl::telemetry

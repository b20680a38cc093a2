#include "src/ops/debug_bundle.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>

#include "src/analytics/flight_dump.h"
#include "src/analytics/profile.h"
#include "src/analytics/symbolizer.h"
#include "src/common/json_writer.h"
#include "src/profiler/cpu_profiler.h"
#include "src/profiler/profiler.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace fl::ops {
namespace {

// mkdir -p for exactly two levels (root + bundle dir); EEXIST is success.
bool EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0) return true;
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return n == content.size();
}

std::string MetricsJson() {
  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.BeginObject("counters");
  for (const auto& c : snapshot.counters) w.Field(c.name, c.value);
  w.EndObject();
  w.BeginObject("gauges");
  for (const auto& g : snapshot.gauges) w.Field(g.name, g.value);
  w.EndObject();
  w.EndObject();
  return w.str();
}

// Directory names embed the trigger; keep it shell- and URL-inert.
std::string SanitizeTrigger(std::string_view trigger) {
  std::string out;
  out.reserve(trigger.size());
  for (char c : trigger) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("anomaly") : out;
}

}  // namespace

std::string BundleDirFromEnv() {
  const char* raw = std::getenv("FL_BUNDLE_DIR");
  return raw == nullptr ? std::string() : std::string(raw);
}

DiagnosticBundler::DiagnosticBundler(Options opts, Sources sources)
    : opts_(std::move(opts)), sources_(sources) {}

std::string DiagnosticBundler::Capture(std::string_view trigger,
                                       std::string_view detail,
                                       SimTime sim_now) {
  if (!enabled()) return "";
  const std::int64_t wall_us = telemetry::WallMicros();

  BundleInfo info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (history_.size() >= opts_.max_bundles ||
        (any_captured_ &&
         wall_us - last_capture_wall_us_ < opts_.min_interval_wall_us)) {
      ++suppressed_;
      return "";
    }
    // Claim the slot under the lock; file IO happens outside it.
    last_capture_wall_us_ = wall_us;
    any_captured_ = true;
    info.seq = seq_++;
    info.trigger = SanitizeTrigger(trigger);
    info.detail = std::string(detail);
    info.wall_us = wall_us;
    info.sim_ms = sim_now.millis;
    info.path = opts_.dir + "/bundle-" + std::to_string(info.seq) + "-" +
                info.trigger;
  }

  if (!EnsureDir(opts_.dir) || !EnsureDir(info.path)) return "";

  std::vector<std::string> files;
  if (WriteFile(info.path + "/flight_recorder.log",
                analytics::FlightDumpText())) {
    files.push_back("flight_recorder.log");
  }
  if (WriteFile(info.path + "/metrics.json", MetricsJson())) {
    files.push_back("metrics.json");
  }
  if (sources_.ledger != nullptr &&
      WriteFile(info.path + "/rounds.json",
                sources_.ledger->RecentJson(opts_.rounds_limit))) {
    files.push_back("rounds.json");
  }
  // Health runs on the stats tick only while telemetry is on; a report
  // that was never evaluated says nothing, so it is left out.
  const HealthReport health =
      sources_.health != nullptr ? sources_.health->latest() : HealthReport{};
  if (health.evaluations > 0 &&
      WriteFile(info.path + "/health.json", health.ToJson())) {
    files.push_back("health.json");
  }
  // Freeze what the continuous CPU profiler has in its rings right now —
  // the ~10 s leading up to the anomaly — as a symbolized folded profile.
  if (profiler::Enabled()) {
    analytics::Symbolizer symbolizer;
    const std::string folded =
        analytics::FoldCpuSamples(
            profiler::CpuProfiler::Global().CollectSince(0), symbolizer)
            .ToString();
    if (!folded.empty() &&
        WriteFile(info.path + "/cpu_profile.folded", folded)) {
      files.push_back("cpu_profile.folded");
    }
  }

  JsonWriter manifest;
  manifest.BeginObject()
      .Field("seq", info.seq)
      .Field("trigger", info.trigger)
      .Field("detail", info.detail)
      .Field("wall_us", info.wall_us)
      .Field("sim_ms", info.sim_ms);
  manifest.BeginArray("files");
  for (const std::string& f : files) manifest.Field("", f);
  manifest.EndArray();
  manifest.EndObject();
  WriteFile(info.path + "/manifest.json", manifest.str());

  const std::string path = info.path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    history_.push_back(std::move(info));
  }
  return path;
}

std::vector<DiagnosticBundler::BundleInfo> DiagnosticBundler::History() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

std::uint64_t DiagnosticBundler::captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_.size();
}

std::uint64_t DiagnosticBundler::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

std::string DiagnosticBundler::HistoryJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("dir", opts_.dir);
  w.Field("enabled", enabled());
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.Field("captured", static_cast<std::uint64_t>(history_.size()));
    w.Field("suppressed", suppressed_);
    w.BeginArray("bundles");
    for (const BundleInfo& b : history_) {
      w.BeginObject()
          .Field("seq", b.seq)
          .Field("trigger", b.trigger)
          .Field("detail", b.detail)
          .Field("path", b.path)
          .Field("wall_us", b.wall_us)
          .Field("sim_ms", b.sim_ms)
          .EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.str();
}

const std::vector<std::string>& DiagnosticBundler::KnownFiles() {
  static const std::vector<std::string>* files = new std::vector<std::string>{
      "manifest.json", "flight_recorder.log", "metrics.json", "rounds.json",
      "health.json", "cpu_profile.folded"};
  return *files;
}

}  // namespace fl::ops

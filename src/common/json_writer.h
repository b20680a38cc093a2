// Minimal streaming JSON writer shared by the bench binaries (BENCH_*.json)
// and the live ops plane (/statusz, /rounds, /healthz payloads): enough for
// flat result records, nested objects and arrays. Handles comma placement
// and string escaping; numbers print with enough digits to round-trip.
//
// Header-only and dependency-light on purpose: fl::telemetry::telemetry.h is
// itself header-only, so anything linking fl_common can emit environment-
// stamped JSON without pulling in the telemetry library.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/profiler/profiler.h"
#include "src/telemetry/telemetry.h"

#ifndef FL_GIT_SHA
#define FL_GIT_SHA "unknown"
#endif

namespace fl {

// Peak resident set size (VmHWM) of this process in bytes, from
// /proc/self/status. Returns 0 where procfs is unavailable (non-Linux), so
// callers can record it unconditionally and readers can tell "not measured"
// from a real value.
inline std::size_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::size_t kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %zu kB", &kb) == 1) {
      return kb * 1024;
    }
    break;
  }
  return 0;
}

class JsonWriter {
 public:
  JsonWriter& BeginObject(const std::string& key = "") {
    Prefix(key);
    out_ += '{';
    need_comma_.push_back(false);
    in_object_.push_back(true);
    return *this;
  }
  JsonWriter& EndObject() {
    need_comma_.pop_back();
    in_object_.pop_back();
    out_ += '}';
    return *this;
  }
  JsonWriter& BeginArray(const std::string& key = "") {
    Prefix(key);
    out_ += '[';
    need_comma_.push_back(false);
    in_object_.push_back(false);
    return *this;
  }
  JsonWriter& EndArray() {
    need_comma_.pop_back();
    in_object_.pop_back();
    out_ += ']';
    return *this;
  }
  JsonWriter& Field(const std::string& key, const std::string& value) {
    Prefix(key);
    AppendString(value);
    return *this;
  }
  JsonWriter& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonWriter& Field(const std::string& key, double value) {
    Prefix(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    return *this;
  }
  JsonWriter& Field(const std::string& key, std::size_t value) {
    Prefix(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Field(const std::string& key, std::int64_t value) {
    Prefix(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Field(const std::string& key, bool value) {
    Prefix(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  // Splices an already-serialized JSON value (must be valid JSON).
  JsonWriter& Raw(const std::string& key, const std::string& json) {
    Prefix(key);
    out_ += json;
    return *this;
  }

  // Records the environment every bench result / status page needs for
  // comparability: results from different core counts, telemetry modes, or
  // revisions are not directly comparable. Call inside an object.
  JsonWriter& EnvironmentFields() {
    Field("hardware_concurrency",
          static_cast<std::size_t>(std::thread::hardware_concurrency()));
    Field("telemetry_compiled_in", telemetry::kCompiledIn);
    Field("telemetry_enabled", telemetry::Enabled());
    Field("fl_profiler_compiled_in", profiler::kCompiledIn);
    Field("fl_profiler_enabled", profiler::Enabled());
    Field("git_sha", FL_GIT_SHA);
    Field("peak_rss_bytes", PeakRssBytes());
    return *this;
  }

  const std::string& str() const { return out_; }

  // Writes the document to `path` (with a trailing newline); returns false
  // on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << out_ << "\n";
    return static_cast<bool>(f);
  }

 private:
  void Prefix(const std::string& key) {
    if (!need_comma_.empty()) {
      if (need_comma_.back()) out_ += ',';
      need_comma_.back() = true;
    }
    // Inside an object every value has a key, "" included.
    if (!key.empty() || (!in_object_.empty() && in_object_.back())) {
      AppendString(key);
      out_ += ':';
    }
  }
  void AppendString(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        case '\b': out_ += "\\b"; break;
        case '\f': out_ += "\\f"; break;
        default:
          // Remaining control chars must be \u-escaped or parsers
          // (including src/ops/json.cc) reject the document.
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> need_comma_;
  std::vector<bool> in_object_;  // per open container: object (vs array)
};

}  // namespace fl

// fl_perfbench: one program, three named workloads, end-to-end metrics from
// timed repeats and per-layer metrics from a separate traced run.
//
//   fl_perfbench --workload fleet_plain|fleet_secagg_codec|fedavg_sim
//                --seed N --seconds S --trace 0|1
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. See perfbench/README.md.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench/src/perfbench.h"
#include "src/common/crc32.h"
#include "src/common/json_writer.h"
#include "src/profiler/profiler.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::size_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    std::size_t kb = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %zu kB", &kb) == 1) return kb * 1024;
  }
  return 0;
}

void ReleaseFreedMemory() { malloc_trim(0); }

std::uint32_t ModelCrc(const fl::Checkpoint& model) {
  const fl::Bytes blob = model.Serialize();
  return fl::Crc32(std::span<const std::uint8_t>(blob).first(
      blob.size() >= 4 ? blob.size() - 4 : 0));
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Report::Print(const std::string& environment_json) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const std::string& what : failures_) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  std::printf("environment %s\n", environment_json.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  fl::JsonWriter json;
  json.BeginObject()
      .Field("correct", failed_ == 0 && attempted_ > 0)
      .Field("attempted", attempted_)
      .Field("failed", failed_)
      .BeginObject("metrics");
  for (const Metric& m : metrics_) {
    json.BeginObject(m.name)
        .Field("value", m.value)
        .Field("unit", m.unit)
        .EndObject();
  }
  json.EndObject().EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

namespace {

// Runtime overrides src/ reads from the environment. They are cleared before
// any system is built so shipping defaults apply and a stray shell variable
// cannot change what is measured. Returns the names that were set.
std::string PinEnvironment() {
  static const char* const kExact[] = {"FL_EVENT_QUEUE", "FL_STATUSZ",
                                       "FL_BUNDLE_DIR", "FL_FLIGHT_RECORDER"};
  std::string cleared;
  auto clear = [&cleared](const std::string& name) {
    if (std::getenv(name.c_str()) == nullptr) return;
    unsetenv(name.c_str());
    cleared += cleared.empty() ? name : "," + name;
  };
  for (const char* name : kExact) clear(name);
  std::vector<std::string> profiler_vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FL_PROFILER", 11) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    profiler_vars.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                                 : static_cast<std::size_t>(
                                                       eq - *e));
  }
  for (const std::string& name : profiler_vars) clear(name);
  // FL_PROFILER is consulted by the first operator new, possibly before
  // main; force the shipping default (off) in case it was set then.
  fl::profiler::SetEnabled(false);
  return cleared;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_plain|fleet_secagg_codec|"
               "fedavg_sim --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage(argv[0]);

  const std::string cleared = PinEnvironment();
  Report report;
  if (options.workload == "fleet_plain" ||
      options.workload == "fleet_secagg_codec") {
    RunFleet(options, report);
  } else if (options.workload == "fedavg_sim") {
    RunFedAvgSim(options, report);
  } else {
    return Usage(argv[0]);
  }

  fl::JsonWriter env;
  env.BeginObject()
      .Field("workload", options.workload)
      .Field("seed", static_cast<std::size_t>(options.seed))
      .Field("trace", options.trace)
      .Field("env_cleared", cleared)
      .EnvironmentFields()
      .EndObject();
  report.Print(env.str());
  return 0;
}

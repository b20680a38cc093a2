// Shared plumbing of the layer-attributed benchmark: options, timing,
// quantiles, process memory, and the result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/checkpoint.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double NanosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measurement budget for the timed repeats
  bool trace = false;   // per-layer traced run instead of the timed run
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for an
// empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// Resident set of this process now (VmRSS), in bytes.
std::size_t CurrentRssBytes();
// Hands freed heap pages back to the OS so the next job's RSS growth is its
// own and not masked by the previous job's free lists.
void ReleaseFreedMemory();

// CRC32 of a checkpoint's serialized body (the trailer that Serialize()
// appends is itself a CRC32, which would make every whole-blob CRC equal).
std::uint32_t ModelCrc(const fl::Checkpoint& model);

// One run's outcome: named metrics in insertion order, output checks, and
// free-form lines for the human-readable part of the report.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Counts one attempted unit of work (a workload repeat or a probe) and
  // whether its output check passed; failures are listed in the report.
  void Attempt(bool ok, const std::string& what);
  void Note(const std::string& line) { notes_.push_back(line); }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  // Human-readable block followed by the one-line JSON result (last line).
  void Print(const std::string& environment_json) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

void RunFleet(const Options& options, Report& report);
void RunFedAvgSim(const Options& options, Report& report);

}  // namespace perfbench

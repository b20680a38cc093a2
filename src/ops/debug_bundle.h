// Anomaly-triggered diagnostic bundles: when something goes wrong (a health
// check flips unhealthy, a round is abandoned, a fatal signal lands), freeze
// the forensic state a human would ask for into one timestamped directory:
//
//   <dir>/bundle-<seq>-<trigger>/
//     manifest.json         trigger, detail, wall/sim time, file list
//     flight_recorder.log   #fl-journal v1 dump of the always-on rings
//     metrics.json          point-in-time MetricsRegistry snapshot
//     rounds.json           last-K RoundLedger records (when a ledger exists)
//     health.json           latest HealthEvaluator verdict (once evaluated)
//
// Captures are rate-limited (a cooldown between bundles plus a hard cap per
// process) so an unhealthy fleet abandoning every round cannot fill the
// disk. The /debugz endpoint lists captured bundles and serves their files.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/ops/health.h"
#include "src/ops/round_ledger.h"

namespace fl::ops {

// FL_BUNDLE_DIR env gate: unset/empty -> "" (bundling off); otherwise the
// root directory bundles are written under (created on first capture).
std::string BundleDirFromEnv();

class DiagnosticBundler {
 public:
  struct Options {
    std::string dir;                // bundle root; empty disables Capture()
    std::size_t max_bundles = 16;   // hard cap per process
    std::int64_t min_interval_wall_us = 10'000'000;  // cooldown between dumps
    std::size_t rounds_limit = 64;  // last-K ledger records per bundle
  };

  // Non-owning; either may be null (the corresponding file is omitted).
  struct Sources {
    const RoundLedger* ledger = nullptr;
    const HealthEvaluator* health = nullptr;
  };

  struct BundleInfo {
    std::uint64_t seq = 0;
    std::string trigger;  // "health", "round_abandoned", ... (dir-name safe)
    std::string detail;
    std::string path;     // bundle directory
    std::int64_t wall_us = 0;
    std::int64_t sim_ms = 0;
  };

  DiagnosticBundler(Options opts, Sources sources);

  bool enabled() const { return !opts_.dir.empty(); }

  // Writes one bundle; returns its directory path, or "" when disabled,
  // rate-limited, capped, or the directory could not be created. Thread-safe
  // (triggers fire from the sim thread and, in principle, HTTP threads).
  std::string Capture(std::string_view trigger, std::string_view detail,
                      SimTime sim_now);

  // Captured bundles, oldest first.
  std::vector<BundleInfo> History() const;
  std::uint64_t captured() const;
  std::uint64_t suppressed() const;  // rate-limited / capped attempts
  const Options& options() const { return opts_; }

  // {"dir":...,"captured":N,"suppressed":N,"bundles":[...]} for /debugz.
  std::string HistoryJson() const;

  // The fixed set of files a bundle may contain; /debugz only serves names
  // from this list (no path components accepted from the client).
  static const std::vector<std::string>& KnownFiles();

 private:
  Options opts_;
  Sources sources_;

  mutable std::mutex mu_;
  std::vector<BundleInfo> history_;
  std::uint64_t seq_ = 1;  // bundle seqs start at 1 (0 = "none" in URLs)
  std::uint64_t suppressed_ = 0;
  std::int64_t last_capture_wall_us_ = 0;
  bool any_captured_ = false;
};

}  // namespace fl::ops

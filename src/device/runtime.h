// The on-device FL runtime (Sec. 3): task execution against the app's
// example store. "the FL runtime receives the FL plan, queries the app's
// example store for data requested by the plan, and computes plan-determined
// model updates and metrics."
//
// Timing/interruption are decided by the fleet simulator (the runtime is
// pure computation); EstimateComputeDuration tells the simulator how long
// the work takes on a given device profile.
#pragma once

#include <optional>

#include "src/common/rng.h"
#include "src/device/example_store.h"
#include "src/fedavg/client_update.h"
#include "src/sim/availability.h"
#include "src/tensor/checkpoint.h"

namespace fl::device {

struct TaskExecution {
  // Present for training plans; empty for evaluation plans.
  std::optional<fedavg::ClientUpdateResult> update;
  fedavg::ClientMetrics metrics;
  std::size_t examples_used = 0;
};

class FlRuntime {
 public:
  FlRuntime(std::uint32_t runtime_version, ExampleStoreRegistry* stores)
      : runtime_version_(runtime_version), stores_(stores) {}

  std::uint32_t runtime_version() const { return runtime_version_; }

  // Queries the store per the plan's selection criteria and runs the plan.
  // Fails (kFailedPrecondition) when the device lacks data or runs a
  // runtime older than the plan requires.
  Result<TaskExecution> ExecutePlan(const plan::FLPlan& plan,
                                    const Checkpoint& global, SimTime now,
                                    Rng& rng) const;

 private:
  std::uint32_t runtime_version_;
  ExampleStoreRegistry* stores_;
};

// Wall-clock the execution occupies on a device: examples * epochs at the
// profile's training throughput (drives straggler behaviour, Fig. 8).
Duration EstimateComputeDuration(const plan::FLPlan& plan,
                                 std::size_t example_count,
                                 const sim::DeviceProfile& profile);

}  // namespace fl::device

// The on-device FL runtime (Sec. 3): task execution against the app's
// example store. "the FL runtime receives the FL plan, queries the app's
// example store for data requested by the plan, and computes plan-determined
// model updates and metrics."
//
// Timing/interruption are decided by the fleet simulator; the computation
// itself is a PlanJob, pure, which the simulator may run off its event loop.
// EstimateComputeDuration tells the simulator how long the work takes on a
// given device profile.
#pragma once

#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/device/example_store.h"
#include "src/fedavg/client_update.h"
#include "src/fedavg/codec.h"
#include "src/sim/availability.h"
#include "src/tensor/checkpoint.h"

namespace fl::device {

// How a training job turns its update into what the device uploads, so the
// caller only reads the payload's size. The default keeps the update as is.
struct UploadEncoding {
  enum class Kind : std::uint8_t {
    kNone,       // TaskExecution::update
    kSerialize,  // the weighted delta's checkpoint bytes
    kCodec,      // fedavg::EncodeUpdate of the flattened delta (Sec. 11)
    kSecAgg,     // fedavg::EncodeSecAggInput words, masked later (Sec. 6)
  };
  Kind kind = Kind::kNone;
  protocol::WireCodecConfig codec;  // kCodec
  std::uint64_t codec_seed = 0;     // kCodec: drives stochastic rounding
  fedavg::SecAggVectorSpec secagg;  // kSecAgg
};

// A training update encoded per its UploadEncoding.
struct EncodedUpload {
  float weight = 0;              // n, the update weight
  Bytes bytes;                   // kSerialize, kCodec: the update bytes
  std::uint64_t wire_bytes = 0;  // kSerialize, kCodec: bytes + framing
  std::vector<std::uint32_t> secagg_words;  // kSecAgg
};

struct TaskExecution {
  // A training plan's result: the update itself (UploadEncoding::kNone) or
  // its encoded upload. Both are empty for evaluation plans.
  std::optional<fedavg::ClientUpdateResult> update;
  std::optional<EncodedUpload> upload;
  fedavg::ClientMetrics metrics;
};

// A plan's computation with everything it reads: the plan, the global
// model, the examples the store returned and, for training, the epoch
// orders already drawn from the device's RNG. It owns its inputs and draws
// nothing, so it may run on any thread at any time after PreparePlan and
// gives the same bits.
struct PlanJob {
  plan::FLPlan plan;
  Checkpoint global;
  std::vector<data::Example> examples;
  std::vector<std::uint32_t> orders;  // training only (DrawEpochOrders)
  std::uint32_t runtime_version = 0;
  UploadEncoding upload;  // training only

  // RunClientUpdate for a training plan, then the upload encoding;
  // RunClientEvaluation otherwise.
  Result<TaskExecution> Run() const;
};

class FlRuntime {
 public:
  FlRuntime(std::uint32_t runtime_version, ExampleStoreRegistry* stores)
      : runtime_version_(runtime_version), stores_(stores) {}

  std::uint32_t runtime_version() const { return runtime_version_; }

  // The part of running a plan that reads device state: checks the plan
  // against the runtime, queries the store per the plan's selection
  // criteria and, for training, draws the epoch orders from `rng`. Fails
  // (kFailedPrecondition) when the device lacks data or runs a runtime
  // older than the plan requires; kNotFound when the store is missing.
  Result<PlanJob> PreparePlan(plan::FLPlan plan, Checkpoint global,
                              SimTime now, Rng& rng) const;

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

#include "src/device/runtime.h"

#include <algorithm>

namespace fl::device {

Result<PlanJob> FlRuntime::PreparePlan(plan::FLPlan plan, Checkpoint global,
                                       SimTime now, Rng& rng) const {
  if (plan.min_runtime_version > runtime_version_) {
    return FailedPreconditionError(
        "plan requires runtime v" + std::to_string(plan.min_runtime_version) +
        "; device runs v" + std::to_string(runtime_version_));
  }
  FL_ASSIGN_OR_RETURN(ExampleStore * store,
                      stores_->Find(plan.device.selector.store_name));
  FL_ASSIGN_OR_RETURN(std::vector<data::Example> examples,
                      store->Query(plan.device.selector, now));
  const bool training = plan.device.kind == plan::TaskKind::kTraining;
  if (examples.empty()) {
    return FailedPreconditionError(training
                                       ? "no local examples for training"
                                       : "no local examples for evaluation");
  }
  PlanJob job;
  if (training) {
    job.orders = fedavg::DrawEpochOrders(plan.device, examples.size(), rng);
  }
  job.plan = std::move(plan);
  job.global = std::move(global);
  job.examples = std::move(examples);
  job.runtime_version = runtime_version_;
  return job;
}

Result<TaskExecution> PlanJob::Run() const {
  TaskExecution out;
  if (plan.device.kind == plan::TaskKind::kTraining) {
    FL_ASSIGN_OR_RETURN(fedavg::ClientUpdateResult result,
                        fedavg::RunClientUpdate(plan.device, global, examples,
                                                runtime_version, orders));
    out.metrics = result.metrics;
    if (upload.kind == UploadEncoding::Kind::kNone) {
      out.update = std::move(result);
      return out;
    }
    EncodedUpload& up = out.upload.emplace();
    up.weight = result.weight;
    switch (upload.kind) {
      case UploadEncoding::Kind::kSerialize:
        up.bytes = result.weighted_delta.Serialize();
        up.wire_bytes = up.bytes.size() + 64;
        break;
      case UploadEncoding::Kind::kCodec: {
        fedavg::EncodedUpdate wire = fedavg::EncodeUpdate(
            result.weighted_delta.Flatten(), upload.codec, upload.codec_seed);
        up.wire_bytes = wire.WireBytes();
        up.bytes = std::move(wire.payload);
        break;
      }
      case UploadEncoding::Kind::kSecAgg: {
        FL_ASSIGN_OR_RETURN(
            up.secagg_words,
            fedavg::EncodeSecAggInput(upload.secagg,
                                      result.weighted_delta.Flatten(),
                                      result.weight));
        break;
      }
      case UploadEncoding::Kind::kNone:
        break;
    }
  } else {
    FL_ASSIGN_OR_RETURN(out.metrics,
                        fedavg::RunClientEvaluation(plan.device, global,
                                                    examples,
                                                    runtime_version));
  }
  return out;
}

Duration EstimateComputeDuration(const plan::FLPlan& plan,
                                 std::size_t example_count,
                                 const sim::DeviceProfile& profile) {
  const double per_sec = std::max(1.0, profile.examples_per_sec);
  const double total = static_cast<double>(example_count) *
                       static_cast<double>(std::max<std::size_t>(
                           1, plan.device.epochs));
  const double seconds = total / per_sec;
  return Millis(static_cast<std::int64_t>(seconds * 1000.0) + 1);
}

}  // namespace fl::device

#include "src/server/frontend.h"

#include "src/plan/plan.h"

namespace fl::server {

PlanBytesByVersion SerializePlanSet(const plan::VersionedPlanSet& plans) {
  PlanBytesByVersion out;
  for (const auto& [version, p] : plans.plans()) {
    out.emplace(version, std::make_shared<const Bytes>(p.Serialize()));
  }
  return out;
}

bool ServerFrontend::CheckIn(const CheckInRequest& request, DeviceLink link) {
  ++checkins_;
  // Attestation gate (Sec. 3): only genuine devices may participate.
  if (!attestation_->Verify(request.attestation)) {
    ++attestation_failures_;
    const std::string what = "attestation failure from device " +
                             std::to_string(request.device.value);
    analytics::Emit(context_->stats,
                    {.t = system_->now(),
                     .source = analytics::JournalSource::kFrontend,
                     .kind = analytics::JournalEventKind::kServerError,
                     .device = request.device,
                     .session = request.session,
                     .note = what});
    return false;
  }
  if (selectors_.empty()) return false;
  // Stable routing: devices hash onto Selectors ("globally distributed,
  // close to devices" in production; a uniform hash here).
  const std::size_t idx =
      static_cast<std::size_t>(request.device.value * 0x9e3779b97f4a7c15ULL %
                               selectors_.size());
  system_->Send(ActorId{}, selectors_[idx], MsgDeviceArrived{std::move(link)});
  return true;
}

void ServerFrontend::Report(ActorId aggregator, DeviceReport report) {
  system_->Send(ActorId{}, aggregator, std::move(report));
}

void ServerFrontend::SecAggAdvertise(ActorId aggregator,
                                     SecAggAdvertiseMsg msg) {
  system_->Send(ActorId{}, aggregator, std::move(msg));
}

void ServerFrontend::SecAggShareKeys(ActorId aggregator,
                                     SecAggShareKeysMsg msg) {
  system_->Send(ActorId{}, aggregator, std::move(msg));
}

void ServerFrontend::SecAggMaskedInput(ActorId aggregator,
                                       SecAggMaskedInputMsg msg) {
  system_->Send(ActorId{}, aggregator, std::move(msg));
}

void ServerFrontend::SecAggUnmaskResponse(ActorId aggregator,
                                          SecAggUnmaskResponseMsg msg) {
  system_->Send(ActorId{}, aggregator, std::move(msg));
}

}  // namespace fl::server

#include "src/server/aggregator.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/fedavg/codec.h"

namespace fl::server {
namespace {

using analytics::JournalEventKind;

template <typename T>
const T* Cast(const actor::Envelope& env) {
  return std::any_cast<T>(&env.payload);
}

}  // namespace

AggregatorActor::AggregatorActor(Init init)
    : init_(std::move(init)),
      codec_name_(protocol::WireCodecName(init_.config.codec)) {
  FL_CHECK(init_.context != nullptr);
  FL_CHECK(init_.global_model != nullptr);
  accumulator_.emplace(init_.aggregation_op, *init_.global_model);
}

protocol::ReconnectWindow AggregatorActor::NextWindow() {
  return init_.context->pace->SuggestWindow(
      Now(), init_.context->estimated_population, Duration{},
      *init_.context->rng);
}

void AggregatorActor::EmitEvent(analytics::LifecycleEvent e) {
  e.t = Now();
  e.source = analytics::JournalSource::kAggregator;
  e.round = init_.round;
  analytics::Emit(init_.context->stats, e);
}

void AggregatorActor::EmitTraffic(std::uint64_t download_bytes,
                                  std::uint64_t upload_bytes) {
  EmitEvent({.kind = JournalEventKind::kTraffic,
             .a = download_bytes,
             .b = upload_bytes});
}

void AggregatorActor::EmitError(std::string_view what) {
  EmitEvent({.kind = JournalEventKind::kServerError, .note = what});
}

void AggregatorActor::RecordParticipant(DeviceId device,
                                        protocol::ParticipantOutcome o) {
  EmitEvent({.kind = JournalEventKind::kParticipantOutcome,
             .device = device,
             .a = static_cast<std::uint64_t>(o)});
}

void AggregatorActor::OnMessage(const actor::Envelope& env) {
  if (const auto* m = Cast<MsgConfigureDevices>(env)) {
    const profiler::ScopedPhase profile_scope(
        profiler::Phase::kConfiguration, init_.round.value);
    HandleConfigure(*m);
  } else if (const auto* m = Cast<DeviceReport>(env)) {
    const profiler::ScopedPhase profile_scope(
        profiler::Phase::kAggregation, init_.round.value);
    HandleReport(*m);
  } else if (Cast<MsgFlush>(env) != nullptr) {
    const profiler::ScopedPhase profile_scope(
        profiler::Phase::kAggregation, init_.round.value);
    HandleFlush();
  } else if (const auto* m = Cast<SecAggAdvertiseMsg>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                              init_.round.value);
    HandleSecAggAdvertise(*m);
  } else if (const auto* m = Cast<SecAggShareKeysMsg>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                              init_.round.value);
    HandleSecAggShares(*m);
  } else if (const auto* m = Cast<SecAggMaskedInputMsg>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                              init_.round.value);
    HandleSecAggMasked(*m);
  } else if (const auto* m = Cast<SecAggUnmaskResponseMsg>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                              init_.round.value);
    HandleSecAggUnmask(*m);
  } else if (const auto* m = Cast<MsgSecAggPhaseTimeout>(env)) {
    HandleSecAggPhaseTimeout(m->phase);
  } else if (Cast<MsgSelfStop>(env) != nullptr) {
    // Anything still unreported this long after the deadline went silent —
    // the device side has already accounted for its own drop, so close the
    // links without double-counting an outcome.
    for (auto& [device, entry] : devices_) {
      if (entry.state == DeviceStateTag::kAssigned) {
        entry.state = DeviceStateTag::kClosed;
        entry.link.closed(ConnectionClosed{"aggregator end of life"});
      }
    }
    system().Stop(id());
  }
}

void AggregatorActor::HandleConfigure(const MsgConfigureDevices& msg) {
  // Ephemeral lifetime: stay alive past the reporting deadline so stragglers
  // get a '#' rejection rather than silence (Table 1: 22% of sessions end
  // in an upload rejected after the window closed).
  if (devices_.empty()) {
    SendAfter(init_.config.reporting_deadline +
                  init_.config.device_participation_cap + Minutes(2),
              id(), MsgSelfStop{});
  }
  const bool secure =
      init_.config.aggregation == protocol::AggregationMode::kSecure;
  if (secure && !secagg_.has_value()) {
    // Under cohort-agreed sparsification only the agreed subset is masked,
    // so the vector (and every PRG expansion) shrinks proportionally. The
    // fixed-point scale is sized for the round's configured cohort cap so
    // every participant derives the identical scale.
    const std::size_t total = init_.global_model->TotalParameters();
    secagg_spec_ = {
        .total = total,
        .keep = fedavg::KeepCount(total, init_.config.secagg.keep_fraction),
        .clip = init_.config.secagg.clip,
        .max_summands = static_cast<std::uint32_t>(
            std::max<std::size_t>(init_.config.devices_per_aggregator, 2)),
        .ring_bits = init_.config.secagg.ring_bits,
        .index_seed =
            0x5eca66ull ^ (init_.round.value * 0x9E3779B97F4A7C15ull)};
    const std::size_t m = msg.links.size();
    secagg_threshold_ = std::max<std::size_t>(
        2, static_cast<std::size_t>(
               std::ceil(init_.config.secagg.threshold_fraction *
                         static_cast<double>(m))));
    secagg_.emplace(secagg_threshold_, secagg_spec_.vector_length(),
                    secagg_spec_.ring_bits);
    secagg_->SetThreadPool(init_.context->compute_pool);
    // Arm the advertise-phase timer.
    SendAfter(init_.config.reporting_deadline / 4, id(),
              MsgSecAggPhaseTimeout{init_.round, 0});
  }

  secagg::ParticipantIndex next_index =
      static_cast<secagg::ParticipantIndex>(devices_.size());
  for (const DeviceLink& link : msg.links) {
    // Configuration phase (Sec. 2.2): plan + checkpoint to each device,
    // picking the plan version the device's runtime supports.
    const auto plan_it = [&]() {
      auto it = init_.plan_bytes->upper_bound(link.runtime_version);
      return it == init_.plan_bytes->begin() ? init_.plan_bytes->end()
                                             : std::prev(it);
    }();
    if (plan_it == init_.plan_bytes->end()) {
      // Device too old for every versioned plan: turn it away.
      EmitEvent({.kind = JournalEventKind::kCheckinRejected,
                 .device = link.device,
                 .session = link.session,
                 .reason = analytics::FlightReason::kRuntimeTooOld});
      link.reject(RejectionNotice{NextWindow(), "runtime too old"});
      continue;
    }

    DeviceEntry entry;
    entry.link = link;
    TaskAssignment assignment;
    assignment.round = init_.round;
    assignment.task = init_.task;
    assignment.aggregator = id();
    assignment.plan_bytes = plan_it->second;
    assignment.model_bytes = init_.model_bytes;
    assignment.participation_deadline =
        Now() + init_.config.device_participation_cap;
    if (secure) {
      entry.secagg_index = ++next_index;
      by_index_[entry.secagg_index] = link.device;
      assignment.secagg_index = entry.secagg_index;
      assignment.secagg_threshold = secagg_threshold_;
      assignment.secagg_spec = secagg_spec_;
    } else {
      // Plain-path update codec: every cohort member encodes with the same
      // per-round stages so the Aggregator can decode uniformly.
      assignment.codec = init_.config.codec;
    }
    devices_.emplace(link.device, std::move(entry));
    EmitTraffic(plan_it->second->size() + init_.model_bytes->size(), 0);
    link.assign(assignment);
  }
}

void AggregatorActor::HandleReport(const DeviceReport& report) {
  const auto it = devices_.find(report.device);
  EmitTraffic(0, report.upload_wire_bytes);
  if (it == devices_.end()) return;  // not ours
  // Every outcome below is one report_accepted / report_rejected record;
  // reducers derive the participant outcome (late → rejected late, corrupt
  // or unaccumulable → error + dropped) from it.
  const auto reject = [&](analytics::FlightReason reason,
                          std::string_view what) {
    EmitEvent({.kind = JournalEventKind::kReportRejected,
               .device = report.device,
               .session = it->second.link.session,
               .reason = reason,
               .note = what});
  };
  if (flushed_ || it->second.state != DeviceStateTag::kAssigned) {
    // Reporting window closed — '#' in the session shape (Table 1).
    reject(analytics::FlightReason::kLate, {});
    it->second.link.report_ack(ReportAck{false, NextWindow()});
    return;
  }

  // Deserialize and fold in; corruption is treated as a device drop.
  fedavg::ClientMetrics metrics = report.metrics;
  if (init_.aggregation_op != plan::AggregationOp::kMetricsOnly) {
    auto update = [&]() -> Result<Checkpoint> {
      if (!report.codec_encoded) {
        return Checkpoint::Deserialize(report.update_bytes);
      }
      // Codec path: payload is the encoded flat weighted delta, exactly as
      // long as the global model it unflattens into.
      auto flat = fedavg::DecodeUpdate(report.update_bytes, {},
                                       init_.global_model->TotalParameters());
      if (!flat.ok()) return flat.status();
      return init_.global_model->Unflatten(*flat);
    }();
    if (!update.ok()) {
      reject(analytics::FlightReason::kCorrupt,
             "corrupt update: " + update.status().ToString());
      it->second.state = DeviceStateTag::kClosed;
      it->second.link.report_ack(ReportAck{false, NextWindow()});
      return;
    }
    const Status s = accumulator_->Accumulate(std::move(update).value(),
                                              report.weight, metrics);
    if (!s.ok()) {
      reject(analytics::FlightReason::kAccumulate, s.ToString());
      it->second.state = DeviceStateTag::kClosed;
      it->second.link.report_ack(ReportAck{false, NextWindow()});
      return;
    }
  } else {
    // Metrics-only accumulation cannot fail.
    const Status s = accumulator_->Accumulate(Checkpoint{}, 1.0f, metrics);
    FL_CHECK(s.ok());
  }

  it->second.state = DeviceStateTag::kReported;
  ++accepted_;
  accepted_wire_bytes_ += report.upload_wire_bytes;
  EmitEvent({.kind = JournalEventKind::kReportAccepted,
             .device = report.device,
             .session = it->second.link.session,
             .b = report.upload_wire_bytes,
             .weight = report.weight,
             .note = codec_name_});
  it->second.link.report_ack(ReportAck{true, NextWindow()});
  Send(init_.master, MsgReportingProgress{id(), accepted_, accepted_wire_bytes_,
                                          metrics});
}

void AggregatorActor::CloseRemaining(const std::string& reason,
                                     protocol::ParticipantOutcome outcome) {
  for (auto& [device, entry] : devices_) {
    if (entry.state == DeviceStateTag::kAssigned) {
      entry.state = DeviceStateTag::kClosed;
      entry.link.closed(ConnectionClosed{reason});
      RecordParticipant(device, outcome);
    }
  }
}

void AggregatorActor::HandleFlush() {
  if (flushed_) return;
  flushed_ = true;
  if (init_.config.aggregation == protocol::AggregationMode::kSecure) {
    // A flush mid-protocol: try to finish with whoever committed.
    if (secagg_phase_ <= 1) {
      // Nothing committed yet; the secure aggregate is unrecoverable.
      CloseRemaining("round flushed before secagg commit",
                     protocol::ParticipantOutcome::kAborted);
      FinishAndReport(std::nullopt, "flushed before commit");
    }
    // Phases 2/3 continue to completion via their own timers.
    return;
  }
  // In-flight devices are left to finish; their late uploads are rejected
  // with '#'. This mirrors the production behaviour behind Table 1 and the
  // "aborted" series of Fig. 7.
  FinishAndReport(accumulator_->TakePartial());
}

void AggregatorActor::FinishAndReport(
    std::optional<fedavg::PartialAggregate> partial, std::string error) {
  if (reported_to_master_) return;
  reported_to_master_ = true;
  Send(init_.master,
       MsgAggregatorResult{id(), std::move(partial), std::move(error)});
}

// --------------------------------------------------------------------------
// Secure Aggregation orchestration (Sec. 6). The Aggregator is the protocol
// server for its cohort; phase deadlines tolerate drop-outs at every step.
// --------------------------------------------------------------------------

void AggregatorActor::HandleSecAggAdvertise(const SecAggAdvertiseMsg& msg) {
  if (!secagg_ || secagg_phase_ != 0) return;
  EmitTraffic(0, msg.upload_wire_bytes);
  const auto it = devices_.find(msg.device);
  if (it == devices_.end()) return;
  const Status s = secagg_->CollectAdvertisement(msg.advertisement);
  if (!s.ok()) {
    EmitError(s.ToString());
    return;
  }
  // Everyone answered: no need to wait out the timer window.
  if (++secagg_advertised_ == devices_.size()) {
    AdvanceSecAggAfterAdvertising();
  }
}

void AggregatorActor::HandleSecAggPhaseTimeout(int phase) {
  if (!secagg_ || phase != secagg_phase_) return;
  switch (phase) {
    case 0: AdvanceSecAggAfterAdvertising(); break;
    case 1: AdvanceSecAggAfterSharing(); break;
    case 2: AdvanceSecAggAfterCommit(); break;
    case 3: FinalizeSecAgg(); break;
    default: break;
  }
}

void AggregatorActor::AdvanceSecAggAfterAdvertising() {
  if (secagg_phase_ != 0) return;
  auto directory = secagg_->FinishAdvertising();
  if (!directory.ok()) {
    EmitError(directory.status().ToString());
    CloseRemaining("secagg advertise failed",
                   protocol::ParticipantOutcome::kDropped);
    FinishAndReport(std::nullopt, directory.status().ToString());
    return;
  }
  secagg_phase_ = 1;
  for (auto& [device, entry] : devices_) {
    if (entry.state != DeviceStateTag::kAssigned) continue;
    if (directory->count(entry.secagg_index) == 0) continue;
    const std::size_t bytes = directory->size() * 24;
    EmitTraffic(bytes, 0);
    entry.link.secagg_directory(SecAggDirectoryMsg{*directory});
  }
  SendAfter(init_.config.reporting_deadline / 4, id(),
            MsgSecAggPhaseTimeout{init_.round, 1});
}

void AggregatorActor::HandleSecAggShares(const SecAggShareKeysMsg& msg) {
  if (!secagg_ || secagg_phase_ != 1) return;
  EmitTraffic(0, msg.upload_wire_bytes);
  const Status s = secagg_->CollectShares(msg.message);
  if (!s.ok()) {
    EmitError(s.ToString());
    return;
  }
  if (++secagg_shared_ == secagg_advertised_) {
    AdvanceSecAggAfterSharing();
  }
}

void AggregatorActor::AdvanceSecAggAfterSharing() {
  if (secagg_phase_ != 1) return;
  auto u1 = secagg_->FinishSharing();
  if (!u1.ok()) {
    EmitError(u1.status().ToString());
    CloseRemaining("secagg sharing failed",
                   protocol::ParticipantOutcome::kDropped);
    FinishAndReport(std::nullopt, u1.status().ToString());
    return;
  }
  secagg_phase_ = 2;
  secagg_u1_size_ = u1->size();
  for (auto& [device, entry] : devices_) {
    if (entry.state != DeviceStateTag::kAssigned) continue;
    const bool in_u1 =
        std::find(u1->begin(), u1->end(), entry.secagg_index) != u1->end();
    if (!in_u1) continue;
    SecAggSharesMsg out;
    out.shares = secagg_->SharesFor(entry.secagg_index);
    out.u1 = *u1;
    std::size_t bytes = 16;
    for (const auto& sh : out.shares) bytes += sh.ciphertext.size() + 8;
    EmitTraffic(bytes, 0);
    entry.link.secagg_shares(out);
  }
  // Commit phase runs until the round's reporting deadline.
  SendAfter(init_.config.reporting_deadline / 2, id(),
            MsgSecAggPhaseTimeout{init_.round, 2});
}

void AggregatorActor::HandleSecAggMasked(const SecAggMaskedInputMsg& msg) {
  if (!secagg_ || secagg_phase_ != 2) return;
  EmitTraffic(0, msg.upload_wire_bytes);
  const auto it = devices_.find(msg.device);
  if (it == devices_.end()) return;
  const Status s = secagg_->CollectMaskedInput(msg.input);
  if (!s.ok()) {
    EmitError(s.ToString());
    return;
  }
  it->second.metrics = msg.metrics;  // plaintext metrics; sums stay masked
  it->second.state = DeviceStateTag::kReported;
  ++accepted_;
  accepted_wire_bytes_ += msg.upload_wire_bytes;
  // Tagged mode=secagg: masked inputs may legally commit after the round's
  // closing phase (HandleFlush lets phases 2/3 run to completion), so the
  // analyzer's accept-after-close invariant exempts these records.
  EmitEvent({.kind = JournalEventKind::kReportAccepted,
             .device = msg.device,
             .session = it->second.link.session,
             .a = 1,
             .b = msg.upload_wire_bytes});
  it->second.link.report_ack(ReportAck{true, NextWindow()});
  Send(init_.master,
       MsgReportingProgress{id(), accepted_, accepted_wire_bytes_,
                            it->second.metrics});
  if (accepted_ == secagg_u1_size_) {
    AdvanceSecAggAfterCommit();  // every key-holder committed: no stragglers
  }
}

void AggregatorActor::AdvanceSecAggAfterCommit() {
  if (secagg_phase_ != 2) return;
  auto request = secagg_->FinishCommit();
  if (!request.ok()) {
    EmitError(request.status().ToString());
    CloseRemaining("secagg commit failed",
                   protocol::ParticipantOutcome::kDropped);
    FinishAndReport(std::nullopt, request.status().ToString());
    return;
  }
  secagg_phase_ = 3;
  for (auto& [device, entry] : devices_) {
    if (entry.state == DeviceStateTag::kClosed) continue;
    const bool survivor =
        std::find(request->survivors.begin(), request->survivors.end(),
                  entry.secagg_index) != request->survivors.end();
    if (!survivor) continue;
    EmitTraffic(8 * (request->dropped.size() + request->survivors.size()), 0);
    entry.link.secagg_unmask(SecAggUnmaskMsg{*request});
  }
  SendAfter(init_.config.reporting_deadline / 4, id(),
            MsgSecAggPhaseTimeout{init_.round, 3});
}

void AggregatorActor::HandleSecAggUnmask(const SecAggUnmaskResponseMsg& msg) {
  if (!secagg_ || secagg_phase_ != 3) return;
  EmitTraffic(0, msg.upload_wire_bytes);
  const Status s = secagg_->CollectUnmaskingResponse(msg.response);
  if (!s.ok()) {
    EmitError(s.ToString());
    return;
  }
  // Finalize as soon as every survivor answered; the timer handles the
  // drop-out tail (the protocol itself only needs the Shamir threshold).
  if (++secagg_unmask_responses_ == secagg_->committed().size()) {
    FinalizeSecAgg();
  }
}

void AggregatorActor::FinalizeSecAgg() {
  if (secagg_phase_ != 3 || reported_to_master_) return;
  auto sum = secagg_->Finalize();
  CloseRemaining("secagg round over", protocol::ParticipantOutcome::kAborted);
  if (!sum.ok()) {
    EmitError(sum.status().ToString());
    FinishAndReport(std::nullopt, sum.status().ToString());
    return;
  }
  auto partial = fedavg::DecodeSecAggSum(
      secagg_spec_, *sum, secagg_->committed().size(), *init_.global_model);
  if (!partial.ok()) {
    FinishAndReport(std::nullopt, partial.status().ToString());
    return;
  }
  FinishAndReport(std::move(partial).value());
}

}  // namespace fl::server

#include "src/server/master_aggregator.h"

#include <algorithm>

#include "src/server/aggregator.h"

namespace fl::server {
namespace {

using analytics::JournalEventKind;

template <typename T>
const T* Cast(const actor::Envelope& env) {
  return std::any_cast<T>(&env.payload);
}

}  // namespace

MasterAggregatorActor::MasterAggregatorActor(Init init)
    : init_(std::move(init)) {
  FL_CHECK(init_.context != nullptr);
  combined_.emplace(init_.aggregation_op, *init_.global_model);
}

void MasterAggregatorActor::EmitRound(analytics::LifecycleEvent e) {
  e.t = Now();
  e.source = analytics::JournalSource::kMaster;
  e.round = init_.round;
  analytics::Emit(init_.context->stats, e);
}

void MasterAggregatorActor::RejectLink(DeviceLink& link,
                                       analytics::FlightReason reason,
                                       const char* why) {
  EmitRound({.kind = JournalEventKind::kCheckinRejected,
             .device = link.device,
             .session = link.session,
             .reason = reason});
  link.reject(RejectionNotice{
      init_.context->pace->SuggestWindow(
          Now(), init_.context->estimated_population, Duration{},
          *init_.context->rng),
      why});
}

void MasterAggregatorActor::OnStart() {
  started_at_ = Now();
  EmitRound({.kind = JournalEventKind::kRoundOpen,
             .a = init_.config.goal_count,
             .b = init_.config.MinReportCount(),
             .c = init_.task.value,
             .d = init_.config.SelectionTarget()});
  EmitRound({.kind = JournalEventKind::kPhase, .a = 0});
  SendAfter(init_.config.selection_timeout, id(),
            MsgSelectionTimeout{init_.round});
  // Ephemeral end of life: outlive the reporting window (plus straggler
  // grace) and then disappear together with any remaining Aggregators.
  SendAfter(init_.config.selection_timeout + init_.config.reporting_deadline +
                init_.config.device_participation_cap + Minutes(3),
            id(), MsgSelfStop{});
}

void MasterAggregatorActor::OnMessage(const actor::Envelope& env) {
  // Map the round's protocol phase onto the profiler vocabulary so samples
  // taken inside master dispatch slice by where the round actually was.
  const profiler::ScopedPhase profile_scope(
      phase_ == Phase::kSelection    ? profiler::Phase::kSelection
      : phase_ == Phase::kReporting  ? profiler::Phase::kAggregation
      : phase_ == Phase::kClosing    ? profiler::Phase::kClosing
                                     : profiler::Phase::kNone,
      init_.round.value);
  if (const auto* m = Cast<MsgDevicesForwarded>(env)) {
    HandleForwarded(m->links);
  } else if (const auto* m = Cast<MsgSelectionTimeout>(env)) {
    if (m->round == init_.round && phase_ == Phase::kSelection) {
      // "The selection phase lasts until the goal count is reached or a
      // timeout occurs; in the latter case, the round will be started or
      // abandoned depending on whether the minimal goal count has been
      // reached" (Sec. 2.2).
      if (pending_links_.size() >= init_.config.MinSelectionCount()) {
        BeginReporting();
      } else {
        Abandon(protocol::RoundOutcome::kAbandonedSelection,
                "selection timeout with " +
                    std::to_string(pending_links_.size()) + " devices",
                analytics::FlightReason::kSelectionTimeout);
      }
    }
  } else if (const auto* m = Cast<MsgReportingDeadline>(env)) {
    if (m->round == init_.round && phase_ == Phase::kReporting) {
      FlushAll();
    }
  } else if (const auto* m = Cast<MsgReportingProgress>(env)) {
    HandleProgress(*m);
  } else if (const auto* m = Cast<MsgAggregatorResult>(env)) {
    HandleAggregatorResult(*m);
  } else if (const auto* m = Cast<actor::DeathNotice>(env)) {
    HandleAggregatorDeath(m->died);
  } else if (Cast<MsgSelfStop>(env) != nullptr) {
    if (phase_ != Phase::kDone) {
      Abandon(protocol::RoundOutcome::kAbandonedReporting,
              "master end of life before completion",
              analytics::FlightReason::kMasterEndOfLife);
    }
    system().Stop(id());
  }
}

void MasterAggregatorActor::HandleForwarded(std::vector<DeviceLink> links) {
  for (DeviceLink& link : links) {
    if (phase_ != Phase::kSelection ||
        pending_links_.size() >= init_.config.SelectionTarget()) {
      // Over-selection target met; turn extras away with a retry window.
      RejectLink(link, analytics::FlightReason::kRoundFull, "round full");
      continue;
    }
    EmitRound({.kind = JournalEventKind::kMasterAccept,
               .device = link.device,
               .session = link.session});
    pending_links_.push_back(std::move(link));
  }
  if (phase_ == Phase::kSelection &&
      pending_links_.size() >= init_.config.SelectionTarget()) {
    BeginReporting();
  }
}

void MasterAggregatorActor::BeginReporting() {
  phase_ = Phase::kReporting;
  configured_at_ = Now();
  EmitRound({.kind = JournalEventKind::kPhase,
             .a = 1,
             .b = pending_links_.size()});
  // Dynamic fan-out: one Aggregator per devices_per_aggregator slice.
  const std::size_t per = std::max<std::size_t>(
      1, init_.config.devices_per_aggregator);
  std::size_t spawned = 0;
  for (std::size_t start = 0; start < pending_links_.size(); start += per) {
    AggregatorActor::Init agg_init;
    agg_init.round = init_.round;
    agg_init.task = init_.task;
    agg_init.master = id();
    agg_init.config = init_.config;
    agg_init.aggregation_op = init_.aggregation_op;
    agg_init.global_model = init_.global_model;
    agg_init.model_bytes = init_.model_bytes;
    agg_init.plan_bytes = init_.plan_bytes;
    agg_init.context = init_.context;
    const ActorId agg = system().Spawn<AggregatorActor>(
        "aggregator-r" + std::to_string(init_.round.value) + "-" +
            std::to_string(spawned++),
        std::move(agg_init));
    system().Watch(agg, id());
    aggregators_.emplace(agg, AggState{});
    ++results_outstanding_;

    MsgConfigureDevices cfg;
    const std::size_t end = std::min(pending_links_.size(), start + per);
    cfg.links.assign(pending_links_.begin() + static_cast<std::ptrdiff_t>(start),
                     pending_links_.begin() + static_cast<std::ptrdiff_t>(end));
    Send(agg, std::move(cfg));
  }
  pending_links_.clear();
  EmitRound({.kind = JournalEventKind::kPhase,
             .a = 2,
             .b = aggregators_.size()});
  SendAfter(init_.config.reporting_deadline, id(),
            MsgReportingDeadline{init_.round});
}

void MasterAggregatorActor::HandleProgress(const MsgReportingProgress& msg) {
  const auto it = aggregators_.find(msg.aggregator);
  if (it == aggregators_.end()) return;
  combined_->AddMetrics(msg.metrics);
  it->second.accepted = msg.accepted;
  it->second.wire_bytes = msg.wire_bytes;
  total_accepted_ = 0;
  for (const auto& [a, st] : aggregators_) total_accepted_ += st.accepted;
  if (phase_ == Phase::kReporting &&
      total_accepted_ >= init_.config.goal_count) {
    // "If enough devices report in time, the round will be successfully
    // completed" — stop the stragglers and collect the partial sums.
    FlushAll();
  }
}

void MasterAggregatorActor::FlushAll() {
  if (flushed_) return;
  flushed_ = true;
  phase_ = Phase::kClosing;
  EmitRound({.kind = JournalEventKind::kPhase, .a = 3, .b = total_accepted_});
  for (const auto& [agg, st] : aggregators_) {
    if (!st.done) Send(agg, MsgFlush{});
  }
  MaybeFinishRound();
}

void MasterAggregatorActor::HandleAggregatorResult(
    const MsgAggregatorResult& msg) {
  auto it = aggregators_.find(msg.aggregator);
  if (it == aggregators_.end() || it->second.done) return;
  it->second.done = true;
  --results_outstanding_;
  if (msg.partial) {
    // "The Master Aggregator then further aggregates the intermediate
    // aggregators' results into a final aggregate" (Sec. 6).
    const Status s = combined_->AccumulateSum(msg.partial->delta_sum,
                                              msg.partial->weight_sum,
                                              msg.partial->contributors);
    if (!s.ok()) {
      const std::string what = s.ToString();
      EmitRound({.kind = JournalEventKind::kServerError, .note = what});
    }
  } else {
    const std::string what = "aggregator failed: " + msg.error;
    EmitRound({.kind = JournalEventKind::kServerError, .note = what});
  }
  // The aggregator stays alive to '#'-reject its stragglers; it reaps
  // itself at end of life (MsgSelfStop).
  MaybeFinishRound();
}

void MasterAggregatorActor::HandleAggregatorDeath(ActorId who) {
  auto it = aggregators_.find(who);
  if (it == aggregators_.end() || it->second.done) return;
  // "if an Aggregator or Selector crashes, only the devices connected to
  // that actor will be lost" (Sec. 4.4).
  it->second.done = true;
  --results_outstanding_;
  total_accepted_ = 0;
  for (const auto& [a, st] : aggregators_) {
    if (a != who) total_accepted_ += st.accepted;
  }
  it->second.accepted = 0;
  EmitRound({.kind = JournalEventKind::kServerError,
             .note = "aggregator crashed; cohort lost"});
  MaybeFinishRound();
}

void MasterAggregatorActor::MaybeFinishRound() {
  if (phase_ != Phase::kClosing || results_outstanding_ > 0) return;
  phase_ = Phase::kDone;
  const std::size_t contributors = combined_->contributions();
  if (contributors >= init_.config.MinReportCount()) {
    MsgRoundComplete done;
    done.round = init_.round;
    done.task = init_.task;
    done.partial = combined_->TakePartial();
    done.metrics = combined_->metrics();
    done.selection_duration = configured_at_ - started_at_;
    done.round_duration = Now() - started_at_;
    // wire_bytes sums the per-aggregator cumulative accepted upload bytes
    // (crashed cohorts included), so it equals the sum of the journaled
    // per-accept wire_bytes — fl_analyze checks that as an invariant.
    std::uint64_t wire_bytes = 0;
    for (const auto& [a, st] : aggregators_) wire_bytes += st.wire_bytes;
    const std::string codec = protocol::RoundCodecName(init_.config);
    EmitRound({.kind = JournalEventKind::kRoundCommit,
               .a = contributors,
               .b = init_.config.MinReportCount(),
               .c = wire_bytes,
               .note = codec});
    Send(init_.coordinator, std::move(done));
  } else {
    Abandon(protocol::RoundOutcome::kAbandonedReporting,
            "only " + std::to_string(contributors) + " reports; need " +
                std::to_string(init_.config.MinReportCount()),
            analytics::FlightReason::kBelowMinReports);
  }
}

void MasterAggregatorActor::Abandon(protocol::RoundOutcome outcome,
                                    const std::string& reason,
                                    analytics::FlightReason flight_reason) {
  phase_ = Phase::kDone;
  EmitRound({.kind = JournalEventKind::kRoundAbandoned,
             .a = combined_->contributions(),
             .reason = flight_reason,
             .outcome = outcome,
             .note = reason});
  // Turn away anything still buffered from selection.
  for (DeviceLink& link : pending_links_) {
    RejectLink(link, analytics::FlightReason::kRoundAbandonedReject,
               "round abandoned");
  }
  pending_links_.clear();
  for (const auto& [agg, st] : aggregators_) {
    if (!st.done) Send(agg, MsgFlush{});
  }
  MsgRoundAbandoned msg;
  msg.round = init_.round;
  msg.task = init_.task;
  msg.outcome = outcome;
  msg.reason = reason;
  msg.flight_reason = flight_reason;
  Send(init_.coordinator, std::move(msg));
}

}  // namespace fl::server

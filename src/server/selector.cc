#include "src/server/selector.h"

namespace fl::server {
namespace {

template <typename T>
const T* Cast(const actor::Envelope& env) {
  return std::any_cast<T>(&env.payload);
}

}  // namespace

SelectorActor::SelectorActor(Init init)
    : init_(std::move(init)), quota_max_waiting_(init_.max_waiting) {
  FL_CHECK(init_.context != nullptr);
}

void SelectorActor::OnStart() {
  // The coordinator may not exist yet (it introduces itself with a Hello);
  // only watch a real id — watching a placeholder would fire an immediate
  // synthetic death notice and trigger a bogus respawn.
  if (init_.coordinator.value != 0) {
    system().Watch(init_.coordinator, id());
  }
  SendAfter(init_.tick_period, id(), MsgSelectorTick{});
}

void SelectorActor::OnMessage(const actor::Envelope& env) {
  if (const auto* m = Cast<MsgDeviceArrived>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kCheckin);
    HandleArrival(*m);
  } else if (const auto* m = Cast<MsgSelectorQuota>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSelection);
    HandleQuota(*m);
  } else if (const auto* m = Cast<MsgForwardDevices>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSelection);
    HandleForward(*m);
  } else if (Cast<MsgSelectorTick>(env) != nullptr) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSelection);
    HandleTick();
  } else if (const auto* m = Cast<MsgCoordinatorHello>(env)) {
    init_.coordinator = m->coordinator;
    system().Watch(init_.coordinator, id());
  } else if (const auto* m = Cast<actor::DeathNotice>(env)) {
    if (m->died.value != 0 && m->died == init_.coordinator) {
      HandleCoordinatorDeath(m->crashed);
    }
  }
}

void SelectorActor::EmitCheckin(analytics::JournalEventKind kind,
                                const DeviceLink& link,
                                analytics::FlightReason reason) {
  analytics::Emit(init_.context->stats,
                  {.t = Now(),
                   .source = analytics::JournalSource::kSelector,
                   .kind = kind,
                   .device = link.device,
                   .session = link.session,
                   .reason = reason});
}

void SelectorActor::RejectLink(const DeviceLink& link,
                               analytics::FlightReason reason) {
  EmitCheckin(analytics::JournalEventKind::kCheckinRejected, link, reason);
  link.reject(RejectionNotice{
      init_.context->pace->SuggestWindow(Now(),
                                         init_.context->estimated_population,
                                         Duration{}, *init_.context->rng),
      analytics::FlightReasonName(reason)});
}

void SelectorActor::HandleArrival(const MsgDeviceArrived& msg) {
  // Local accept/reject decision based on the Coordinator's quota.
  if (!accepting_ || waiting_.size() >= quota_max_waiting_) {
    RejectLink(msg.link, accepting_ ? analytics::FlightReason::kWaitingPoolFull
                                    : analytics::FlightReason::kNotAccepting);
    return;
  }
  EmitCheckin(analytics::JournalEventKind::kCheckinAccepted, msg.link);
  waiting_.push_back(msg.link);
}

void SelectorActor::HandleQuota(const MsgSelectorQuota& msg) {
  accepting_ = msg.accepting;
  quota_max_waiting_ = msg.max_waiting;
  // Shed over-quota waiters with retry windows.
  while (waiting_.size() > quota_max_waiting_) {
    RejectLink(waiting_.front(), analytics::FlightReason::kQuotaReduced);
    waiting_.pop_front();
  }
}

void SelectorActor::HandleForward(const MsgForwardDevices& msg) {
  MsgDevicesForwarded out;
  const std::size_t n = std::min(msg.count, waiting_.size());
  out.links.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.links.push_back(std::move(waiting_.front()));
    waiting_.pop_front();
  }
  if (!out.links.empty()) {
    Send(msg.destination, std::move(out));
  }
}

void SelectorActor::HandleTick() {
  // Release devices held beyond max_hold (they would otherwise idle on an
  // open stream past any useful round).
  const SimTime cutoff = Now() - init_.max_hold;
  while (!waiting_.empty() && waiting_.front().connected_at < cutoff) {
    RejectLink(waiting_.front(), analytics::FlightReason::kHeldTooLong);
    waiting_.pop_front();
  }
  Send(init_.coordinator, MsgSelectorStatus{id(), waiting_.size()});
  SendAfter(init_.tick_period, id(), MsgSelectorTick{});
}

void SelectorActor::HandleCoordinatorDeath(bool crashed) {
  (void)crashed;
  if (!init_.respawn_coordinator) return;
  // The lock service guarantees exactly-once respawn across the selector
  // layer: every selector races to acquire the population lock; only the
  // winner's factory actually creates the new Coordinator.
  const ActorId fresh = init_.respawn_coordinator();
  if (fresh.value != 0) {
    init_.coordinator = fresh;
    system().Watch(init_.coordinator, id());
  } else {
    // Another selector won the race; learn the new coordinator lazily via
    // the embedder re-wiring (quota messages carry no sender identity, so
    // simply keep watching nothing until re-configured).
  }
}

}  // namespace fl::server

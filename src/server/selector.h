// Selector actor (Sec. 4.2): "Selectors are responsible for accepting and
// forwarding device connections. They periodically receive information from
// the Coordinator about how many devices are needed for each FL population,
// which they use to make local decisions about whether or not to accept each
// device. After the Master Aggregator and set of Aggregators are spawned,
// the Coordinator instructs the Selectors to forward a subset of its
// connected devices to the Aggregators."
//
// Selectors also run the selection phase continuously, which is what makes
// the pipelining of Sec. 4.3 free: the next round's candidates accumulate
// in the waiting pool while the current round reports.
#pragma once

#include <deque>
#include <functional>

#include "src/actor/actor.h"
#include "src/server/messages.h"
#include "src/server/task.h"

namespace fl::server {

class SelectorActor final : public actor::Actor {
 public:
  struct Init {
    std::string population;
    ActorId coordinator;
    ServerContext* context = nullptr;
    // Longest a device is held in the waiting pool before being released
    // with a retry window.
    Duration max_hold = Minutes(5);
    Duration tick_period = Seconds(10);
    std::size_t max_waiting = 1000;
    // Re-spawn hook for Coordinator failure (Sec. 4.4: "if the Coordinator
    // dies, the Selector layer will detect this and respawn it"). Returns
    // the new coordinator id; wired by the embedder. May be null.
    std::function<ActorId()> respawn_coordinator;
  };

  explicit SelectorActor(Init init);

  void OnStart() override;
  void OnMessage(const actor::Envelope& env) override;

  std::size_t waiting() const { return waiting_.size(); }

 private:
  void HandleArrival(const MsgDeviceArrived& msg);
  void HandleQuota(const MsgSelectorQuota& msg);
  void HandleForward(const MsgForwardDevices& msg);
  void HandleTick();
  void HandleCoordinatorDeath(bool crashed);
  void EmitCheckin(analytics::JournalEventKind kind, const DeviceLink& link,
                   analytics::FlightReason reason = {});
  void RejectLink(const DeviceLink& link, analytics::FlightReason reason);

  Init init_;
  std::deque<DeviceLink> waiting_;
  bool accepting_ = true;
  std::size_t quota_max_waiting_;
};

}  // namespace fl::server

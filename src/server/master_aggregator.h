// Master Aggregator actor (Sec. 4.2): ephemeral per-round owner. "Master
// Aggregators manage the rounds of each FL task. In order to scale with the
// number of devices and update size, they make dynamic decisions to spawn
// one or more Aggregators to which work is delegated."
//
// The master also runs the round's phase windows (Sec. 2.2): it accepts
// forwarded devices until the participant target or the selection timeout,
// configures Aggregators, tracks reporting progress, and finalizes or
// abandons the round.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/actor/actor.h"
#include "src/analytics/lifecycle.h"
#include "src/fedavg/server_aggregate.h"
#include "src/server/messages.h"
#include "src/server/task.h"

namespace fl::server {

class MasterAggregatorActor final : public actor::Actor {
 public:
  struct Init {
    RoundId round;
    TaskId task;
    ActorId coordinator;
    protocol::RoundConfig config;
    plan::AggregationOp aggregation_op = plan::AggregationOp::kWeightedFedAvg;
    std::shared_ptr<const Checkpoint> global_model;
    std::shared_ptr<const Bytes> model_bytes;
    std::shared_ptr<const PlanBytesByVersion> plan_bytes;
    ServerContext* context = nullptr;
  };

  explicit MasterAggregatorActor(Init init);

  void OnStart() override;
  void OnMessage(const actor::Envelope& env) override;

  std::size_t aggregator_count() const { return aggregators_.size(); }

 private:
  enum class Phase { kSelection, kReporting, kClosing, kDone };

  void HandleForwarded(std::vector<DeviceLink> links);
  void BeginReporting();
  void HandleProgress(const MsgReportingProgress& msg);
  void HandleAggregatorResult(const MsgAggregatorResult& msg);
  void HandleAggregatorDeath(ActorId who);
  void FlushAll();
  void MaybeFinishRound();
  void Abandon(protocol::RoundOutcome outcome, const std::string& reason,
               analytics::FlightReason flight_reason);
  // Emits a master-sourced lifecycle event for this round.
  void EmitRound(analytics::LifecycleEvent e);
  // Turns a forwarded device away with a pace-steered retry window.
  void RejectLink(DeviceLink& link, analytics::FlightReason reason,
                  const char* why);

  Init init_;
  Phase phase_ = Phase::kSelection;
  SimTime started_at_;
  SimTime configured_at_;
  std::vector<DeviceLink> pending_links_;  // buffered during selection

  struct AggState {
    bool done = false;
    std::size_t accepted = 0;
    // Cumulative accepted upload bytes (rides along with progress, so it
    // stays consistent with the journaled accepts even if the aggregator
    // later crashes — the journal keeps those accepts too).
    std::uint64_t wire_bytes = 0;
  };
  std::map<ActorId, AggState> aggregators_;
  std::size_t results_outstanding_ = 0;
  std::size_t total_accepted_ = 0;
  bool flushed_ = false;

  std::optional<fedavg::FedAvgAccumulator> combined_;};

}  // namespace fl::server

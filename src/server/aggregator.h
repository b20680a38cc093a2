// Aggregator actor (Sec. 4.2): ephemeral, spawned by a Master Aggregator for
// one round, owns a slice of the round's devices, keeps all state in memory.
// In simple mode it folds plaintext updates into a running FedAvg sum as
// they arrive; in secure mode it runs one Secure Aggregation instance over
// its cohort (Sec. 6) and only ever sees masked updates.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "src/actor/actor.h"
#include "src/analytics/lifecycle.h"
#include "src/fedavg/codec.h"
#include "src/fedavg/server_aggregate.h"
#include "src/secagg/server.h"
#include "src/server/messages.h"
#include "src/server/task.h"

namespace fl::server {

class AggregatorActor final : public actor::Actor {
 public:
  struct Init {
    RoundId round;
    TaskId task;
    ActorId master;
    protocol::RoundConfig config;
    plan::AggregationOp aggregation_op = plan::AggregationOp::kWeightedFedAvg;
    std::shared_ptr<const Checkpoint> global_model;  // schema + params
    std::shared_ptr<const Bytes> model_bytes;
    std::shared_ptr<const PlanBytesByVersion> plan_bytes;
    ServerContext* context = nullptr;
  };

  explicit AggregatorActor(Init init);

  void OnMessage(const actor::Envelope& env) override;

  // Introspection for tests.
  std::size_t cohort_size() const { return devices_.size(); }

 private:
  enum class DeviceStateTag { kAssigned, kReported, kClosed };
  struct DeviceEntry {
    DeviceLink link;
    DeviceStateTag state = DeviceStateTag::kAssigned;
    secagg::ParticipantIndex secagg_index = 0;
    fedavg::ClientMetrics metrics;  // secure mode: arrives with AdvertiseKeys
  };

  void HandleConfigure(const MsgConfigureDevices& msg);
  void HandleReport(const DeviceReport& report);
  void HandleFlush();
  // The one send of this Aggregator's MsgAggregatorResult: its cohort's
  // partial aggregate, or (no partial) the `error` that lost it.
  void FinishAndReport(std::optional<fedavg::PartialAggregate> partial,
                       std::string error = {});

  // --- Secure aggregation path ---
  void HandleSecAggAdvertise(const SecAggAdvertiseMsg& msg);
  void HandleSecAggShares(const SecAggShareKeysMsg& msg);
  void HandleSecAggMasked(const SecAggMaskedInputMsg& msg);
  void HandleSecAggUnmask(const SecAggUnmaskResponseMsg& msg);
  void HandleSecAggPhaseTimeout(int phase);
  void AdvanceSecAggAfterAdvertising();
  void AdvanceSecAggAfterSharing();
  void AdvanceSecAggAfterCommit();
  void FinalizeSecAgg();

  // Emits an aggregator-sourced lifecycle event for this round.
  void EmitEvent(analytics::LifecycleEvent e);
  void EmitTraffic(std::uint64_t download_bytes, std::uint64_t upload_bytes);
  void EmitError(std::string_view what);
  // A participant closed without a report of its own.
  void RecordParticipant(DeviceId device, protocol::ParticipantOutcome o);
  protocol::ReconnectWindow NextWindow();
  void CloseRemaining(const std::string& reason,
                      protocol::ParticipantOutcome outcome);

  Init init_;
  const std::string codec_name_;  // journaled with each plain-path accept
  std::map<DeviceId, DeviceEntry> devices_;
  std::optional<fedavg::FedAvgAccumulator> accumulator_;
  std::size_t accepted_ = 0;
  // Sum of upload_wire_bytes over accepted reports / masked inputs; rides
  // along with every MsgReportingProgress for the round's commit accounting.
  std::uint64_t accepted_wire_bytes_ = 0;
  bool flushed_ = false;
  bool reported_to_master_ = false;

  // Secure mode state.
  std::optional<secagg::SecAggServer> secagg_;
  fedavg::SecAggVectorSpec secagg_spec_;  // shipped with every assignment
  std::map<secagg::ParticipantIndex, DeviceId> by_index_;
  std::size_t secagg_threshold_ = 0;
  int secagg_phase_ = 0;  // 0=advertise 1=share 2=commit 3=unmask
  // Early phase advancement: when every live participant has answered the
  // current round, move on without waiting for the timer.
  std::size_t secagg_advertised_ = 0;
  std::size_t secagg_shared_ = 0;
  std::size_t secagg_u1_size_ = 0;
  std::size_t secagg_unmask_responses_ = 0;
};

}  // namespace fl::server

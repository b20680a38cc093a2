// DeviceAgent: one simulated phone. Combines the availability process
// (eligibility), the on-device FL runtime (Sec. 3), the multi-tenant
// scheduler, pace-steering compliance, the Secure Aggregation client, and
// the device half of the round protocol (Sec. 2.2), all driven by the
// discrete-event queue.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/analytics/events.h"
#include "src/analytics/lifecycle.h"
#include "src/common/thread_pool.h"
#include "src/core/config.h"
#include "src/core/fleet_stats.h"
#include "src/device/attestation.h"
#include "src/device/example_store.h"
#include "src/device/runtime.h"
#include "src/device/scheduler.h"
#include "src/secagg/client.h"
#include "src/server/frontend.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"

namespace fl::core {

class DeviceAgent;

// Fills one device's example stores as of sim time `now` (see
// FLSystem::ProvisionData).
using DataProvisioner = std::function<void(const sim::DeviceProfile&,
                                           DeviceAgent&, Rng&, SimTime)>;

// A fleet's data provisioning, shared by all of its agents: the provisioner
// and every time a call to it came due (start, then each refresh). An agent
// runs the calls it has not run yet when it next reads its stores.
struct DataSchedule {
  DataProvisioner provisioner;
  std::vector<SimTime> due;  // append-only, ascending
};

class DeviceAgent {
 public:
  // The fleet-wide collaborators every agent borrows. FLSystem owns one
  // Services; each agent keeps a pointer to it.
  struct Services {
    sim::EventQueue* queue = nullptr;
    sim::NetworkModel* network = nullptr;
    const sim::DiurnalCurve* curve = nullptr;
    server::ServerFrontend* frontend = nullptr;
    const device::AttestationAuthority* attestation = nullptr;
    FleetStats* stats = nullptr;  // device-state occupancy (Fig. 6)
    // Every session fact (Table 1 glyphs, drops, wasted upload bytes,
    // session end) goes through analytics::Emit() into this sink.
    analytics::LifecycleSink* events = nullptr;
    const FLSystemConfig* config = nullptr;
    // The fleet's compute pool (null: serial). Runs each session's plan job
    // and fans out its SecAggClient's mask expansion.
    common::ThreadPool* compute_pool = nullptr;
    const DataSchedule* data = nullptr;
  };

  // `services` is shared by the whole fleet and must outlive the agent.
  DeviceAgent(sim::DeviceProfile profile, const Services* services);

  // Registers a population + its example store on this device
  // ("Programmatic Configuration", Sec. 3).
  void Configure(const std::string& population, const std::string& store_name,
                 Duration min_checkin_interval);

  device::InMemoryExampleStore& GetOrCreateStore(const std::string& name);
  // The stores hold the provisioner's calls only up to the device's last
  // training start (see DataSchedule).
  device::ExampleStoreRegistry& stores() { return registry_; }
  const sim::DeviceProfile& profile() const { return profile_; }
  Rng& rng() { return rng_; }
  bool eligible() const { return eligible_; }
  std::uint64_t sessions_started() const { return sessions_started_; }
  std::uint64_t sessions_completed() const { return sessions_completed_; }

  // Arms the agent: schedules eligibility toggles and check-in attempts.
  void Start();

 private:
  // A session's plan job from StartTraining to FinishTraining: queued on the
  // compute pool (or already run, when the fleet has none) and the slot its
  // result lands in.
  struct PlanRun {
    std::shared_ptr<std::optional<Result<device::TaskExecution>>> result;
    common::ThreadPool::Handle done;
  };

  struct Session {
    SessionId id;
    std::uint64_t generation = 0;
    SimTime checkin_at;
    std::string population;
    // Populated on assignment.
    bool assigned = false;
    RoundId round;
    ActorId aggregator;
    SimTime participation_deadline;
    PlanRun plan_run;
    bool trained = false;
    bool uploading = false;
    bool reported_ok = false;
    // A training update, encoded by its plan job for upload.
    std::optional<device::EncodedUpload> upload;
    fedavg::ClientMetrics metrics;
    // Plain-path update codec for this round (from the assignment), and the
    // encode seed StartTraining peeked for it (see BeginUpload).
    protocol::WireCodecConfig codec;
    std::uint64_t codec_seed = 0;
    // Secure aggregation.
    std::optional<fedavg::SecAggVectorSpec> secagg;  // set iff secure round
    // The client and the one job that may be using it: every loop access
    // goes through SecAgg(), which waits for that job first.
    std::shared_ptr<secagg::SecAggClient> sa_client;
    common::ThreadPool::Handle sa_job;
    std::optional<std::vector<secagg::ParticipantIndex>> sa_u1;
    bool sa_masked_sent = false;
  };

  // --- lifecycle ---
  void ScheduleNextToggle();
  void OnToggle(bool now_eligible);
  void ScheduleCheckinPoll(Duration delay);
  void TryCheckin();
  void BeginSession(const std::string& population);

  // --- server link callbacks (all generation-guarded) ---
  server::DeviceLink MakeLink(std::uint64_t generation);
  void OnAssigned(std::uint64_t gen, const server::TaskAssignment& assignment);
  void OnRejected(std::uint64_t gen, const server::RejectionNotice& notice);
  void OnReportAck(std::uint64_t gen, const server::ReportAck& ack);
  void OnClosed(std::uint64_t gen);
  void OnSecAggDirectory(std::uint64_t gen, const server::SecAggDirectoryMsg&);
  void OnSecAggShares(std::uint64_t gen, const server::SecAggSharesMsg&);
  void OnSecAggUnmask(std::uint64_t gen, const server::SecAggUnmaskMsg&);

  // --- round execution ---
  // Runs every provisioner call that came due since the last one this
  // device ran, in order, each with its original due time.
  void CatchUpData();
  // Runs the plan's checks, store query and RNG draws here; the training
  // itself becomes a job that FinishTraining collects.
  void StartTraining(std::uint64_t gen, plan::FLPlan plan, Checkpoint global);
  void FinishTraining(std::uint64_t gen);
  void BeginUpload(std::uint64_t gen);
  void MaybeSendMaskedInput(std::uint64_t gen);
  // Runs `job` on the fleet's compute pool, or here when it has none.
  common::ThreadPool::Handle RunJob(std::function<void()> job);
  // The session's SecAgg client, once its outstanding job has finished.
  secagg::SecAggClient& SecAgg();
  // Hands `job` the client and runs it as the client's outstanding job.
  void RunSecAggJob(std::function<void(secagg::SecAggClient&)> job);
  void SendSecAggUpload(std::uint64_t gen, std::uint64_t bytes,
                        std::function<void()> send);

  // --- bookkeeping ---
  void SetState(analytics::DeviceState s);
  // Emits a device-sourced event for the live session (ids filled in).
  void EmitSession(analytics::LifecycleEvent e);
  void AddTrace(analytics::SessionEvent e);
  void Interrupt();                // eligibility lost mid-session
  void FailSession(const std::string& why);  // '*' error path
  void EndSession(bool completed);
  bool Active(std::uint64_t gen) const {
    return session_ != nullptr && session_->generation == gen;
  }

  sim::DeviceProfile profile_;
  const Services* services_;
  sim::AvailabilityProcess availability_;
  Rng rng_;
  bool eligible_ = false;
  analytics::DeviceState state_ = analytics::DeviceState::kIdle;

  device::ExampleStoreRegistry registry_;
  device::MultiTenantScheduler scheduler_;
  device::FlRuntime runtime_;
  std::size_t data_calls_run_ = 0;  // prefix of services_->data->due

  // Live from check-in to EndSession only: an idle device holds no Session.
  std::unique_ptr<Session> session_;
  std::uint64_t generation_ = 0;
  std::uint64_t session_counter_ = 0;
  std::uint64_t sessions_started_ = 0;
  std::uint64_t sessions_completed_ = 0;
  bool poll_scheduled_ = false;
};

}  // namespace fl::core

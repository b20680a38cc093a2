// FLSystem: the whole deployment in one object — fleet simulator, network,
// server actor stack, analytics — wired over a single deterministic event
// queue. This is the primary entry point of the library.
//
//   core::FLSystemConfig config;
//   core::FLSystem system(config);
//   system.AddTrainingTask("train", model, hyper, selector, round_config);
//   system.ProvisionData([](const sim::DeviceProfile& d,
//                           core::DeviceAgent& agent, Rng& rng, SimTime now) {
//     // Runs lazily, when device d starts training (see ProvisionData).
//     agent.GetOrCreateStore("default").AddBatch(...);
//   });
//   system.Start();
//   system.RunFor(Hours(24));
//   ... inspect system.stats(), system.model_store() ...
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/device_agent.h"
#include "src/core/fleet_stats.h"
#include "src/ops/health.h"
#include "src/ops/ops_plane.h"
#include "src/ops/round_ledger.h"
#include "src/ops/window_store.h"
#include "src/protocol/adaptive.h"
#include "src/server/coordinator.h"
#include "src/server/selector.h"

namespace fl::core {

// Reduces every lifecycle event (actors, frontend, device agents) into the
// registry metrics, FleetStats and the RoundLedger, in that order.
class FLSystem : private analytics::LifecycleSink {
 public:
  using DataProvisioner = core::DataProvisioner;

  explicit FLSystem(FLSystemConfig config);
  ~FLSystem();

  FLSystem(const FLSystem&) = delete;
  FLSystem& operator=(const FLSystem&) = delete;

  // --- deployment definition (before Start) ---

  // Adds a training task; the first training task's initial parameters
  // become the population's global model.
  void AddTrainingTask(const std::string& name, const graph::Model& model,
                       const plan::TrainingHyperparams& hyper,
                       const plan::ExampleSelector& selector,
                       const protocol::RoundConfig& round_config,
                       Duration cadence = Seconds(10));

  // Adds an evaluation task over the same global model (Sec. 7.1:
  // "alternating between training and evaluation of a single model").
  void AddEvaluationTask(const std::string& name, const graph::Model& model,
                         const plan::ExampleSelector& selector,
                         const protocol::RoundConfig& round_config,
                         Duration cadence = Seconds(10));

  // Installs the per-device data provisioner (before Start()). A call is
  // due for every device at start and every config.data_refresh_period
  // thereafter, but runs lazily: when a device starts training, it first
  // runs each call that came due since its last training start, in order,
  // with that call's due time as `now`. Devices that never train never
  // generate data. Any draws from the Rng argument (the device's own)
  // happen at that first read, so a provisioner whose output depends only
  // on (profile, now) fills the same stores as an eager one.
  void ProvisionData(DataProvisioner provisioner);

  // Enables adaptive tuning of the round windows (Sec. 11 "Convergence
  // Time"): a controller observes every finished round through the
  // analytics layer and pushes adjusted configurations to the Coordinator.
  // Applies to all tasks; call before or after Start().
  void EnableAdaptiveWindows(
      protocol::AdaptiveWindowController::Params params = {});
  const protocol::AdaptiveWindowController* adaptive_controller() const {
    return adaptive_ ? &adaptive_->controller : nullptr;
  }

  // Spawns the server actors and arms every device agent.
  void Start();

  // --- execution ---
  void RunFor(Duration d);
  void RunUntil(SimTime t);
  SimTime now() const;

  // --- failure injection (Sec. 4.4 experiments) ---
  void CrashCoordinator();
  void CrashRandomSelector();
  // Crashes the active round's master aggregator. Returns false when there
  // is no live coordinator or no active round.
  bool CrashActiveMaster();

  // --- introspection ---
  FleetStats& stats() { return *stats_; }
  const FleetStats& stats() const { return *stats_; }
  // Sec. 5 health checks (config.health_policy plus rejected_spike),
  // evaluated on each stats tick while telemetry is enabled; failures()
  // lists every check that failed, /healthz serves latest().
  const ops::HealthEvaluator& health() const { return health_; }
  // The live ops plane; nullptr unless config.statusz_port was set (or
  // FL_STATUSZ in the environment) and the server started successfully.
  ops::OpsPlane* ops_plane() { return ops_.get(); }
  const ops::OpsPlane* ops_plane() const { return ops_.get(); }
  // Always present; enabled (writes bundles) only when config.bundle_dir is
  // non-empty. Captures fire on abandoned rounds and unhealthy transitions.
  ops::DiagnosticBundler& bundler() { return *bundler_; }
  const ops::DiagnosticBundler& bundler() const { return *bundler_; }
  // Always fed every lifecycle event (recording only while the ops plane
  // is up); /rounds serves from it.
  ops::RoundLedger& round_ledger() { return *round_ledger_; }
  server::ModelStore& model_store() { return *model_store_; }
  actor::ActorSystem& actor_system() { return *actors_; }
  server::ServerFrontend& frontend() { return *frontend_; }
  std::vector<DeviceAgent*> devices();
  std::size_t device_count() const { return agents_.size(); }
  ActorId coordinator_id() const { return coordinator_; }
  const std::vector<ActorId>& selector_ids() const { return selector_ids_; }
  sim::EventQueue& queue() { return queue_; }
  const FLSystemConfig& config() const { return config_; }
  // The compute pool for device training jobs and SecAgg masking:
  // hardware_concurrency - 1 workers, started by the first task with enough
  // training or mask work to repay its wake-ups; null until then (a
  // small-model deployment starts no extra thread).
  common::ThreadPool* compute_pool() { return compute_pool_.get(); }

 private:
  void On(const analytics::LifecycleEvent& e) override;
  void AddTask(const std::string& name, plan::VersionedPlanSet plans,
               const protocol::RoundConfig& round_config, Duration cadence);
  ActorId SpawnCoordinator();
  void ScheduleStatsSampler();
  void ScheduleDataRefresh();
  void ScheduleAdaptiveTick();

  FLSystemConfig config_;
  // Declared before every actor and agent that borrows it.
  std::unique_ptr<common::ThreadPool> compute_pool_;
  Rng rng_;
  sim::EventQueue queue_;
  sim::DiurnalCurve curve_;
  sim::NetworkModel network_;
  std::unique_ptr<actor::SimContext> context_;
  std::unique_ptr<actor::ActorSystem> actors_;

  server::LockService locks_;
  std::unique_ptr<server::ModelStore> model_store_;
  std::unique_ptr<FleetStats> stats_;
  // The stats tick records each registry snapshot into store_ and
  // evaluates health_ on it (telemetry on); the ops plane serves both.
  ops::SlidingWindowStore store_;
  ops::HealthEvaluator health_;
  bool was_healthy_ = true;  // bundle on the healthy -> unhealthy edge
  std::unique_ptr<ops::RoundLedger> round_ledger_;
  std::unique_ptr<ops::DiagnosticBundler> bundler_;
  analytics::ServerMetrics metrics_;
  std::unique_ptr<ops::OpsPlane> ops_;
  std::unique_ptr<protocol::PaceSteeringPolicy> pace_;
  server::ServerContext server_context_;
  device::AttestationAuthority attestation_;
  std::unique_ptr<server::ServerFrontend> frontend_;

  std::vector<server::FLTaskDescriptor> tasks_;  // master copy for respawn
  ActorId coordinator_;
  std::vector<ActorId> selector_ids_;

  DeviceAgent::Services agent_services_;  // shared by every agent
  std::vector<std::unique_ptr<DeviceAgent>> agents_;
  DataSchedule data_;
  bool started_ = false;
  std::uint64_t next_task_id_ = 1;

  struct AdaptiveState {
    protocol::AdaptiveWindowController controller;
    protocol::RoundConfig shadow_config;  // last pushed configuration
    std::size_t log_cursor = 0;           // rounds already consumed
    bool shadow_initialized = false;
  };
  std::optional<AdaptiveState> adaptive_;
};

namespace internal {
// Replaces the per-update training work at which AddTask starts the compute
// pool, so bench_parallel_rounds' cutoff sweep can run one fleet both ways.
// Bench-only; not synchronized, so call it before building any FLSystem.
void SetTrainingPoolMinWorkForBench(std::size_t work);
}  // namespace internal

}  // namespace fl::core

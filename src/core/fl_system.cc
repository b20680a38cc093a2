#include "src/core/fl_system.h"

#include <algorithm>
#include <thread>

#include "src/common/logging.h"
#include "src/fedavg/codec.h"
#include "src/graph/registry.h"
#include "src/ops/crash_handler.h"
#include "src/profiler/start.h"
#include "src/server/master_aggregator.h"

namespace fl::core {
namespace {
constexpr std::uint64_t kNetworkSeedSalt = 0x6e657477726bULL;   // "networ"
constexpr std::uint64_t kAttestSeedSalt = 0x61747465737421ULL;  // "attest!"
// Per-round work below which FLSystem starts no compute pool (see AddTask):
// SecAgg mask words per Aggregator, and one client update's training work
// in parameters x epochs x batch size.
constexpr std::size_t kSecAggPoolMinWords = std::size_t{1} << 15;
constexpr std::size_t kTrainingPoolMinWork = std::size_t{1} << 17;
std::size_t g_training_pool_min_work = kTrainingPoolMinWork;
}  // namespace

namespace internal {
void SetTrainingPoolMinWorkForBench(std::size_t work) {
  g_training_pool_min_work = work;
}
}  // namespace internal

FLSystem::FLSystem(FLSystemConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      curve_(config_.diurnal),
      network_(config_.network, config_.seed ^ kNetworkSeedSalt),
      health_(config_.health_policy),
      attestation_(config_.seed ^ kAttestSeedSalt) {
  context_ = std::make_unique<actor::SimContext>(queue_);
  actors_ = std::make_unique<actor::ActorSystem>(*context_);
  stats_ = std::make_unique<FleetStats>(SimTime{0}, config_.stats_bucket);
  pace_ = std::make_unique<protocol::PaceSteeringPolicy>(config_.pace,
                                                         &curve_);
  frontend_ = std::make_unique<server::ServerFrontend>(
      actors_.get(), &server_context_, &attestation_);

  server_context_.locks = &locks_;
  round_ledger_ = std::make_unique<ops::RoundLedger>();
  // Diagnostic bundler: disabled (dir empty) unless configured, but always
  // constructed so triggers can be wired unconditionally. The abandoned-
  // round hook fires even with the ops plane off.
  ops::DiagnosticBundler::Options bundle_opts = config_.bundle_options;
  bundle_opts.dir = config_.bundle_dir;
  bundler_ = std::make_unique<ops::DiagnosticBundler>(
      std::move(bundle_opts),
      ops::DiagnosticBundler::Sources{.ledger = round_ledger_.get(),
                                      .health = &health_});
  round_ledger_->set_on_abandoned(
      [this](SimTime t, RoundId round, protocol::RoundOutcome outcome) {
        bundler_->Capture(
            "round_abandoned",
            "round=" + std::to_string(round.value) +
                " outcome=" + protocol::RoundOutcomeName(outcome),
            t);
      });
  server_context_.stats = this;
  server_context_.pace = pace_.get();
  server_context_.rng = &rng_;
  server_context_.estimated_population = config_.population.device_count;
}

FLSystem::~FLSystem() {
  // Stop HTTP workers before the members their handlers read go away.
  if (ops_ != nullptr) ops_->Stop();
}

void FLSystem::On(const analytics::LifecycleEvent& e) {
  // The registry and the tracer's spans (telemetry on), the Fig. 5–9 /
  // Table 1 analytics, then the /rounds ledger (ops plane up), whose abandon
  // hook may capture a bundle that reads the others.
  metrics_.On(e);
  analytics::RecordSpans(e);
  stats_->On(e);
  round_ledger_->On(e);
}

void FLSystem::AddTrainingTask(const std::string& name,
                               const graph::Model& model,
                               const plan::TrainingHyperparams& hyper,
                               const plan::ExampleSelector& selector,
                               const protocol::RoundConfig& round_config,
                               Duration cadence) {
  FL_CHECK_MSG(!started_, "tasks must be added before Start()");
  const plan::FLPlan default_plan =
      plan::MakeTrainingPlan(model, name, hyper, selector);
  auto plans = plan::VersionedPlanSet::Generate(
      default_plan, graph::kOldestSupportedRuntime);
  FL_CHECK_MSG(plans.ok(), plans.status().ToString());

  if (model_store_ == nullptr) {
    // The population's singleton global model (Sec. 2.2).
    model_store_ = std::make_unique<server::ModelStore>(model.init_params);
    server_context_.model_store = model_store_.get();
  } else {
    FL_CHECK_MSG(model_store_->Latest().CompatibleWith(model.init_params),
                 "all tasks of a population must share the model schema");
  }

  AddTask(name, std::move(plans).value(), round_config, cadence);
}

void FLSystem::AddEvaluationTask(const std::string& name,
                                 const graph::Model& model,
                                 const plan::ExampleSelector& selector,
                                 const protocol::RoundConfig& round_config,
                                 Duration cadence) {
  FL_CHECK_MSG(!started_, "tasks must be added before Start()");
  FL_CHECK_MSG(model_store_ != nullptr,
               "add a training task before evaluation tasks");
  const plan::FLPlan default_plan =
      plan::MakeEvaluationPlan(model, name, selector);
  auto plans = plan::VersionedPlanSet::Generate(
      default_plan, graph::kOldestSupportedRuntime);
  FL_CHECK_MSG(plans.ok(), plans.status().ToString());

  AddTask(name, std::move(plans).value(), round_config, cadence);
}

void FLSystem::AddTask(const std::string& name, plan::VersionedPlanSet plans,
                       const protocol::RoundConfig& round_config,
                       Duration cadence) {
  // One compute pool serves the fleet: every device job runs on it (plan,
  // upload encode and SecAgg client crypto), and SecAgg masking (device
  // side) and unmasking (Aggregator side) fan out over it. The first task with enough
  // work to repay the pool's wake-ups starts it, and every later task
  // borrows it. Enough work is either
  //  - SecAgg mask work per Aggregator (masked vector length x
  //    devices_per_aggregator, in u32 words) of at least kSecAggPoolMinWords.
  //    bench_secagg_scaling's cutoff sweep measures that crossover: with 3
  //    workers on 4 cores, one cohort's MaskInput calls plus its Finalize
  //    took 1.02-1.13x the serial time at 2^14 words (8 users x 2 048) and
  //    0.57-0.91x at 2^15 (8 x 4 096, 32 x 1 024); or
  //  - one client update's training work (parameters x epochs x batch size)
  //    of at least kTrainingPoolMinWork. bench_parallel_rounds' cutoff sweep
  //    measures that crossover on a plain fleet, along epochs (a 64 -> 8 LR
  //    at 1 to 32 epochs) and along width (a 1 024 -> 8 LR at 1 and 2). Over
  //    five runs, pooled took 0.66-1.09x its serial wall time at 2^14-2^16,
  //    faster in only 6 of those 15 medians (a second thread makes every
  //    allocation on the loop dearer); 0.50-1.01x at 2^17; and 0.29-0.67x
  //    at 2^18 and above. The width points took 0.56x at 2^18 (0.84x with
  //    5 000 devices) and 0.52x at 2^19: the job also encodes the update,
  //    so the loop's per-parameter work no longer cancels the gain.
  // ParallelFor's caller and Handle::Wait take part, so
  // hardware_concurrency - 1 workers fill the machine; the output bits are
  // the same with or without the pool.
  const std::size_t parameters = model_store_->Latest().TotalParameters();
  const std::size_t mask_words =
      (fedavg::KeepCount(parameters, round_config.secagg.keep_fraction) + 1) *
      round_config.devices_per_aggregator;
  const plan::DevicePlan& device = plans.plans().rbegin()->second.device;
  const std::size_t training_work =
      parameters * std::max<std::size_t>(1, device.epochs) *
      std::max<std::size_t>(1, device.batch_size);
  const bool secagg_work =
      round_config.aggregation == protocol::AggregationMode::kSecure &&
      mask_words >= kSecAggPoolMinWords;
  if ((secagg_work || training_work >= g_training_pool_min_work) &&
      compute_pool_ == nullptr) {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    compute_pool_ = std::make_unique<common::ThreadPool>(cores - 1);
    server_context_.compute_pool = compute_pool_.get();
  }
  server::FLTaskDescriptor task;
  task.id = TaskId{next_task_id_++};
  task.name = name;
  task.plans = std::move(plans);
  task.round_config = round_config;
  task.round_cadence = cadence;
  tasks_.push_back(std::move(task));
}

void FLSystem::ProvisionData(DataProvisioner provisioner) {
  FL_CHECK_MSG(!started_, "ProvisionData must be called before Start()");
  data_.provisioner = std::move(provisioner);
}

void FLSystem::EnableAdaptiveWindows(
    protocol::AdaptiveWindowController::Params params) {
  const bool arm_now = started_ && !adaptive_.has_value();
  adaptive_.emplace(AdaptiveState{
      protocol::AdaptiveWindowController(params), {}, 0, false});
  if (arm_now) ScheduleAdaptiveTick();
}

void FLSystem::ScheduleAdaptiveTick() {
  queue_.After(Minutes(1), [this] {
    if (!adaptive_.has_value()) return;
    AdaptiveState& state = *adaptive_;
    if (!state.shadow_initialized && !tasks_.empty()) {
      state.shadow_config = tasks_.front().round_config;
      state.shadow_initialized = true;
    }
    const auto& log = stats_->round_log();
    bool changed = false;
    for (; state.log_cursor < log.size(); ++state.log_cursor) {
      const analytics::RoundRecord& r = log[state.log_cursor];
      protocol::RoundObservation obs;
      obs.outcome = r.outcome;
      obs.selection_duration = r.selection_duration;
      obs.round_duration = r.round_duration;
      obs.completed = r.participants() > 0 ? r.completed : r.contributors;
      obs.dropped = r.dropped;
      state.shadow_config =
          state.controller.Update(state.shadow_config, obs);
      changed = true;
    }
    if (changed && coordinator_.value != 0) {
      actors_->Send(ActorId{}, coordinator_,
                    server::MsgUpdateRoundConfig{TaskId{0},
                                                 state.shadow_config});
    }
    ScheduleAdaptiveTick();
  });
}

ActorId FLSystem::SpawnCoordinator() {
  // Never spawn a duplicate while the current instance is healthy (the
  // lock's re-entrant owner semantics would otherwise admit one).
  if (coordinator_.value != 0 && actors_->IsAlive(coordinator_)) {
    return ActorId{};
  }
  // Exactly-once semantics via the shared lock service (Sec. 4.2/4.4).
  auto epoch = locks_.Acquire(config_.population_name, "coordinator",
                              queue_.now());
  if (!epoch.ok()) return ActorId{};

  server::CoordinatorActor::Init init;
  init.population = config_.population_name;
  init.tasks = tasks_;  // copy: the system retains the master list
  init.selectors = selector_ids_;
  init.context = &server_context_;
  init.tick_period = config_.coordinator_tick;
  init.max_waiting_per_selector = config_.max_waiting_per_selector;
  init.pipelined_selection = config_.pipelined_selection;
  init.lock_epoch = *epoch;
  coordinator_ = actors_->Spawn<server::CoordinatorActor>("coordinator",
                                                          std::move(init));
  return coordinator_;
}

void FLSystem::Start() {
  FL_CHECK_MSG(!started_, "Start() called twice");
  FL_CHECK_MSG(!tasks_.empty(), "no tasks configured");
  started_ = true;

  // Continuous profiling (FL_PROFILER=1): arm the SIGPROF sampler and heap
  // sampling before any actor runs so every round is covered. One branch
  // when the env var is unset.
  if (const Status s = profiler::StartFromEnv(); !s.ok()) {
    FL_LOG(Warning) << "profiler disabled: " << s.ToString();
  }

  // Boot the ops plane first so telemetry + the round ledger are recording
  // before any actor reports. A failed bind (port taken) degrades to
  // "plane off" rather than failing the deployment.
  if (config_.statusz_port.has_value()) {
    ops_ = std::make_unique<ops::OpsPlane>(
        ops::OpsPlane::Options{.port = *config_.statusz_port,
                               .population = config_.population_name},
        ops::StatusServer::Sources{.store = &store_,
                                   .ledger = round_ledger_.get(),
                                   .health = &health_,
                                   .bundler = bundler_.get()});
    round_ledger_->set_enabled(true);
    if (const Status s = ops_->Start(); !s.ok()) {
      FL_LOG(Warning) << "ops plane disabled: " << s.ToString();
      ops_.reset();
    } else {
      FL_LOG(Info) << "ops plane serving on http://127.0.0.1:"
                   << ops_->port();
    }
  }

  // Abnormal-exit forensics: once a bundle dir is configured, fatal signals
  // dump the flight recorder there and the journal tail is flushed at exit.
  if (!config_.bundle_dir.empty()) {
    ops::CrashHandlerOptions crash_opts;
    crash_opts.flight_dump_path = config_.bundle_dir + "/crash-flight.log";
    ops::InstallCrashHandler(crash_opts);
  }

  // Selectors first (the coordinator greets them on start).
  for (std::size_t i = 0; i < config_.selector_count; ++i) {
    server::SelectorActor::Init init;
    init.population = config_.population_name;
    init.coordinator = ActorId{};  // learned via MsgCoordinatorHello
    init.context = &server_context_;
    init.max_waiting = config_.max_waiting_per_selector;
    init.respawn_coordinator = [this]() -> ActorId {
      return SpawnCoordinator();
    };
    const ActorId sel = actors_->Spawn<server::SelectorActor>(
        "selector-" + std::to_string(i), std::move(init));
    selector_ids_.push_back(sel);
    frontend_->AddSelector(sel);
  }
  SpawnCoordinator();
  FL_CHECK_MSG(coordinator_.value != 0, "failed to acquire population lock");

  // The device fleet. Every device's first provisioner call is due now;
  // each device runs it at its first training start.
  if (data_.provisioner) data_.due.push_back(queue_.now());
  std::vector<sim::DeviceProfile> profiles =
      sim::GeneratePopulation(config_.population, rng_);
  agents_.reserve(profiles.size());
  const std::string store_name =
      tasks_.front().plans.plans().begin()->second.device.selector.store_name;
  agent_services_.queue = &queue_;
  agent_services_.network = &network_;
  agent_services_.curve = &curve_;
  agent_services_.frontend = frontend_.get();
  agent_services_.attestation = &attestation_;
  agent_services_.stats = stats_.get();
  agent_services_.events = this;
  agent_services_.config = &config_;
  agent_services_.compute_pool = compute_pool_.get();
  agent_services_.data = &data_;
  for (const sim::DeviceProfile& profile : profiles) {
    auto agent = std::make_unique<DeviceAgent>(profile, &agent_services_);
    agent->Configure(config_.population_name, store_name,
                     config_.device_checkin_cadence);
    agent->Start();
    agents_.push_back(std::move(agent));
  }

  ScheduleStatsSampler();
  if (config_.data_refresh_period.millis > 0 && data_.provisioner) {
    ScheduleDataRefresh();
  }
  if (adaptive_.has_value()) ScheduleAdaptiveTick();
}

void FLSystem::ScheduleStatsSampler() {
  // Sample often relative to the bucket width so short-lived states
  // (participating lasts a minute or two) are measured, not aliased.
  const Duration period =
      std::min(Minutes(1), Duration{config_.stats_bucket.millis / 2});
  queue_.After(period, [this] {
    stats_->SampleStates(queue_.now());
    if (telemetry::Enabled()) {
      auto& registry = telemetry::MetricsRegistry::Global();
      registry.GetGauge("fl_sim_live_actors")
          ->Set(static_cast<double>(actors_->live_actors()));
      registry.GetGauge("fl_sim_event_queue_pending")
          ->Set(static_cast<double>(queue_.pending()));
      const auto& qs = queue_.stats();
      registry.GetGauge("fl_sim_events_scheduled_total")
          ->Set(static_cast<double>(qs.scheduled));
      registry.GetGauge("fl_sim_events_fired_total")
          ->Set(static_cast<double>(qs.fired));
      registry.GetGauge("fl_sim_events_cancelled_total")
          ->Set(static_cast<double>(qs.cancelled));
      registry.GetGauge("fl_sim_events_cascaded_total")
          ->Set(static_cast<double>(qs.cascaded));
      const auto occupancy = queue_.LevelOccupancy();
      for (std::size_t level = 0; level < occupancy.size(); ++level) {
        const std::string name =
            level < sim::EventQueue::kLevels
                ? "fl_sim_wheel_level_" + std::to_string(level) + "_live"
                : "fl_sim_wheel_overflow_live";
        registry.GetGauge(name)
            ->Set(static_cast<double>(occupancy[level]));
      }
      // One snapshot per tick feeds the window store and the health
      // checks, which the ops plane serves when it is up.
      const telemetry::MetricsSnapshot snapshot = registry.Snapshot();
      store_.Record(queue_.now().millis, snapshot);
      const ops::HealthReport report =
          health_.Evaluate(store_, snapshot, queue_.now().millis);
      // Bundle on the healthy -> unhealthy edge only: a fleet that stays
      // unhealthy for an hour produces one bundle, not one per tick.
      if (was_healthy_ && !report.healthy) {
        std::string failing;
        for (const ops::HealthCheck& c : report.checks) {
          if (c.ok) continue;
          if (!failing.empty()) failing += ',';
          failing += c.name;
        }
        bundler_->Capture("health", failing, queue_.now());
      }
      was_healthy_ = report.healthy;
    }
    ScheduleStatsSampler();
  });
}

void FLSystem::ScheduleDataRefresh() {
  queue_.After(config_.data_refresh_period, [this] {
    data_.due.push_back(queue_.now());  // run by each device when it trains
    ScheduleDataRefresh();
  });
}

void FLSystem::RunFor(Duration d) { queue_.RunFor(d); }
void FLSystem::RunUntil(SimTime t) { queue_.RunUntil(t); }
SimTime FLSystem::now() const { return queue_.now(); }

void FLSystem::CrashCoordinator() {
  if (coordinator_.value != 0) {
    // Drop the lease so a respawn can acquire it immediately (the crashed
    // owner will never renew; expiring naturally would also work).
    const auto epoch = locks_.Epoch(config_.population_name, queue_.now());
    actors_->Crash(coordinator_);
    if (epoch.has_value()) {
      (void)locks_.Release(config_.population_name, "coordinator", *epoch);
    }
  }
}

void FLSystem::CrashRandomSelector() {
  if (selector_ids_.empty()) return;
  const std::size_t idx = rng_.UniformInt(selector_ids_.size());
  actors_->Crash(selector_ids_[idx]);
}

bool FLSystem::CrashActiveMaster() {
  auto* coord = actors_->Get<server::CoordinatorActor>(coordinator_);
  if (coord == nullptr) return false;
  const auto master = coord->active_master();
  if (!master.has_value()) return false;
  // Masters watch-notify the coordinator, which restarts the round
  // (Sec. 4.4).
  actors_->Crash(*master);
  return true;
}

std::vector<DeviceAgent*> FLSystem::devices() {
  std::vector<DeviceAgent*> out;
  out.reserve(agents_.size());
  for (auto& a : agents_) out.push_back(a.get());
  return out;
}

}  // namespace fl::core

// Round-protocol tests at the actor layer, with scripted fake devices in
// place of the fleet simulator.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/model_zoo.h"
#include "src/server/aggregator.h"
#include "src/server/coordinator.h"
#include "src/server/master_aggregator.h"
#include "src/server/selector.h"

namespace fl::server {
namespace {

// Captures everything the server pushes at a device.
struct FakeDevice {
  DeviceId id;
  std::uint32_t runtime_version = 3;
  std::vector<TaskAssignment> assignments;
  std::vector<RejectionNotice> rejections;
  std::vector<ReportAck> acks;
  int closed = 0;

  DeviceLink Link(SimTime now = {}) {
    DeviceLink link;
    link.device = id;
    link.session = SessionId{id.value * 100};
    link.runtime_version = runtime_version;
    link.connected_at = now;
    link.assign = [this](const TaskAssignment& a) { assignments.push_back(a); };
    link.reject = [this](const RejectionNotice& n) { rejections.push_back(n); };
    link.report_ack = [this](const ReportAck& a) { acks.push_back(a); };
    link.secagg_directory = [](const SecAggDirectoryMsg&) {};
    link.secagg_shares = [](const SecAggSharesMsg&) {};
    link.secagg_unmask = [](const SecAggUnmaskMsg&) {};
    link.closed = [this](const ConnectionClosed&) { ++closed; };
    return link;
  }
};

// Captures the master's verdict in place of the coordinator.
class ProbeActor final : public actor::Actor {
 public:
  void OnMessage(const actor::Envelope& env) override {
    if (const auto* m = std::any_cast<MsgRoundComplete>(&env.payload)) {
      completes.push_back(*m);
    } else if (const auto* m =
                   std::any_cast<MsgRoundAbandoned>(&env.payload)) {
      abandons.push_back(*m);
    }
  }
  std::vector<MsgRoundComplete> completes;
  std::vector<MsgRoundAbandoned> abandons;
};

// Tallies the lifecycle facts the actors emit, through the same fact →
// counter mapping the production reducers use.
class CountingStats final : public analytics::LifecycleSink {
 public:
  void On(const analytics::LifecycleEvent& e) override {
    if (const auto p = analytics::ParticipantOutcomeOf(e)) ++participants[*p];
    if (analytics::IsServerError(e)) errors.emplace_back(e.note);
    switch (e.kind) {
      case analytics::JournalEventKind::kRoundOutcome: ++outcomes[e.outcome]; break;
      case analytics::JournalEventKind::kMasterAccept: ++accepted; break;
      case analytics::JournalEventKind::kCheckinRejected: ++rejected; break;
      case analytics::JournalEventKind::kTraffic:
        download += e.a;
        upload += e.b;
        break;
      default: break;
    }
  }

  std::map<protocol::RoundOutcome, int> outcomes;
  std::map<protocol::ParticipantOutcome, int> participants;
  std::uint64_t accepted = 0, rejected = 0, download = 0, upload = 0;
  std::vector<std::string> errors;
};

struct Harness : public ::testing::Test {
  Harness()
      : context_obj(queue),
        system(context_obj),
        pace({}, nullptr),
        rng(7),
        model(graph::BuildLogisticRegression(4, 2, rng)) {
    server_context.locks = &locks;
    server_context.stats = &stats;
    server_context.pace = &pace;
    server_context.rng = &rng;
    server_context.estimated_population = 500;

    model_ptr = std::make_shared<const Checkpoint>(model.init_params);
    model_bytes = std::make_shared<const Bytes>(model.init_params.Serialize());

    const plan::FLPlan default_plan =
        plan::MakeTrainingPlan(model, "task", {}, {});
    auto plans = plan::VersionedPlanSet::Generate(default_plan, 1);
    FL_CHECK(plans.ok());
    plan_set = std::move(plans).value();
    plan_bytes = std::make_shared<const PlanBytesByVersion>(
        SerializePlanSet(plan_set));
  }

  protocol::RoundConfig SmallRound() {
    protocol::RoundConfig config;
    config.goal_count = 4;
    config.overselection = 1.5;  // target 6
    config.selection_timeout = Minutes(2);
    config.min_selection_fraction = 0.75;  // min 3
    config.reporting_deadline = Minutes(10);
    config.min_reporting_fraction = 0.75;  // min 3
    config.devices_per_aggregator = 3;
    return config;
  }

  ActorId SpawnMaster(const protocol::RoundConfig& config, ActorId probe) {
    MasterAggregatorActor::Init init;
    init.round = RoundId{1};
    init.task = TaskId{1};
    init.coordinator = probe;
    init.config = config;
    init.global_model = model_ptr;
    init.model_bytes = model_bytes;
    init.plan_bytes = plan_bytes;
    init.context = &server_context;
    return system.Spawn<MasterAggregatorActor>("master", std::move(init));
  }

  // A valid weighted-delta report for the given device.
  DeviceReport ReportFor(const FakeDevice& dev, const TaskAssignment& a,
                         float weight = 10.0f) {
    Checkpoint delta = model.init_params;
    delta.Scale(0.01f * weight);
    DeviceReport r;
    r.device = dev.id;
    r.session = SessionId{dev.id.value * 100};
    r.round = a.round;
    r.update_bytes = delta.Serialize();
    r.weight = weight;
    r.metrics.mean_loss = 0.5;
    r.metrics.mean_accuracy = 0.7;
    r.metrics.example_count = static_cast<std::size_t>(weight);
    r.upload_wire_bytes = r.update_bytes.size();
    return r;
  }

  sim::EventQueue queue;
  actor::SimContext context_obj;
  actor::ActorSystem system;
  LockService locks;
  CountingStats stats;
  protocol::PaceSteeringPolicy pace;
  Rng rng;
  ServerContext server_context;
  graph::Model model;
  std::shared_ptr<const Checkpoint> model_ptr;
  std::shared_ptr<const Bytes> model_bytes;
  plan::VersionedPlanSet plan_set;
  std::shared_ptr<const PlanBytesByVersion> plan_bytes;
};

// ---------------------------------------------------------------------------
// Selector behaviour.
// ---------------------------------------------------------------------------

TEST_F(Harness, SelectorHoldsAndForwardsDevices) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  SelectorActor::Init init;
  init.population = "pop";
  init.coordinator = probe;
  init.context = &server_context;
  const ActorId sel = system.Spawn<SelectorActor>("sel", std::move(init));

  std::vector<FakeDevice> devices(5);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    devices[i].id = DeviceId{i + 1};
    system.Send(ActorId{}, sel, MsgDeviceArrived{devices[i].Link()});
  }
  queue.RunFor(Seconds(1));
  EXPECT_EQ(system.Get<SelectorActor>(sel)->waiting(), 5u);

  // Forward 3 to the probe (standing in for a master aggregator).
  system.Send(ActorId{}, sel, MsgForwardDevices{3, probe});
  queue.RunFor(Seconds(1));
  EXPECT_EQ(system.Get<SelectorActor>(sel)->waiting(), 2u);
}

TEST_F(Harness, SelectorRejectsWhenNotAccepting) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  SelectorActor::Init init;
  init.population = "pop";
  init.coordinator = probe;
  init.context = &server_context;
  const ActorId sel = system.Spawn<SelectorActor>("sel", std::move(init));
  system.Send(ActorId{}, sel, MsgSelectorQuota{100, false, 500});
  queue.RunFor(Seconds(1));

  FakeDevice dev;
  dev.id = DeviceId{1};
  system.Send(ActorId{}, sel, MsgDeviceArrived{dev.Link()});
  queue.RunFor(Seconds(1));
  ASSERT_EQ(dev.rejections.size(), 1u);
  EXPECT_GT(dev.rejections[0].retry_window.earliest.millis, 0);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST_F(Harness, SelectorEnforcesWaitingQuota) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  SelectorActor::Init init;
  init.population = "pop";
  init.coordinator = probe;
  init.context = &server_context;
  init.max_waiting = 2;
  const ActorId sel = system.Spawn<SelectorActor>("sel", std::move(init));

  std::vector<FakeDevice> devices(4);
  for (std::size_t i = 0; i < 4; ++i) {
    devices[i].id = DeviceId{i + 1};
    system.Send(ActorId{}, sel, MsgDeviceArrived{devices[i].Link()});
  }
  queue.RunFor(Seconds(1));
  EXPECT_EQ(system.Get<SelectorActor>(sel)->waiting(), 2u);
  EXPECT_EQ(devices[2].rejections.size() + devices[3].rejections.size(), 2u);
}

TEST_F(Harness, SelectorReleasesStaleWaiters) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  SelectorActor::Init init;
  init.population = "pop";
  init.coordinator = probe;
  init.context = &server_context;
  init.max_hold = Minutes(5);
  init.tick_period = Seconds(30);
  const ActorId sel = system.Spawn<SelectorActor>("sel", std::move(init));

  FakeDevice dev;
  dev.id = DeviceId{1};
  system.Send(ActorId{}, sel, MsgDeviceArrived{dev.Link(queue.now())});
  queue.RunFor(Minutes(6));
  EXPECT_EQ(system.Get<SelectorActor>(sel)->waiting(), 0u);
  EXPECT_EQ(dev.rejections.size(), 1u);
}

// ---------------------------------------------------------------------------
// Master aggregator: full round.
// ---------------------------------------------------------------------------

TEST_F(Harness, FullRoundCommitsWithCorrectAggregation) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  const ActorId master = SpawnMaster(SmallRound(), probe);

  std::vector<FakeDevice> devices(6);
  MsgDevicesForwarded forwarded;
  for (std::size_t i = 0; i < 6; ++i) {
    devices[i].id = DeviceId{i + 1};
    forwarded.links.push_back(devices[i].Link());
  }
  system.Send(ActorId{}, master, std::move(forwarded));
  queue.RunFor(Seconds(1));

  // Target reached (6 >= 1.5*4): configuration fired on all 6.
  for (auto& d : devices) {
    ASSERT_EQ(d.assignments.size(), 1u) << d.id;
    EXPECT_EQ(d.assignments[0].round, RoundId{1});
  }
  EXPECT_GT(stats.download, 0u);

  // 4 devices report (exactly the goal).
  for (std::size_t i = 0; i < 4; ++i) {
    system.Send(ActorId{}, devices[i].assignments[0].aggregator,
                ReportFor(devices[i], devices[i].assignments[0]));
  }
  queue.RunFor(Seconds(1));

  auto* p = system.Get<ProbeActor>(probe);
  ASSERT_EQ(p->completes.size(), 1u);
  const MsgRoundComplete& done = p->completes[0];
  EXPECT_EQ(done.partial.contributors, 4u);
  EXPECT_FLOAT_EQ(done.partial.weight_sum, 40.0f);
  // Sum of four deltas each = init * 0.1 -> total init * 0.4.
  const Tensor& sum_w = *(*done.partial.delta_sum.Get("w"));
  const Tensor& init_w = *(*model.init_params.Get("w"));
  for (std::size_t i = 0; i < sum_w.size(); ++i) {
    EXPECT_NEAR(sum_w.at(i), init_w.at(i) * 0.4f, 1e-4);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(devices[i].acks.size(), 1u);
    EXPECT_TRUE(devices[i].acks[0].accepted);
  }
  EXPECT_EQ(stats.participants[protocol::ParticipantOutcome::kCompleted], 4);
}

TEST_F(Harness, StragglerReportAfterGoalGetsRejected) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  const ActorId master = SpawnMaster(SmallRound(), probe);

  std::vector<FakeDevice> devices(6);
  MsgDevicesForwarded forwarded;
  for (std::size_t i = 0; i < 6; ++i) {
    devices[i].id = DeviceId{i + 1};
    forwarded.links.push_back(devices[i].Link());
  }
  system.Send(ActorId{}, master, std::move(forwarded));
  queue.RunFor(Seconds(1));
  for (std::size_t i = 0; i < 4; ++i) {
    system.Send(ActorId{}, devices[i].assignments[0].aggregator,
                ReportFor(devices[i], devices[i].assignments[0]));
  }
  queue.RunFor(Seconds(1));
  ASSERT_EQ(system.Get<ProbeActor>(probe)->completes.size(), 1u);

  // Device 4 reports late: '#'.
  system.Send(ActorId{}, devices[4].assignments[0].aggregator,
              ReportFor(devices[4], devices[4].assignments[0]));
  queue.RunFor(Seconds(1));
  ASSERT_EQ(devices[4].acks.size(), 1u);
  EXPECT_FALSE(devices[4].acks[0].accepted);
  EXPECT_EQ(stats.participants[protocol::ParticipantOutcome::kRejectedLate],
            1);
  // The round result did not change.
  EXPECT_EQ(system.Get<ProbeActor>(probe)->completes.size(), 1u);
}

TEST_F(Harness, ExcessForwardedDevicesAreTurnedAway) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  protocol::RoundConfig config = SmallRound();  // target 6
  const ActorId master = SpawnMaster(config, probe);

  std::vector<FakeDevice> devices(9);
  MsgDevicesForwarded forwarded;
  for (std::size_t i = 0; i < 9; ++i) {
    devices[i].id = DeviceId{i + 1};
    forwarded.links.push_back(devices[i].Link());
  }
  system.Send(ActorId{}, master, std::move(forwarded));
  queue.RunFor(Seconds(1));
  std::size_t assigned = 0, rejected = 0;
  for (auto& d : devices) {
    assigned += d.assignments.size();
    rejected += d.rejections.size();
  }
  EXPECT_EQ(assigned, 6u);
  EXPECT_EQ(rejected, 3u);
}

TEST_F(Harness, SelectionTimeoutBelowMinimumAbandons) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  const ActorId master = SpawnMaster(SmallRound(), probe);  // min 3

  std::vector<FakeDevice> devices(2);
  MsgDevicesForwarded forwarded;
  for (std::size_t i = 0; i < 2; ++i) {
    devices[i].id = DeviceId{i + 1};
    forwarded.links.push_back(devices[i].Link());
  }
  system.Send(ActorId{}, master, std::move(forwarded));
  queue.RunFor(Minutes(3));  // selection timeout = 2min

  auto* p = system.Get<ProbeActor>(probe);
  ASSERT_EQ(p->abandons.size(), 1u);
  EXPECT_EQ(p->abandons[0].outcome,
            protocol::RoundOutcome::kAbandonedSelection);
  // The held devices were released with retry windows.
  EXPECT_EQ(devices[0].rejections.size() + devices[1].rejections.size(), 2u);
}

TEST_F(Harness, SelectionTimeoutAboveMinimumProceeds) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  const ActorId master = SpawnMaster(SmallRound(), probe);  // min 3, target 6

  std::vector<FakeDevice> devices(4);
  MsgDevicesForwarded forwarded;
  for (std::size_t i = 0; i < 4; ++i) {
    devices[i].id = DeviceId{i + 1};
    forwarded.links.push_back(devices[i].Link());
  }
  system.Send(ActorId{}, master, std::move(forwarded));
  queue.RunFor(Minutes(3));  // below target but above minimum at timeout
  std::size_t assigned = 0;
  for (auto& d : devices) assigned += d.assignments.size();
  EXPECT_EQ(assigned, 4u);

  for (std::size_t i = 0; i < 4; ++i) {
    system.Send(ActorId{}, devices[i].assignments[0].aggregator,
                ReportFor(devices[i], devices[i].assignments[0]));
  }
  queue.RunFor(Seconds(1));
  EXPECT_EQ(system.Get<ProbeActor>(probe)->completes.size(), 1u);
}

TEST_F(Harness, ReportingDeadlineBelowMinimumAbandons) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  const ActorId master = SpawnMaster(SmallRound(), probe);

  std::vector<FakeDevice> devices(6);
  MsgDevicesForwarded forwarded;
  for (std::size_t i = 0; i < 6; ++i) {
    devices[i].id = DeviceId{i + 1};
    forwarded.links.push_back(devices[i].Link());
  }
  system.Send(ActorId{}, master, std::move(forwarded));
  queue.RunFor(Seconds(1));
  // Only 2 report (< min 3); everyone else drops silently.
  for (std::size_t i = 0; i < 2; ++i) {
    system.Send(ActorId{}, devices[i].assignments[0].aggregator,
                ReportFor(devices[i], devices[i].assignments[0]));
  }
  queue.RunFor(Minutes(11));  // reporting deadline 10min
  auto* p = system.Get<ProbeActor>(probe);
  ASSERT_EQ(p->abandons.size(), 1u);
  EXPECT_EQ(p->abandons[0].outcome,
            protocol::RoundOutcome::kAbandonedReporting);
}

TEST_F(Harness, CorruptUpdateCountsAsDrop) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  const ActorId master = SpawnMaster(SmallRound(), probe);

  std::vector<FakeDevice> devices(6);
  MsgDevicesForwarded forwarded;
  for (std::size_t i = 0; i < 6; ++i) {
    devices[i].id = DeviceId{i + 1};
    forwarded.links.push_back(devices[i].Link());
  }
  system.Send(ActorId{}, master, std::move(forwarded));
  queue.RunFor(Seconds(1));

  DeviceReport bad = ReportFor(devices[0], devices[0].assignments[0]);
  bad.update_bytes[10] ^= 0xFF;  // CRC now fails
  system.Send(ActorId{}, devices[0].assignments[0].aggregator, bad);
  queue.RunFor(Seconds(1));
  ASSERT_EQ(devices[0].acks.size(), 1u);
  EXPECT_FALSE(devices[0].acks[0].accepted);
  EXPECT_EQ(stats.participants[protocol::ParticipantOutcome::kDropped], 1);
}

TEST_F(Harness, OldDeviceGetsLoweredPlanVersion) {
  // Use a v3 model so versioned plans exist.
  Rng model_rng(9);
  const graph::Model lm = graph::BuildNextWordModel(8, 2, 3, 4, model_rng);
  auto plans = plan::VersionedPlanSet::Generate(
      plan::MakeTrainingPlan(lm, "lm", {}, {}), 1);
  ASSERT_TRUE(plans.ok());
  model_ptr = std::make_shared<const Checkpoint>(lm.init_params);
  model_bytes = std::make_shared<const Bytes>(lm.init_params.Serialize());
  plan_bytes =
      std::make_shared<const PlanBytesByVersion>(SerializePlanSet(*plans));

  const ActorId probe = system.Spawn<ProbeActor>("probe");
  protocol::RoundConfig config = SmallRound();
  config.goal_count = 2;
  config.overselection = 1.0;
  const ActorId master = SpawnMaster(config, probe);

  FakeDevice old_dev;
  old_dev.id = DeviceId{1};
  old_dev.runtime_version = 1;
  FakeDevice new_dev;
  new_dev.id = DeviceId{2};
  new_dev.runtime_version = 3;
  MsgDevicesForwarded forwarded;
  forwarded.links.push_back(old_dev.Link());
  forwarded.links.push_back(new_dev.Link());
  system.Send(ActorId{}, master, std::move(forwarded));
  queue.RunFor(Seconds(1));

  ASSERT_EQ(old_dev.assignments.size(), 1u);
  ASSERT_EQ(new_dev.assignments.size(), 1u);
  const auto old_plan =
      plan::FLPlan::Deserialize(*old_dev.assignments[0].plan_bytes);
  const auto new_plan =
      plan::FLPlan::Deserialize(*new_dev.assignments[0].plan_bytes);
  ASSERT_TRUE(old_plan.ok() && new_plan.ok());
  EXPECT_EQ(old_plan->min_runtime_version, 1u);
  EXPECT_EQ(new_plan->min_runtime_version, 3u);
}

// ---------------------------------------------------------------------------
// Failure modes (Sec. 4.4) at the actor layer.
// ---------------------------------------------------------------------------

TEST_F(Harness, AggregatorCrashLosesOnlyItsCohort) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  protocol::RoundConfig config = SmallRound();
  config.goal_count = 4;
  config.min_reporting_fraction = 0.5;  // min 2
  config.devices_per_aggregator = 3;    // 2 aggregators for 6 devices
  const ActorId master = SpawnMaster(config, probe);

  std::vector<FakeDevice> devices(6);
  MsgDevicesForwarded forwarded;
  for (std::size_t i = 0; i < 6; ++i) {
    devices[i].id = DeviceId{i + 1};
    forwarded.links.push_back(devices[i].Link());
  }
  system.Send(ActorId{}, master, std::move(forwarded));
  queue.RunFor(Seconds(1));

  // Two aggregators exist. Device 0's report is accepted, then the first
  // cohort's aggregator crashes before it reports its sums.
  const ActorId agg0 = devices[0].assignments[0].aggregator;
  const ActorId agg1 = devices[3].assignments[0].aggregator;
  ASSERT_NE(agg0, agg1);
  system.Send(ActorId{}, agg0,
              ReportFor(devices[0], devices[0].assignments[0]));
  queue.RunFor(Seconds(1));
  ASSERT_EQ(devices[0].acks.size(), 1u);
  EXPECT_TRUE(devices[0].acks[0].accepted);
  system.Crash(agg0);
  queue.RunFor(Seconds(1));

  // The second cohort reports; round completes from its updates alone once
  // the reporting deadline flushes.
  for (std::size_t i = 3; i < 6; ++i) {
    system.Send(ActorId{}, agg1,
                ReportFor(devices[i], devices[i].assignments[0]));
  }
  queue.RunFor(Minutes(11));
  auto* p = system.Get<ProbeActor>(probe);
  ASSERT_EQ(p->completes.size(), 1u);
  // The crashed cohort's sums are lost: only the second cohort contributes.
  EXPECT_EQ(p->completes[0].partial.contributors, 3u);
  // Its accepted report's metrics reached the master with the progress
  // message, so they stay in the round's summary (metrics ride progress,
  // not the partial aggregate).
  EXPECT_EQ(p->completes[0].metrics.Get("loss").count, 4u);
  // And the loss is not silent.
  EXPECT_NE(std::find_if(stats.errors.begin(), stats.errors.end(),
                         [](const std::string& e) {
                           return e.find("cohort lost") != std::string::npos;
                         }),
            stats.errors.end());
}

TEST_F(Harness, MasterCrashReportedToCoordinatorViaWatch) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  const ActorId master = SpawnMaster(SmallRound(), probe);
  system.Watch(master, probe);
  system.Crash(master);
  queue.RunFor(Seconds(1));
  // Probe observed the death (the real coordinator restarts the round).
  // ProbeActor doesn't track deaths; liveness is the observable here.
  EXPECT_FALSE(system.IsAlive(master));
}

}  // namespace
}  // namespace fl::server

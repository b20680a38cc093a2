// End-to-end instrumentation: with telemetry on, the fleet simulator must
// emit round/phase spans plus accept/reject/outcome/traffic metrics, and
// the parallel round engine must emit sim_round/client_update spans plus
// the thread-pool queue-wait histogram — the PR's acceptance criteria.
#include <gtest/gtest.h>

#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/data/text.h"
#include "src/graph/model_zoo.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/tools/simulation_runner.h"

namespace fl {
namespace {

class InstrumentationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetEnabled(true);
    telemetry::MetricsRegistry::Global().ResetValuesForTest();
    telemetry::Tracer::Global().Clear();
  }
  void TearDown() override {
    telemetry::Tracer::Global().Clear();
    telemetry::SetEnabled(false);
  }
};

std::uint64_t CounterValue(const telemetry::MetricsSnapshot& snap,
                           std::string_view name) {
  const auto* c = snap.FindCounter(name);
  return c != nullptr ? c->value : 0;
}

std::size_t CountSpans(const std::vector<telemetry::SpanRecord>& spans,
                       std::string_view name) {
  std::size_t n = 0;
  for (const auto& s : spans) {
    if (s.name == name) ++n;
  }
  return n;
}

TEST_F(InstrumentationTest, FleetSimEmitsRoundPhaseSpansAndServerMetrics) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  core::FLSystemConfig config;
  config.seed = 7;
  config.population.device_count = 200;
  config.population.mean_examples_per_sec = 200;
  config.selector_count = 2;
  config.coordinator_tick = Seconds(10);
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);

  protocol::RoundConfig rc;
  rc.goal_count = 10;
  rc.overselection = 1.3;
  rc.selection_timeout = Minutes(4);
  rc.min_selection_fraction = 0.5;
  rc.reporting_deadline = Minutes(8);
  rc.min_reporting_fraction = 0.5;
  rc.devices_per_aggregator = 8;

  Rng model_rng(1);
  core::FLSystem system(config);
  system.AddTrainingTask("train",
                         graph::BuildLogisticRegression(8, 4, model_rng), {},
                         {}, rc, Seconds(30));
  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
  system.ProvisionData([blobs](const sim::DeviceProfile& profile,
                               core::DeviceAgent& agent, Rng&, SimTime now) {
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 40, now));
  });
  system.Start();
  system.RunFor(Hours(2));

  ASSERT_GT(system.stats().rounds_committed(), 0u);

  // Spans: every committed/abandoned round opened a round span with its
  // Sec. 2.2 phase children on the sim clock.
  const auto spans = telemetry::Tracer::Global().Completed();
  const std::size_t rounds = CountSpans(spans, "round");
  EXPECT_GT(rounds, 0u);
  EXPECT_GE(CountSpans(spans, "phase:selection"), rounds);
  EXPECT_GT(CountSpans(spans, "phase:configuration"), 0u);
  EXPECT_GT(CountSpans(spans, "phase:reporting"), 0u);
  bool committed_attr = false;
  for (const auto& s : spans) {
    if (s.name != "round") continue;
    EXPECT_GT(s.sim_end.millis, s.sim_start.millis);
    for (const auto& [k, v] : s.attrs) {
      if (k == "outcome" && v == "committed") committed_attr = true;
    }
  }
  EXPECT_TRUE(committed_attr);

  // The export is non-empty, structurally a sim-clock trace.
  const std::string json = telemetry::ChromeTraceJson(spans);
  EXPECT_NE(json.find("\"name\":\"round\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase:selection\""), std::string::npos);

  // Metrics: the ServerMetrics reducer saw every lifecycle event.
  const auto snap = telemetry::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterValue(snap, "fl_server_rounds_committed_total"),
            system.stats().rounds_committed());
  EXPECT_GT(CounterValue(snap, "fl_server_devices_accepted_total"), 0u);
  EXPECT_GT(CounterValue(snap, "fl_server_upload_bytes_total"), 0u);
  EXPECT_GT(CounterValue(snap, "fl_server_download_bytes_total"), 0u);
  EXPECT_GT(CounterValue(snap, "fl_server_participants_completed_total"),
            0u);
  const auto* contributors =
      snap.FindHistogram("fl_server_round_contributors");
  ASSERT_NE(contributors, nullptr);
  EXPECT_EQ(contributors->count, system.stats().rounds_committed());

  // Actor-runtime metrics: dispatch timers per actor type, mailbox depths.
  EXPECT_GT(CounterValue(snap, "fl_actor_messages_total_coordinator"), 0u);
  EXPECT_GT(CounterValue(snap, "fl_actor_messages_total_selector"), 0u);
  EXPECT_GT(CounterValue(snap, "fl_actor_messages_total_master"), 0u);
  const auto* mailbox = snap.FindHistogram("fl_actor_mailbox_depth");
  ASSERT_NE(mailbox, nullptr);
  EXPECT_GT(mailbox->count, 0u);
  const auto* dispatch =
      snap.FindHistogram("fl_actor_dispatch_micros_coordinator");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_GT(dispatch->count, 0u);

  // FleetStats reduces the same events.
  EXPECT_GT(system.stats().total_upload_bytes(), 0u);
}

TEST_F(InstrumentationTest, ParallelEngineEmitsSpansAndQueueWait) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  data::TextWorkloadParams text_params;
  text_params.vocab_size = 32;
  text_params.context = 2;
  data::TextWorkload corpus(text_params, 11);
  std::vector<std::vector<data::Example>> per_user;
  for (std::uint64_t u = 0; u < 20; ++u) {
    per_user.push_back(corpus.UserExamples(u, 10, SimTime{0}));
  }
  Rng model_rng(3);
  const graph::Model model = graph::BuildNextWordModel(
      text_params.vocab_size, text_params.context, 8, 16, model_rng);
  plan::TrainingHyperparams hyper;
  hyper.batch_size = 16;
  hyper.epochs = 1;
  const plan::FLPlan plan = plan::MakeTrainingPlan(model, "lm", hyper, {});

  tools::SimulationConfig config;
  config.clients_per_round = 10;
  config.rounds = 2;
  config.eval_every = 0;
  config.seed = 5;
  config.threads = 2;
  ASSERT_TRUE(
      tools::RunFedAvgSimulation(plan, model.init_params, per_user, {}, config)
          .ok());

  const auto spans = telemetry::Tracer::Global().Completed();
  EXPECT_EQ(CountSpans(spans, "sim_round"), 2u);
  const std::size_t updates = CountSpans(spans, "client_update");
  EXPECT_GE(updates, 20u);
  // Every client_update parents on a sim_round span.
  for (const auto& s : spans) {
    if (s.name == "client_update") EXPECT_NE(s.parent, 0u);
  }

  const auto snap = telemetry::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterValue(snap, "fl_sim_client_updates_total"), updates);
  const auto* wait = snap.FindHistogram("fl_sim_pool_queue_wait_micros");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->count, 0u);
}

TEST_F(InstrumentationTest, DisabledRunRecordsNothing) {
  telemetry::SetEnabled(false);
  data::TextWorkloadParams text_params;
  text_params.vocab_size = 32;
  text_params.context = 2;
  data::TextWorkload corpus(text_params, 11);
  std::vector<std::vector<data::Example>> per_user;
  for (std::uint64_t u = 0; u < 10; ++u) {
    per_user.push_back(corpus.UserExamples(u, 10, SimTime{0}));
  }
  Rng model_rng(3);
  const graph::Model model = graph::BuildNextWordModel(
      text_params.vocab_size, text_params.context, 8, 16, model_rng);
  plan::TrainingHyperparams hyper;
  hyper.batch_size = 16;
  hyper.epochs = 1;
  const plan::FLPlan plan = plan::MakeTrainingPlan(model, "lm", hyper, {});
  tools::SimulationConfig config;
  config.clients_per_round = 5;
  config.rounds = 1;
  config.eval_every = 0;
  config.seed = 5;
  config.threads = 2;
  ASSERT_TRUE(
      tools::RunFedAvgSimulation(plan, model.init_params, per_user, {}, config)
          .ok());
  EXPECT_TRUE(telemetry::Tracer::Global().Completed().empty());
  EXPECT_EQ(CounterValue(telemetry::MetricsRegistry::Global().Snapshot(),
                         "fl_sim_client_updates_total"),
            0u);
  telemetry::SetEnabled(true);
}

}  // namespace
}  // namespace fl

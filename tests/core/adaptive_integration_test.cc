// Integration test for adaptive round-window tuning (Sec. 11) over the full
// simulator: a deliberately under-provisioned configuration self-corrects.
// Every run is journaled and replayed through the offline analyzer
// (ReplayedJournal).
#include <gtest/gtest.h>

#include "src/core/fl_system.h"
#include "tests/core/journal_replay.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"

namespace fl::core {
namespace {

std::unique_ptr<FLSystem> Deploy(bool adaptive, std::uint64_t seed) {
  FLSystemConfig config;
  config.seed = seed;
  config.population.device_count = 250;
  config.population.mean_examples_per_sec = 10;  // minutes-long training
  config.population.mean_eligible_day = Minutes(6);  // harsh interruptions
  config.selector_count = 2;
  config.pace.rendezvous_period = Minutes(3);
  config.stats_bucket = Minutes(10);
  auto system = std::make_unique<FLSystem>(std::move(config));

  Rng rng(1);
  const graph::Model model = graph::BuildLogisticRegression(8, 4, rng);
  protocol::RoundConfig rc;
  rc.goal_count = 10;
  rc.overselection = 1.05;            // too little headroom on purpose
  rc.min_reporting_fraction = 0.9;
  rc.reporting_deadline = Minutes(5);  // too tight on purpose
  rc.selection_timeout = Minutes(4);
  rc.devices_per_aggregator = 8;
  system->AddTrainingTask("train", model, {}, {}, rc, Seconds(30));

  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
  system->ProvisionData([blobs](const sim::DeviceProfile& profile,
                                DeviceAgent& agent, Rng&, SimTime now) {
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 60, now));
  });
  if (adaptive) system->EnableAdaptiveWindows();
  system->Start();
  return system;
}

TEST(AdaptiveIntegrationTest, ControllerPushesConfigIntoCoordinator) {
  const ReplayedJournal journal;
  auto system = Deploy(true, 91);
  system->RunFor(Hours(6));
  auto* coord = system->actor_system().Get<server::CoordinatorActor>(
      system->coordinator_id());
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(system->adaptive_controller(), nullptr);
  EXPECT_GT(system->adaptive_controller()->observations(), 0u);
  // The tuned configuration reached the coordinator: at least one window
  // moved off its (deliberately misconfigured) initial value.
  const protocol::RoundConfig& tuned = coord->task_round_config(0);
  const bool moved = tuned.overselection != 1.05 ||
                     tuned.reporting_deadline != Minutes(5) ||
                     tuned.selection_timeout != Minutes(4);
  EXPECT_TRUE(moved);
}

TEST(AdaptiveIntegrationTest, AdaptiveOutperformsStaticUnderStress) {
  // One journal per fleet: both run the same seed, so their records would
  // collide in a shared one. Returns (commit rate, rounds committed).
  const auto run = [](bool adaptive) {
    const ReplayedJournal journal;
    auto system = Deploy(adaptive, 93);
    system->RunFor(Hours(8));
    const std::size_t committed = system->stats().rounds_committed();
    const double total = static_cast<double>(
        committed + system->stats().rounds_abandoned());
    return std::make_pair(total == 0 ? 0.0 : committed / total, committed);
  };
  const auto static_run = run(false);
  const auto adaptive_run = run(true);
  // Adaptive tuning must not be worse, and it must keep committing rounds.
  EXPECT_GE(adaptive_run.first + 0.05, static_run.first);
  EXPECT_GT(adaptive_run.second, 0u);
}

TEST(AdaptiveIntegrationTest, StaysInertWhenNotEnabled) {
  const ReplayedJournal journal;
  auto system = Deploy(false, 95);
  system->RunFor(Hours(2));
  EXPECT_EQ(system->adaptive_controller(), nullptr);
  auto* coord = system->actor_system().Get<server::CoordinatorActor>(
      system->coordinator_id());
  ASSERT_NE(coord, nullptr);
  EXPECT_DOUBLE_EQ(coord->task_round_config(0).overselection, 1.05);
}

}  // namespace
}  // namespace fl::core

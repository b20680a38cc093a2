// End-to-end tests of the whole deployment: fleet simulator + actor server.
#include "src/core/fl_system.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>

#include "src/analytics/journal.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"

namespace fl::core {
namespace {

FLSystemConfig SmallConfig(std::uint64_t seed = 42) {
  FLSystemConfig config;
  config.seed = seed;
  config.population.device_count = 200;
  config.population.mean_examples_per_sec = 200;  // fast devices
  config.selector_count = 3;
  config.coordinator_tick = Seconds(10);
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);
  return config;
}

protocol::RoundConfig SmallRound() {
  protocol::RoundConfig rc;
  rc.goal_count = 10;
  rc.overselection = 1.3;
  rc.selection_timeout = Minutes(4);
  rc.min_selection_fraction = 0.5;
  rc.reporting_deadline = Minutes(8);
  rc.min_reporting_fraction = 0.5;
  rc.devices_per_aggregator = 8;
  return rc;
}

graph::Model TestModel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return graph::BuildLogisticRegression(8, 4, rng);
}

FLSystem::DataProvisioner BlobsProvisioner(std::uint64_t seed = 5) {
  auto blobs =
      std::make_shared<data::BlobsWorkload>(
          data::BlobsParams{.classes = 4, .feature_dim = 8}, seed);
  return [blobs](const sim::DeviceProfile& profile, DeviceAgent& agent,
                 Rng& rng, SimTime now) {
    (void)rng;
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 40, now));
  };
}

TEST(FLSystemTest, CommitsRoundsAndImprovesModel) {
  FLSystem system(SmallConfig());
  const graph::Model model = TestModel();
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.3f;
  hyper.epochs = 2;
  system.AddTrainingTask("train", model, hyper, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(3));

  const FleetStats& stats = system.stats();
  EXPECT_GE(stats.rounds_committed(), 3u) << "abandoned="
                                          << stats.rounds_abandoned();
  EXPECT_GT(system.model_store().version(), 0u);

  // The committed model classifies the blob mixture far above chance.
  data::BlobsWorkload blobs({.classes = 4, .feature_dim = 8}, 5);
  const auto eval = blobs.GlobalExamples(77, 300, SimTime{0});
  const plan::FLPlan eval_plan = plan::MakeEvaluationPlan(model, "e", {});
  const auto metrics = fedavg::RunClientEvaluation(
      eval_plan.device, system.model_store().Latest(), eval, 3);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->mean_accuracy, 0.5);
}

TEST(FLSystemTest, SessionShapesMatchPaperDistribution) {
  FLSystem system(SmallConfig(7));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(4));

  const auto& shapes = system.stats().shapes();
  ASSERT_GT(shapes.total(), 50u);
  // Successful sessions dominate (Table 1: 75%).
  EXPECT_GT(shapes.Fraction("-v[]+^"), 0.4);
  // Rejected/late and interrupted sessions both occur.
  const double rejected = shapes.Fraction("-v[]+#");
  EXPECT_GT(rejected, 0.0);
  // Completion ordering: success > late-rejection.
  EXPECT_GT(shapes.Fraction("-v[]+^"), rejected);
}

TEST(FLSystemTest, ParticipantAccountingConsistent) {
  FLSystem system(SmallConfig(9));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(2));

  const FleetStats& stats = system.stats();
  std::size_t completed = 0, aborted = 0, dropped = 0;
  for (const auto& [round, counts] : stats.per_round()) {
    completed += counts.completed;
    aborted += counts.aborted;
    dropped += counts.dropped;
  }
  EXPECT_GT(completed, 0u);
  // Over-selection (130%) means aborted/late work exists.
  EXPECT_GT(aborted + dropped, 0u);
  // Server accepted at least as many devices as reports committed.
  EXPECT_GE(stats.accepted(), completed);
}

TEST(FLSystemTest, TrafficIsDownloadDominated) {
  FLSystem system(SmallConfig(11));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(2));
  const FleetStats& stats = system.stats();
  ASSERT_GT(stats.total_download_bytes(), 0u);
  ASSERT_GT(stats.total_upload_bytes(), 0u);
  // Fig. 9: "download from server dominates upload" — each device gets plan
  // + model but sends only an update, and over-selected devices download
  // without a surviving upload.
  EXPECT_GT(stats.total_download_bytes(), stats.total_upload_bytes());
}

TEST(FLSystemTest, CompressionShrinksUploads) {
  protocol::RoundConfig compressed_round = SmallRound();
  compressed_round.codec.quant_bits = 8;

  auto run = [&](const protocol::RoundConfig& round) {
    FLSystem system(SmallConfig(13));
    system.AddTrainingTask("train", TestModel(), {}, {}, round, Seconds(30));
    system.ProvisionData(BlobsProvisioner());
    system.Start();
    system.RunFor(Hours(2));
    return std::pair<std::uint64_t, std::size_t>(
        system.stats().total_upload_bytes(),
        system.stats().rounds_committed());
  };
  const auto [raw_bytes, raw_rounds] = run(SmallRound());
  const auto [comp_bytes, comp_rounds] = run(compressed_round);
  ASSERT_GT(raw_rounds, 0u);
  ASSERT_GT(comp_rounds, 0u);
  // Normalize per committed round to compare fairly.
  EXPECT_LT(static_cast<double>(comp_bytes) / comp_rounds,
            static_cast<double>(raw_bytes) / raw_rounds);
}

TEST(FLSystemTest, DeterministicReplay) {
  auto run = [] {
    FLSystem system(SmallConfig(21));
    system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                           Seconds(30));
    system.ProvisionData(BlobsProvisioner());
    system.Start();
    system.RunFor(Hours(1));
    return std::tuple<std::size_t, std::uint64_t, std::uint64_t>(
        system.stats().rounds_committed(), system.stats().accepted(),
        system.stats().total_download_bytes());
  };
  EXPECT_EQ(run(), run());
}

TEST(FLSystemTest, NonGenuineDevicesExcluded) {
  FLSystemConfig config = SmallConfig(23);
  config.population.non_genuine_fraction = 0.3;
  FLSystem system(std::move(config));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(2));
  // Attestation failures were recorded and rounds still commit.
  EXPECT_GT(system.frontend().attestation_failures(), 0u);
  EXPECT_GT(system.stats().rounds_committed(), 0u);
}

// Every example a store holds, oldest first.
std::vector<data::Example> Contents(const device::ExampleStore& store,
                                    SimTime now) {
  plan::ExampleSelector all;
  all.max_example_age = Hours(24 * 365);
  all.min_examples = 0;
  all.max_examples = std::numeric_limits<std::size_t>::max();
  auto newest_first = store.Query(all, now);
  EXPECT_TRUE(newest_first.ok());
  return {newest_first->rbegin(), newest_first->rend()};
}

TEST(FLSystemTest, ProvisioningRunsLazilyAtEachDevicesTrainingStart) {
  // The provisioner runs only for devices that start training: at each
  // training start, once for every due time (start, then each hourly
  // refresh) not yet run, with that due time as `now`.
  const std::string path = ::testing::TempDir() + "fl_system_lazy." +
                           std::to_string(::getpid()) + ".log";
  ASSERT_TRUE(analytics::Journal::Global().Open(path).ok());
  FLSystemConfig config = SmallConfig(31);
  config.data_refresh_period = Hours(1);
  FLSystem system(std::move(config));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
  // Every provisioner call, by device: its `now`, in call order.
  auto calls =
      std::make_shared<std::map<std::uint64_t, std::vector<SimTime>>>();
  system.ProvisionData([blobs, calls](const sim::DeviceProfile& profile,
                                      DeviceAgent& agent, Rng&, SimTime now) {
    (*calls)[profile.id.value].push_back(now);
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 40, now));
  });
  system.Start();
  EXPECT_TRUE(calls->empty());
  system.RunFor(Hours(5));
  analytics::Journal::Global().Close();

  // Each device's last training start, from the journal.
  std::map<std::uint64_t, SimTime> last_train_start;
  std::ifstream journal(path);
  std::string line;
  while (std::getline(journal, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto record = analytics::JournalRecord::Parse(line);
    ASSERT_TRUE(record.ok()) << line;
    if (record->event == analytics::JournalEventKind::kTrainStart) {
      last_train_start[record->device.value] = record->sim_time;
    }
  }
  journal.close();
  std::remove(path.c_str());
  ASSERT_GT(last_train_start.size(), 10u);

  std::size_t checked = 0;
  for (DeviceAgent* agent : system.devices()) {
    const std::uint64_t id = agent->profile().id.value;
    const auto trained = last_train_start.find(id);
    const auto ran = calls->find(id);
    if (trained == last_train_start.end()) {
      EXPECT_TRUE(ran == calls->end()) << "device " << id << " never trained";
      continue;
    }
    ASSERT_TRUE(ran != calls->end()) << "device " << id;
    const std::vector<SimTime>& due = ran->second;
    // Once per due time, in order, up to the last training start.
    for (std::size_t k = 0; k < due.size(); ++k) {
      EXPECT_EQ(due[k].millis, Hours(static_cast<std::int64_t>(k)).millis);
    }
    const std::int64_t n = static_cast<std::int64_t>(due.size());
    EXPECT_LE(Hours(n - 1).millis, trained->second.millis) << "device " << id;
    EXPECT_LE(trained->second.millis, Hours(n).millis) << "device " << id;

    // The store equals an eager replay of the same calls.
    device::InMemoryExampleStore eager("default", {});
    for (std::int64_t k = 0; k < n; ++k) {
      eager.AddBatch(blobs->UserExamples(id, 40, SimTime{Hours(k).millis}));
    }
    const device::InMemoryExampleStore& lazy =
        agent->GetOrCreateStore("default");
    ASSERT_EQ(lazy.size(), eager.size());
    const auto got = Contents(lazy, system.now());
    const auto want = Contents(eager, system.now());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].timestamp.millis, want[i].timestamp.millis);
      EXPECT_EQ(got[i].features, want[i].features);
      EXPECT_EQ(got[i].label, want[i].label);
    }
    ++checked;
  }
  EXPECT_EQ(checked, last_train_start.size());
  // Some device trained after a refresh, so replays ran more than one call.
  std::size_t most_calls = 0;
  for (const auto& [id, due] : *calls) {
    most_calls = std::max(most_calls, due.size());
  }
  EXPECT_GT(most_calls, 1u);
}

}  // namespace
}  // namespace fl::core

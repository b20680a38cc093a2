// Acceptance: in a seeded fleet-simulator run with the profiler on, at
// least 90% of CPU samples must carry a protocol phase tag — the whole
// point of the plane is "where do cycles go *per phase*", and untagged
// samples are attribution leaks.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analytics/profile.h"
#include "src/analytics/symbolizer.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"
#include "src/profiler/cpu_profiler.h"
#include "src/profiler/profiler.h"

namespace fl::core {
namespace {

FLSystemConfig Config() {
  FLSystemConfig config;
  config.seed = 73;
  config.population.device_count = 150;
  config.population.mean_examples_per_sec = 200;
  config.selector_count = 2;
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);
  return config;
}

protocol::RoundConfig Round() {
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

TEST(PhaseAttributionTest, AtLeast90PercentOfSamplesAreTagged) {
  if (!profiler::kCompiledIn) GTEST_SKIP() << "profiler compiled out";

  FLSystem system(Config());
  Rng rng(1);
  // Compute-heavy plan so the steady state is dominated by the protocol
  // work the tags cover, as in a real deployment.
  const graph::Model model = graph::BuildLogisticRegression(64, 8, rng);
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.1f;
  hyper.epochs = 4;
  system.AddTrainingTask("train", model, hyper, {}, Round(), Seconds(30));
  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = 8, .feature_dim = 64}, 5);
  system.ProvisionData([blobs](const sim::DeviceProfile& profile,
                               DeviceAgent& agent, Rng&, SimTime now) {
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 60, now));
  });
  // Below the pool cutoff: every sample comes from the event loop.
  ASSERT_EQ(system.compute_pool(), nullptr);
  system.Start();

  // Arm after Start so one-time setup (device creation, provisioning) does
  // not pollute the steady-state window the ring retains.
  profiler::SetEnabled(true);
  profiler::CpuProfiler& cpu = profiler::CpuProfiler::Global();
  cpu.Stop();
  cpu.ClearForTest();
  ASSERT_TRUE(cpu.Start(2000).ok());

  // The sample count depends on how much CPU time the kernel credits this
  // thread (about 40 samples per sim-hour alone, far fewer under a loaded
  // ctest -j), so run in slices until there are enough to judge.
  std::vector<profiler::CpuSample> samples;
  for (int hour = 0; hour < 12 && samples.size() < 150; ++hour) {
    system.RunFor(Hours(1));
    samples = cpu.CollectSince(0);
  }
  cpu.Stop();
  ASSERT_GT(system.stats().rounds_committed(), 0u);
  samples = cpu.CollectSince(0);
  ASSERT_GE(samples.size(), 50u) << "not enough samples to judge attribution";

  std::size_t tagged = 0;
  std::map<std::uint8_t, std::size_t> by_phase;
  for (const auto& s : samples) {
    if (s.phase != static_cast<std::uint8_t>(profiler::Phase::kNone) &&
        s.phase < static_cast<std::uint8_t>(profiler::Phase::kCount)) {
      ++tagged;
      ++by_phase[s.phase];
    }
  }
  const double fraction =
      static_cast<double>(tagged) / static_cast<double>(samples.size());
  std::string breakdown;
  for (const auto& [phase, count] : by_phase) {
    breakdown += std::string(profiler::PhaseName(
                     static_cast<profiler::Phase>(phase))) +
                 "=" + std::to_string(count) + " ";
  }
  EXPECT_GE(fraction, 0.9)
      << "only " << tagged << "/" << samples.size()
      << " samples tagged; by phase: " << breakdown;

  // Training must be the dominant phase for this workload.
  ASSERT_FALSE(by_phase.empty());
  std::uint8_t heaviest = 0;
  std::size_t heaviest_count = 0;
  for (const auto& [phase, count] : by_phase) {
    if (count > heaviest_count) {
      heaviest = phase;
      heaviest_count = count;
    }
  }
  EXPECT_EQ(heaviest, static_cast<std::uint8_t>(profiler::Phase::kTraining))
      << "by phase: " << breakdown;

  // The same attribution must survive symbolization + folding: the folded
  // profile's phase breakdown is what /profilez and fl_analyze report.
  analytics::Symbolizer symbolizer;
  const auto folded = analytics::FoldCpuSamples(samples, symbolizer);
  EXPECT_EQ(folded.total_weight(), samples.size());
  const auto by_name = folded.PhaseBreakdown();
  std::uint64_t untagged = 0;
  if (auto it = by_name.find("untagged"); it != by_name.end()) {
    untagged = it->second;
  }
  if (auto it = by_name.find("none"); it != by_name.end()) {
    untagged += it->second;
  }
  EXPECT_LE(static_cast<double>(untagged),
            0.1 * static_cast<double>(folded.total_weight()));

  cpu.ClearForTest();
  profiler::SetEnabled(false);
}

}  // namespace
}  // namespace fl::core

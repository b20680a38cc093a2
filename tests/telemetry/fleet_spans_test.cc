// Pins the spans a small plain fleet records with telemetry on: round and
// phase spans, and each device session with its training and upload spans.
// A span is pinned by its name, sim start and end, round/session/device ids,
// attributes, and its parent given by name and ids (span ids are not part of
// the contract).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/crc32.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"
#include "src/telemetry/trace.h"

namespace fl {
namespace {

using SpanIndex =
    std::unordered_map<std::uint64_t, const telemetry::SpanRecord*>;

// The round a span belongs to: the one it carries, else its `round`
// attribute, else its parent's.
std::uint64_t RoundOf(const telemetry::SpanRecord& s, const SpanIndex& by_id) {
  if (s.ctx_round != 0) return s.ctx_round;
  for (const auto& [k, v] : s.attrs) {
    if (k == "round") return std::stoull(v);
  }
  const auto it = by_id.find(s.parent);
  return it == by_id.end() ? 0 : RoundOf(*it->second, by_id);
}

std::string SpanIds(const telemetry::SpanRecord& s, const SpanIndex& by_id) {
  return s.name + "{r=" + std::to_string(RoundOf(s, by_id)) +
         " s=" + std::to_string(s.ctx_session) +
         " d=" + std::to_string(s.ctx_device) + "}";
}

// One line per completed span, in completion order.
std::vector<std::string> CanonicalSpans(
    const std::vector<telemetry::SpanRecord>& spans, const SpanIndex& by_id) {
  std::vector<std::string> lines;
  for (const auto& s : spans) {
    std::ostringstream line;
    line << SpanIds(s, by_id) << ' ' << s.sim_start.millis << ' ' << s.sim_end.millis
         << " parent=";
    if (s.parent == 0) {
      line << '-';
    } else if (const auto it = by_id.find(s.parent); it != by_id.end()) {
      line << SpanIds(*it->second, by_id);
    } else {
      line << '?';
    }
    for (const auto& [k, v] : s.attrs) line << ' ' << k << '=' << v;
    lines.push_back(line.str());
  }
  return lines;
}

class FleetSpansTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetEnabled(true);
    telemetry::Tracer::Global().Clear();
  }
  void TearDown() override {
    telemetry::Tracer::Global().Clear();
    telemetry::SetEnabled(false);
  }
};

TEST_F(FleetSpansTest, PlainFleetSpansArePinned) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  core::FLSystemConfig config;
  config.seed = 11;
  config.population.device_count = 30;
  config.population.mean_examples_per_sec = 200;
  config.selector_count = 2;
  config.coordinator_tick = Seconds(10);
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);

  protocol::RoundConfig rc;
  rc.goal_count = 8;
  rc.overselection = 1.3;
  rc.selection_timeout = Seconds(40);
  rc.min_selection_fraction = 0.5;
  rc.reporting_deadline = Millis(450);
  rc.min_reporting_fraction = 0.75;
  rc.devices_per_aggregator = 4;

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
  system.RunFor(Hours(1));

  const auto spans = telemetry::Tracer::Global().Completed();
  SpanIndex by_id;
  for (const auto& s : spans) by_id.emplace(s.id, &s);
  const std::vector<std::string> lines = CanonicalSpans(spans, by_id);
  std::map<std::string, std::size_t> by_name;
  std::string joined;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    ++by_name[spans[i].name];
    joined += lines[i];
    joined += '\n';
  }
  if (std::getenv("FL_PRINT_SPANS") != nullptr) std::cout << joined;

  // Every session hangs under its round's span, every training and upload
  // under its session's span, with the same ids.
  for (const auto& s : spans) {
    if (s.name != "device_session" && s.name != "device_train" &&
        s.name != "device_upload") {
      continue;
    }
    const auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << SpanIds(s, by_id);
    const telemetry::SpanRecord& p = *it->second;
    EXPECT_EQ(p.name, s.name == "device_session" ? "round" : "device_session");
    EXPECT_EQ(RoundOf(p, by_id), s.ctx_round);
    if (s.name != "device_session") {
      EXPECT_EQ(p.ctx_session, s.ctx_session);
    }
  }

  // 29 rounds (20 committed, 9 abandoned in reporting), 243 sessions.
  const std::map<std::string, std::size_t> expected_counts = {
      {"device_session", 243},     {"device_train", 243},
      {"device_upload", 243},      {"phase:configuration", 29},
      {"phase:reporting", 29},     {"phase:selection", 29},
      {"round", 29}};
  EXPECT_EQ(by_name, expected_counts);
  const std::uint32_t crc = Crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(joined.data()), joined.size()));
  EXPECT_EQ(crc, 0x4c00ded9u) << std::hex << crc;
  EXPECT_EQ(telemetry::Tracer::Global().open_spans(), 0u);
}

}  // namespace
}  // namespace fl

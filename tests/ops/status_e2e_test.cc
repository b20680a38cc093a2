// End-to-end: boot a small FLSystem with the ops plane on an ephemeral
// port, run simulated hours, and scrape every endpoint over real HTTP.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"
#include "src/ops/http.h"
#include "src/ops/json.h"
#include "src/telemetry/telemetry.h"

namespace fl::core {
namespace {

FLSystemConfig SmallConfig() {
  FLSystemConfig config;
  config.seed = 11;
  config.population.device_count = 150;
  config.population.mean_examples_per_sec = 200;
  config.selector_count = 2;
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

void AddSmallTask(FLSystem* system) {
  Rng rng(1);
  const graph::Model model = graph::BuildLogisticRegression(8, 4, rng);
  system->AddTrainingTask("train", model, {}, {}, SmallRound(), Seconds(30));
  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
  system->ProvisionData([blobs](const sim::DeviceProfile& profile,
                                DeviceAgent& agent, Rng&, SimTime now) {
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 40, now));
  });
}

std::string Get(int port, const std::string& path, int* status) {
  std::string body;
  const Status s = ops::HttpGet("127.0.0.1", port, path, status, &body);
  EXPECT_TRUE(s.ok()) << path << ": " << s.message();
  return body;
}

TEST(StatusE2eTest, RunningSystemAnswersEveryEndpoint) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  FLSystemConfig config = SmallConfig();
  config.statusz_port = 0;  // ephemeral, loopback only
  FLSystem system(config);
  AddSmallTask(&system);
  system.Start();

  ASSERT_NE(system.ops_plane(), nullptr);
  ASSERT_TRUE(system.ops_plane()->running());
  const int port = system.ops_plane()->port();
  ASSERT_GT(port, 0);
  EXPECT_TRUE(system.round_ledger().enabled());

  // Enough sim time for committed rounds and many ops ticks.
  system.RunFor(Hours(2));
  ASSERT_GT(system.stats().rounds_committed(), 0u);

  int status = 0;

  // /metrics: non-empty Prometheus text with core series.
  const std::string metrics = Get(port, "/metrics", &status);
  EXPECT_EQ(status, 200);
  ASSERT_FALSE(metrics.empty());
  EXPECT_NE(metrics.find("fl_server_rounds_committed_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("fl_ops_health"), std::string::npos);

  // /statusz: valid JSON with build info, clocks, counters, windows.
  const std::string statusz = Get(port, "/statusz", &status);
  EXPECT_EQ(status, 200);
  const auto parsed = ops::JsonValue::Parse(statusz);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const ops::JsonValue& root = parsed.value();
  EXPECT_EQ(root.FindPath("population")->AsString(), "population/default");
  ASSERT_NE(root.FindPath("build.hardware_concurrency"), nullptr);
  EXPECT_EQ(root.FindPath("sim_time_ms")->AsInt(), system.now().millis);
  EXPECT_GT(root.FindPath("samples")->AsInt(), 0);
  ASSERT_NE(root.FindPath("health.healthy"), nullptr);
  EXPECT_GT(root.FindPath("round_totals.rounds_committed")->AsInt(), 0);
  ASSERT_NE(root.FindPath("windows.commit_per_10m"), nullptr);
  const ops::JsonValue* series =
      root.FindPath("series.fl_server_rounds_committed_total");
  ASSERT_NE(series, nullptr);
  EXPECT_GT(series->Find("points")->size(), 0u);

  // /statusz?format=html: human page.
  const std::string html = Get(port, "/statusz?format=html", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(html.find("<html"), std::string::npos);

  // /rounds: totals + per-round records, newest first, limit respected.
  const std::string rounds = Get(port, "/rounds?limit=5", &status);
  EXPECT_EQ(status, 200);
  const auto rparsed = ops::JsonValue::Parse(rounds);
  ASSERT_TRUE(rparsed.ok());
  const ops::JsonValue* list = rparsed.value().Find("rounds");
  ASSERT_NE(list, nullptr);
  ASSERT_GT(list->size(), 0u);
  ASSERT_LE(list->size(), 5u);
  EXPECT_NE((*list)[0].Find("outcome"), nullptr);

  // /healthz: healthy fleet -> 200 with a JSON report.
  const std::string healthz = Get(port, "/healthz", &status);
  EXPECT_EQ(status, 200);
  const auto hparsed = ops::JsonValue::Parse(healthz);
  ASSERT_TRUE(hparsed.ok());
  EXPECT_TRUE(hparsed.value().Find("healthy")->AsBool(false));

  // /tracez: span summaries (may be empty early, but must be valid JSON).
  const std::string tracez = Get(port, "/tracez", &status);
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(ops::JsonValue::Parse(tracez).ok());

  // Root page links the endpoints.
  const std::string index = Get(port, "/", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(index.find("/statusz"), std::string::npos);

  EXPECT_GE(system.ops_plane()->server().http().requests_served(), 7u);
}

TEST(StatusE2eTest, HealthzGoesUnhealthyWhenPolicyViolated) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  FLSystemConfig config = SmallConfig();
  config.statusz_port = 0;
  // Impossible SLO: demand more commits per hour than the fleet can do.
  config.health_policy.min_commit_per_hour = 1e9;
  config.health_policy.min_rounds_for_ratio = 1;
  FLSystem system(config);
  AddSmallTask(&system);
  system.Start();
  ASSERT_NE(system.ops_plane(), nullptr);
  system.RunFor(Hours(2));
  ASSERT_GT(system.stats().rounds_committed(), 0u);

  int status = 0;
  const std::string body =
      Get(system.ops_plane()->port(), "/healthz", &status);
  EXPECT_EQ(status, 503);
  const auto parsed = ops::JsonValue::Parse(body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().Find("healthy")->AsBool(true));
}

TEST(StatusE2eTest, HealthzGoesUnhealthyWhenTheSimStopsTicking) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  FLSystemConfig config = SmallConfig();
  config.statusz_port = 0;
  config.health_policy.max_sample_staleness_wall_ms = 100;
  FLSystem system(config);
  AddSmallTask(&system);
  system.Start();
  ASSERT_NE(system.ops_plane(), nullptr);
  system.RunFor(Minutes(5));  // a few stats ticks

  // A wedged sim: nothing calls RunFor, so no tick refreshes the report.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int status = 0;
  const std::string body =
      Get(system.ops_plane()->port(), "/healthz", &status);
  EXPECT_EQ(status, 503);
  const auto parsed = ops::JsonValue::Parse(body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().Find("healthy")->AsBool(true));
  const ops::JsonValue* checks = parsed.value().Find("checks");
  ASSERT_NE(checks, nullptr);
  const ops::JsonValue* staleness = nullptr;
  for (std::size_t i = 0; i < checks->size(); ++i) {
    if ((*checks)[i].Find("name")->AsString() == "sample_staleness") {
      staleness = &(*checks)[i];
    }
  }
  ASSERT_NE(staleness, nullptr) << body;
  EXPECT_FALSE(staleness->Find("ok")->AsBool(true));
  EXPECT_GE(staleness->Find("observed")->AsDouble(), 100.0);
}

TEST(StatusE2eTest, PlaneOffByDefaultWithoutEnv) {
  // The test environment must not leak FL_STATUSZ into this case.
  ::unsetenv("FL_STATUSZ");
  FLSystemConfig config = SmallConfig();
  config.statusz_port = ops::StatuszPortFromEnv();
  ASSERT_FALSE(config.statusz_port.has_value());
  FLSystem system(config);
  AddSmallTask(&system);
  system.Start();
  EXPECT_EQ(system.ops_plane(), nullptr);
  EXPECT_FALSE(system.round_ledger().enabled());
  system.RunFor(Minutes(30));
  EXPECT_TRUE(system.round_ledger().Recent().empty());
}

TEST(StatusE2eTest, StatuszPortFromEnvParsing) {
  ::setenv("FL_STATUSZ", "0", 1);
  EXPECT_EQ(ops::StatuszPortFromEnv().value_or(-1), 0);
  ::setenv("FL_STATUSZ", "8080", 1);
  EXPECT_EQ(ops::StatuszPortFromEnv().value_or(-1), 8080);
  ::setenv("FL_STATUSZ", "", 1);
  EXPECT_FALSE(ops::StatuszPortFromEnv().has_value());
  ::setenv("FL_STATUSZ", "junk", 1);
  EXPECT_FALSE(ops::StatuszPortFromEnv().has_value());
  ::setenv("FL_STATUSZ", "70000", 1);
  EXPECT_FALSE(ops::StatuszPortFromEnv().has_value());
  ::setenv("FL_STATUSZ", "-1", 1);
  EXPECT_FALSE(ops::StatuszPortFromEnv().has_value());
  ::unsetenv("FL_STATUSZ");
  EXPECT_FALSE(ops::StatuszPortFromEnv().has_value());
}

}  // namespace
}  // namespace fl::core

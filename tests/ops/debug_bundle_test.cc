// Diagnostic bundles: capture writes the forensic file set, rate limiting
// and the hard cap suppress floods, and /debugz serves history + files with
// the filename whitelist enforced.
#include "src/ops/debug_bundle.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "src/analytics/lifecycle.h"
#include "src/ops/status_server.h"
#include "src/telemetry/flight_recorder.h"

namespace fl::ops {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text;
  char c;
  while (in.get(c)) text.push_back(c);
  return text;
}

bool Exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

DiagnosticBundler::Options TestOptions(const std::string& dir) {
  DiagnosticBundler::Options opts;
  opts.dir = dir;
  opts.min_interval_wall_us = 0;  // tests capture back-to-back
  return opts;
}

TEST(DebugBundleTest, DisabledWithoutDirectory) {
  DiagnosticBundler bundler(DiagnosticBundler::Options{}, {});
  EXPECT_FALSE(bundler.enabled());
  EXPECT_EQ(bundler.Capture("health", "x", SimTime{0}), "");
  EXPECT_EQ(bundler.captured(), 0u);
}

TEST(DebugBundleTest, CaptureWritesTheForensicFileSet) {
  const std::string dir = ::testing::TempDir() + "bundles_capture";
  telemetry::FlightRecorder::Global().Clear();
  telemetry::SetFlightRecorderEnabled(true);
  analytics::Emit(nullptr, {.t = SimTime{100},
                            .source = analytics::JournalSource::kMaster,
                            .kind = analytics::JournalEventKind::kRoundOpen,
                            .round = RoundId{1},
                            .a = 10,
                            .b = 6});

  DiagnosticBundler bundler(TestOptions(dir), {});
  ASSERT_TRUE(bundler.enabled());
  const std::string path =
      bundler.Capture("round_abandoned", "round=1", SimTime{123});
  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(Exists(path + "/manifest.json"));
  EXPECT_TRUE(Exists(path + "/flight_recorder.log"));
  EXPECT_TRUE(Exists(path + "/metrics.json"));
  // No ledger / health sources -> those files are omitted.
  EXPECT_FALSE(Exists(path + "/rounds.json"));
  EXPECT_FALSE(Exists(path + "/health.json"));

  const std::string manifest = ReadFileOrEmpty(path + "/manifest.json");
  EXPECT_NE(manifest.find("\"trigger\":\"round_abandoned\""),
            std::string::npos);
  EXPECT_NE(manifest.find("round=1"), std::string::npos);
  const std::string flight = ReadFileOrEmpty(path + "/flight_recorder.log");
  EXPECT_NE(flight.find("round_open"), std::string::npos);

  ASSERT_EQ(bundler.History().size(), 1u);
  EXPECT_EQ(bundler.History()[0].trigger, "round_abandoned");
  EXPECT_EQ(bundler.History()[0].sim_ms, 123);
  telemetry::FlightRecorder::Global().Clear();
}

TEST(DebugBundleTest, CooldownSuppressesBackToBackCaptures) {
  const std::string dir = ::testing::TempDir() + "bundles_cooldown";
  DiagnosticBundler::Options opts = TestOptions(dir);
  opts.min_interval_wall_us = 60'000'000;  // one minute
  DiagnosticBundler bundler(std::move(opts), {});
  EXPECT_NE(bundler.Capture("health", "a", SimTime{1}), "");
  EXPECT_EQ(bundler.Capture("health", "b", SimTime{2}), "");
  EXPECT_EQ(bundler.captured(), 1u);
  EXPECT_EQ(bundler.suppressed(), 1u);
}

TEST(DebugBundleTest, HardCapStopsTheFlood) {
  const std::string dir = ::testing::TempDir() + "bundles_cap";
  DiagnosticBundler::Options opts = TestOptions(dir);
  opts.max_bundles = 2;
  DiagnosticBundler bundler(std::move(opts), {});
  EXPECT_NE(bundler.Capture("a", "", SimTime{1}), "");
  EXPECT_NE(bundler.Capture("b", "", SimTime{2}), "");
  EXPECT_EQ(bundler.Capture("c", "", SimTime{3}), "");
  EXPECT_EQ(bundler.captured(), 2u);
  EXPECT_EQ(bundler.suppressed(), 1u);
}

TEST(DebugBundleTest, TriggerNamesAreSanitizedForDirectoryUse) {
  const std::string dir = ::testing::TempDir() + "bundles_sanitize";
  DiagnosticBundler bundler(TestOptions(dir), {});
  const std::string path =
      bundler.Capture("../evil/../../trigger", "", SimTime{0});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.find(".."), std::string::npos) << path;
  EXPECT_EQ(path.rfind(dir, 0), 0u) << path;  // stays under the root
}

TEST(DebugBundleTest, HistoryJsonListsBundles) {
  const std::string dir = ::testing::TempDir() + "bundles_json";
  DiagnosticBundler bundler(TestOptions(dir), {});
  bundler.Capture("health", "check_x", SimTime{5});
  const std::string json = bundler.HistoryJson();
  EXPECT_NE(json.find("\"captured\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trigger\":\"health\""), std::string::npos) << json;
}

TEST(DebugBundleTest, DebugzServesHistoryAndWhitelistedFilesOnly) {
  const std::string dir = ::testing::TempDir() + "bundles_debugz";
  DiagnosticBundler bundler(TestOptions(dir), {});
  const std::string path = bundler.Capture("health", "slow", SimTime{9});
  ASSERT_FALSE(path.empty());

  StatusServer::Sources sources;
  sources.bundler = &bundler;
  const StatusServer server(StatusServer::Options{}, sources);

  HttpRequest req;
  req.path = "/debugz";
  HttpResponse index = server.Debugz(req);
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("\"captured\":1"), std::string::npos);

  req.query = "bundle=1&file=manifest.json";
  HttpResponse file = server.Debugz(req);
  EXPECT_EQ(file.status, 200);
  EXPECT_NE(file.body.find("\"trigger\":\"health\""), std::string::npos);

  // Path traversal and unknown names are refused by the whitelist.
  req.query = "bundle=1&file=../../etc/passwd";
  EXPECT_EQ(server.Debugz(req).status, 404);
  req.query = "bundle=1&file=unknown.txt";
  EXPECT_EQ(server.Debugz(req).status, 404);
  req.query = "bundle=99&file=manifest.json";
  EXPECT_EQ(server.Debugz(req).status, 404);
  req.query = "bundle=junk&file=manifest.json";
  EXPECT_EQ(server.Debugz(req).status, 400);
}

TEST(DebugBundleTest, NullBundlerDegradesGracefully) {
  const StatusServer server(StatusServer::Options{}, StatusServer::Sources{});
  HttpRequest req;
  req.path = "/debugz";
  const HttpResponse resp = server.Debugz(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"enabled\":false"), std::string::npos);
}

TEST(DebugBundleTest, BundleDirFromEnvHonorsTheVariable) {
  ::unsetenv("FL_BUNDLE_DIR");
  EXPECT_EQ(BundleDirFromEnv(), "");
  ::setenv("FL_BUNDLE_DIR", "/tmp/fl-bundles", 1);
  EXPECT_EQ(BundleDirFromEnv(), "/tmp/fl-bundles");
  ::unsetenv("FL_BUNDLE_DIR");
}

}  // namespace
}  // namespace fl::ops

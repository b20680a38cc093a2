// Crash handler: the always-on evidence must survive abnormal exit. The
// fork tests run the death path for real — the child installs the handler,
// journals a few events, and abort()s; the parent asserts the flight dump
// was written and the journal tail was flushed.
#include "src/ops/crash_handler.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/analytics/journal.h"
#include "src/analytics/lifecycle.h"
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

TEST(CrashHandlerTest, WriteCrashDumpEmitsFlightRecords) {
  telemetry::FlightRecorder::Global().Clear();
  telemetry::SetFlightRecorderEnabled(true);
  analytics::Emit(nullptr, {.t = SimTime{42},
                            .kind = analytics::JournalEventKind::kTrainStart,
                            .device = DeviceId{5},
                            .session = SessionId{6},
                            .round = RoundId{7}});
  const std::string path = ::testing::TempDir() + "crash-direct.log";
  EXPECT_EQ(WriteCrashDump(path.c_str()), 1u);
  const std::string text = ReadFileOrEmpty(path);
  EXPECT_EQ(text.rfind("#fl-journal v1", 0), 0u);
  EXPECT_NE(text.find("train_start"), std::string::npos);
  telemetry::FlightRecorder::Global().Clear();
}

// Satellite: abnormal exit flushes the journal and dumps the recorder. The
// child process runs the real SIGABRT path end to end; the parent only
// inspects the files it left behind.
TEST(CrashHandlerTest, FatalSignalDumpsFlightRecorderAndFlushesJournal) {
  const std::string dir = ::testing::TempDir() + "crash_fork";
  ::mkdir(dir.c_str(), 0755);
  const std::string dump_path = dir + "/crash-flight.log";
  const std::string journal_path = dir + "/journal.log";
  ::unlink(dump_path.c_str());
  ::unlink(journal_path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child. Emit a few events (well under the 64 KiB journal flush
    // threshold, so only the crash-path flush can persist them), install
    // the handler, die.
    if (!analytics::Journal::Global().Open(journal_path).ok()) _exit(10);
    telemetry::SetFlightRecorderEnabled(true);
    analytics::Emit(nullptr, {.t = SimTime{1},
                              .kind = analytics::JournalEventKind::kCheckin,
                              .device = DeviceId{9},
                              .session = SessionId{90}});
    analytics::Emit(nullptr,
                    {.t = SimTime{2},
                     .kind = analytics::JournalEventKind::kPlanDownloaded,
                     .device = DeviceId{9},
                     .session = SessionId{90},
                     .round = RoundId{3}});
    analytics::Emit(nullptr, {.t = SimTime{3},
                              .kind = analytics::JournalEventKind::kTrainStart,
                              .device = DeviceId{9},
                              .session = SessionId{90},
                              .round = RoundId{3}});
    CrashHandlerOptions opts;
    opts.flight_dump_path = dump_path;
    if (!InstallCrashHandler(opts)) _exit(11);
    std::abort();
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // The handler re-raises with the default disposition, so the child still
  // dies of SIGABRT (wait status, core files, CI logs stay truthful).
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const std::string dump = ReadFileOrEmpty(dump_path);
  EXPECT_EQ(dump.rfind("#fl-journal v1", 0), 0u);
  EXPECT_NE(dump.find("train_start"), std::string::npos);

  const std::string journal = ReadFileOrEmpty(journal_path);
  EXPECT_NE(journal.find("checkin"), std::string::npos);
  EXPECT_NE(journal.find("plan_downloaded"), std::string::npos);
}

// A second InstallCrashHandler in the same process is refused (the fork
// test's child installed inside its own copy; this parent process is
// clean until now).
TEST(CrashHandlerTest, InstallIsFirstWinsIdempotent) {
  CrashHandlerOptions opts;
  opts.flight_dump_path = ::testing::TempDir() + "crash-idem.log";
  const bool first = InstallCrashHandler(opts);
  EXPECT_TRUE(CrashHandlerInstalled());
  EXPECT_FALSE(InstallCrashHandler(opts));
  // First install in this process must have succeeded.
  EXPECT_TRUE(first);
}

}  // namespace
}  // namespace fl::ops

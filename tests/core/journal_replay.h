// Test helper: journals the lifecycle events of one simulated run and, when
// it goes out of scope, replays the journal through tools::AnalyzeJournalFile
// (the engine behind `fl_analyze --check`), expecting every line to parse and
// no invariant to be violated. Declare it before the FLSystem it covers, so
// the system is torn down before the replay.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "src/analytics/journal.h"
#include "src/tools/log_analyzer.h"

namespace fl::core {

class ReplayedJournal {
 public:
  ReplayedJournal()
      : path_(::testing::TempDir() + "replayed_journal." +
              std::to_string(::getpid()) + "." + std::to_string(++count_) +
              ".log") {
    EXPECT_TRUE(analytics::Journal::Global().Open(path_).ok());
  }
  ReplayedJournal(const ReplayedJournal&) = delete;
  ReplayedJournal& operator=(const ReplayedJournal&) = delete;

  ~ReplayedJournal() {
    analytics::Journal::Global().Close();
    const auto replay = tools::AnalyzeJournalFile(path_);
    EXPECT_TRUE(replay.ok()) << replay.status().ToString();
    if (replay.ok()) {
      EXPECT_GT(replay->records, 0u);
      EXPECT_EQ(replay->parse_errors, 0u);
      EXPECT_TRUE(replay->violations.empty())
          << tools::RenderViolations(*replay);
    }
    std::remove(path_.c_str());
  }

 private:
  static inline int count_ = 0;
  std::string path_;
};

}  // namespace fl::core

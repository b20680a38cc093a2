// Durable event journal (Sec. 5): "we also log an event for every state in a
// training round" — one structured line per journaled lifecycle event in a
// line-delimited log that survives the process, so session shapes (Table 1)
// can be regenerated offline and bugs show up as "deviations from the
// expected state sequences" (checked by tools/log_analyzer + the fl_analyze
// CLI).
//
// This header owns the record vocabulary (sources, event kinds) and the
// line format; lines are written only by analytics::Emit()
// (src/analytics/lifecycle.h), which renders each one from the typed
// LifecycleEvent. JournalEnabled() is one relaxed atomic load, false until
// a journal file is opened, so a closed journal costs Emit() one predictable
// branch. Writes go through a buffered sink (append to a heap buffer under a
// mutex, flush to disk in large blocks), so the enabled path stays cheap too.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

#include "src/analytics/events.h"
#include "src/common/id.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/telemetry/telemetry.h"  // WallMicros

namespace fl::analytics {

// Who appended the record. One value per paper actor (Sec. 4.2) plus the
// in-process modeling simulator (Sec. 7.1).
enum class JournalSource : std::uint8_t {
  kDevice = 0,
  kSelector,
  kMaster,
  kAggregator,
  kCoordinator,
  kSim,
  kFrontend,  // device-facing edge; its facts (errors) are never journaled
};

const char* JournalSourceName(JournalSource s);
Result<JournalSource> ParseJournalSource(std::string_view name);

// Every lifecycle event kind. The first block mirrors SessionEvent
// one-to-one (device-side, Table 1 glyphs); then server and sim states.
// Kinds up to kSimRoundComplete are journaled and keep their flight-ring
// codes; the block after it holds reducer-only facts (IsJournaled()).
enum class JournalEventKind : std::uint8_t {
  // --- device session events (Table 1) ---
  kCheckin = 0,        // '-'
  kPlanDownloaded,     // 'v'
  kTrainStart,         // '['
  kTrainComplete,      // ']'
  kUploadStart,        // '+'
  kUploadComplete,     // '^'
  kUploadRejected,     // '#'
  kInterrupted,        // '!'
  kError,              // '*'
  kSessionEnd,         // device session teardown (not part of the shape)
  // --- server events ---
  kCheckinAccepted,    // selector admitted the device to its waiting pool
  kCheckinRejected,    // selector/master/aggregator turned the device away
  kRoundOpen,          // master aggregator spawned for a round
  kPhase,              // round phase transition (detail = phase name)
  kReportAccepted,     // aggregator folded a device report into the sum
  kReportRejected,     // aggregator refused a report (late/corrupt)
  kRoundCommit,        // master reached the participant goal
  kRoundAbandoned,     // master gave up (detail = outcome + reason)
  kRoundOutcome,       // coordinator's final verdict for the round
  // --- modeling simulator (tools/simulation_runner) ---
  kSimRoundStart,
  kSimRoundComplete,
  // --- reducer-only facts (no journal line, no flight slot) ---
  kTraffic,             // bytes at the server NIC (Fig. 9)
  kServerError,         // server-side failure (detail in the event note)
  kMasterAccept,        // master took a forwarded device into its cohort
  kParticipantOutcome,  // aggregator closed a participant without a report
  kDeviceDrop,          // device-observed drop mid-round
};

const char* JournalEventName(JournalEventKind k);
Result<JournalEventKind> ParseJournalEvent(std::string_view name);

// Device SessionEvent <-> JournalEventKind (the first nine kinds).
JournalEventKind JournalEventForSession(SessionEvent e);
// Returns false when `k` is not a device session event.
bool SessionEventForJournal(JournalEventKind k, SessionEvent* out);

// One journal line. Ids use 0 for "not applicable" (e.g. a round-level
// event has no device/session; a pre-assignment device event has no round).
struct JournalRecord {
  SimTime sim_time;
  std::int64_t wall_us = 0;
  JournalSource source = JournalSource::kDevice;
  JournalEventKind event = JournalEventKind::kCheckin;
  DeviceId device;
  SessionId session;
  RoundId round;
  // Free-form key=value details (reason, phase name, contributors=N ...).
  // May contain spaces; newlines/backslashes are escaped on the wire.
  std::string detail;

  // One line, no trailing newline:
  //   <sim_ms> <wall_us> <source> <event> <device> <session> <round> [detail]
  std::string Serialize() const;
  static Result<JournalRecord> Parse(std::string_view line);
};

namespace journal_internal {
inline std::atomic<bool> g_enabled{false};
}  // namespace journal_internal

// One relaxed load; Emit() checks it before rendering, so a disabled
// deployment performs no formatting, locking, or allocation.
inline bool JournalEnabled() {
  return journal_internal::g_enabled.load(std::memory_order_relaxed);
}

// The process-wide journal sink. Open() enables JournalEnabled(); Close()
// flushes and disables it. Append() is thread-safe (the parallel round
// engine emits from pool workers).
class Journal {
 public:
  static Journal& Global();

  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Creates/truncates `path`, writes the header line, and flips the global
  // enabled flag on success.
  Status Open(const std::string& path);
  bool is_open() const;
  // Flushes buffered records to disk (fwrite + fflush).
  void Flush();
  // Crash-path flush: try-locks the mutex so a fatal-signal handler that
  // interrupted a writer mid-append skips the flush instead of deadlocking.
  // Returns false when the lock was contended (buffer left as-is). Not
  // strictly async-signal-safe (fwrite/fflush), but the process is dying and
  // losing the tail is the alternative.
  bool FlushBestEffort();
  // Flush + close + disable. Idempotent.
  void Close();

  void Append(const JournalRecord& record);

  std::uint64_t events_written() const {
    return events_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  // The journal format version header ("#fl-journal v1"); parsers skip
  // every line starting with '#'.
  static constexpr const char* kHeader = "#fl-journal v1";

 private:
  void FlushLocked();

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::atomic<std::uint64_t> events_written_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace fl::analytics

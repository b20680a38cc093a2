// Offline journal analysis (Sec. 5): replays a durable event journal
// (src/analytics/journal.h) written by a previous run and rebuilds, without
// the process that produced it,
//   (a) per-round timelines with per-phase durations and straggler/abort
//       attribution,
//   (b) the Table 1 session-shape distribution (bit-identical to the
//       in-process FleetStats tally), and
//   (c) a state-machine invariant report: device-side event sequences are
//       checked against the legal session state machine and cross-joined
//       with server-side accept/commit events, so dropped, reordered, or
//       contradictory records surface as named violations ("deviations from
//       the expected state sequences", Sec. 5).
// The fl_analyze CLI is a thin shell over this library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/analytics/events.h"
#include "src/analytics/journal.h"
#include "src/analytics/round_record.h"
#include "src/common/status.h"

namespace fl::tools {

// One invariant breach, anchored to the 1-based journal line it was
// detected on.
struct InvariantViolation {
  std::string rule;  // "device-transition", "orphan-upload", ...
  std::size_t line = 0;
  DeviceId device;
  SessionId session;
  RoundId round;
  std::string message;
};

// One phase of a round and how long it lasted.
struct PhaseSpan {
  std::string name;
  SimTime entered_at;
  Duration duration;  // to the next phase, or to the end the view chooses
};

struct AnalysisReport {
  std::size_t lines = 0;          // non-comment journal lines seen
  std::size_t records = 0;        // successfully parsed records
  std::size_t parse_errors = 0;
  std::size_t sessions_closed = 0;  // session_end seen
  std::size_t sessions_open = 0;    // trailing sessions without session_end
  // Table 1 distribution over closed sessions with >= 2 events — the same
  // rule FleetStats applies at session_end, so a journal replay of a run
  // reproduces the in-process tally exactly.
  analytics::SessionShapeTally tally;
  // One record per round_open, in journal order, folded by the same
  // FoldRound() the live reducers run.
  std::vector<analytics::RoundRecord> rounds;
  std::vector<InvariantViolation> violations;
};

// Analyzes journal text (header + one record per line). Unparseable lines
// are counted, reported as "parse-error" violations, and skipped.
AnalysisReport AnalyzeJournal(std::string_view text);

// Reads `path` and analyzes it. Fails only on I/O errors. When `path` is a
// diagnostic-bundle directory, reads its flight_recorder.log.
Result<AnalysisReport> AnalyzeJournalFile(const std::string& path);

// --------------------------------------------------------------------------
// Critical-path attribution: what bounded one round's latency?
//
// Read from the round's RoundRecord, folded from the same journal text (a
// real journal or a flight-recorder dump), plus the round's device events:
// phase spans say which window dominated; within reporting,
// the goal wait (reporting start -> the accept that satisfied min_report)
// is separated from the aggregation wait (last accept -> round end); and
// every configured device is classified by fate, so the straggler that
// stalled an abandoned round is named, not inferred.
// --------------------------------------------------------------------------

struct CriticalPathReport {
  RoundId round;
  bool found = false;    // round_open for `round` was seen
  std::string outcome;   // "", "committed", "abandoned_reporting", ...
  std::string abort_reason;

  // Phase spans (journal order, the last one ending at round_end_at) and
  // the dominating one.
  std::vector<PhaseSpan> phases;
  std::string bounding_phase;
  Duration bounding_duration{};

  std::size_t goal = 0;
  std::size_t min_report = 0;
  std::size_t accepts = 0;

  // Reporting-window decomposition (meaningful when accepts > 0).
  SimTime reporting_at{};    // phase=reporting entry (opened_at fallback)
  SimTime first_accept_at{};
  SimTime goal_accept_at{};  // the min_report-th accept (last when fewer)
  SimTime last_accept_at{};
  SimTime round_end_at{};    // commit/abandon/outcome (last event fallback)
  Duration goal_wait{};         // reporting_at -> goal_accept_at
  Duration aggregation_wait{};  // last_accept_at -> round_end_at

  // One configured participant of the round.
  struct DeviceLatency {
    DeviceId device;
    SessionId session;
    SimTime configured_at{};  // plan_downloaded ('v')
    bool train_started = false;
    bool trained = false;     // train_complete seen
    Duration train_duration{};
    bool uploaded = false;    // upload_complete seen
    Duration upload_duration{};
    bool accepted = false;
    SimTime accepted_at{};
    // "completed", "rejected_late", "interrupted", "error", "silent"
    // (configured but no terminal event inside the round — the classic
    // straggler the reporting window waits out).
    std::string fate;
  };
  std::vector<DeviceLatency> devices;  // configured participants, by device
  std::size_t stragglers = 0;          // fate != "completed"

  // The accepted contributor whose report arrived last: with a goal-count
  // window, that arrival IS the round's latency frontier.
  bool has_critical_device = false;
  DeviceLatency critical_device;
};

// Targeted analysis of one round. `text` is the same journal text
// AnalyzeJournal takes; its events are re-sorted by sim time first, so
// unordered flight-recorder dumps analyze identically to real journals.
CriticalPathReport AnalyzeCriticalPath(std::string_view text, RoundId round);

// File/bundle-dir variant, mirroring AnalyzeJournalFile's path resolution.
Result<CriticalPathReport> AnalyzeCriticalPathFile(const std::string& path,
                                                   RoundId round);

// Human-readable rendering for `fl_analyze --critical-path`.
std::string RenderCriticalPath(const CriticalPathReport& report);

// Renderers for the CLI: per-round timelines (a round's last phase ends at
// its last journaled server event), the Table 1 shape table, and the
// violation list. RenderAnalysisReport stitches all three together.
std::string RenderRoundTimelines(const AnalysisReport& report);
std::string RenderShapeTable(const AnalysisReport& report,
                             std::size_t max_rows = 10);
std::string RenderViolations(const AnalysisReport& report);
std::string RenderAnalysisReport(const AnalysisReport& report);

}  // namespace fl::tools

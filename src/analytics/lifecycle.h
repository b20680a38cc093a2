// One typed lifecycle event, one Emit() (Sec. 5): "we also log an event for
// every state in a training round" and derive counters and dashboards from
// those events. Every server actor, the frontend, the device agent and the
// modelling sim runner report each fact exactly once, as a LifecycleEvent
// through Emit(). Every view is derived from that one record:
//
//   * the flight recorder ring (always on) stores its compact projection;
//   * the journal renders the `k=v` text line from it (when open);
//   * reducers — FleetStats, ops::RoundLedger, ServerMetrics — fold it into
//     their counters, series and round records (FoldRound,
//     src/analytics/round_record.h);
//   * RecordSpans pairs it into the tracer's round, phase and device spans;
//   * fl_analyze parses journal lines back into it (ParseLifecycleLine) and
//     folds the same round records offline.
//
// Journaled kinds (everything up to kSimRoundComplete) reach the ring and
// the journal; the kinds after it carry facts that have no journal line
// (traffic, errors, master accepts, unjournaled participant outcomes,
// device drops) and only reach the reducers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/analytics/journal.h"
#include "src/protocol/round_config.h"
#include "src/telemetry/metrics.h"

namespace fl::analytics {

// Why a device was turned away / a report refused / a round lost. The name
// is the journal's `reason=` value ("late", "round_full", ...).
enum class FlightReason : std::uint8_t {
  kNone = 0,
  // Selector rejections.
  kWaitingPoolFull,   // "waiting pool full"
  kNotAccepting,      // "not accepting"
  kQuotaReduced,      // "quota reduced"
  kHeldTooLong,       // "held too long"
  // Master / configuration rejections.
  kRoundFull,         // "round_full"
  kRoundAbandonedReject,  // "round_abandoned" (pending links on abandon)
  kRuntimeTooOld,     // "runtime_too_old"
  // Aggregator report rejections.
  kLate,              // "late"
  kCorrupt,           // "corrupt"
  kAccumulate,        // "accumulate"
  // Round-loss reasons (abandon / coordinator outcome).
  kSelectionTimeout,  // "selection timeout"
  kBelowMinReports,   // "below min_report"
  kMasterEndOfLife,   // "master end of life"
  kCommitFailed,      // "commit"
  kMasterLost,        // "master_lost"
  kOther,
};

const char* FlightReasonName(FlightReason r);
// Inverse of FlightReasonName; unknown strings map to kOther.
FlightReason FlightReasonForDetail(std::string_view reason);

// The phase a phase event's `a` indexes: selection, configuration,
// reporting, closing ("unknown" past closing).
const char* PhaseName(std::uint64_t phase);

// True for kinds with a journal line (and hence a flight-ring slot). Derived
// from the enum order: every kind after kSimRoundComplete is reducer-only.
constexpr bool IsJournaled(JournalEventKind k) {
  return k <= JournalEventKind::kSimRoundComplete;
}

// The optional k=v fields of a detail line (LifecycleEvent::fields). A live
// event carries all of them; the flight ring keeps kRingFields; an event
// parsed back from a line carries the ones the line held.
enum EventField : std::uint8_t {
  kFieldTask = 1 << 0,          // round_open task=
  kFieldTarget = 1 << 1,        // round_open target=
  kFieldCount = 1 << 2,         // phase devices= / aggregators= / accepted=
  kFieldWeight = 1 << 3,        // report_accepted weight=
  kFieldWireBytes = 1 << 4,     // report_accepted / round_commit wire_bytes=
  kFieldCodec = 1 << 5,         // report_accepted / round_commit codec=
  kFieldNote = 1 << 6,          // reason= as the note's free text
  kFieldContributors = 1 << 7,  // round_outcome contributors=
};
inline constexpr std::uint8_t kAllFields = 0xff;
inline constexpr std::uint8_t kRingFields = kFieldContributors;

// One lifecycle fact. Ids use 0 for "not applicable". The numeric
// arguments are per kind:
//
//   session_end          a = completed (0/1), b = participation ms (assigned)
//   round_open           a = goal, b = min_report, c = task, d = target
//   phase                a = phase index (selection, configuration,
//                        reporting, closing), b = devices / aggregators /
//                        accepted count of the new phase
//   report_accepted      a = 1 for SecAgg, b = wire bytes, weight;
//                        note = codec name (plain path)
//   report_rejected      reason; note = error text (corrupt / accumulate)
//   checkin_rejected     reason
//   round_commit         a = contributors, b = min_report, c = wire bytes;
//                        note = codec name
//   round_abandoned      a = contributors, outcome, reason; note = reason text
//   round_outcome        a = contributors, b = selection ms, c = round ms
//                        (committed rounds), outcome, reason; note = reason
//                        text
//   sim_round_start      a = clients wanted
//   sim_round_complete   a = clients that produced an update
//   traffic              a = download bytes, b = upload bytes (server NIC)
//   server_error         note = what failed
//   participant_outcome  a = protocol::ParticipantOutcome
//   master_accept, device_drop, device session kinds: ids only
struct LifecycleEvent {
  SimTime t{};
  JournalSource source = JournalSource::kDevice;
  JournalEventKind kind = JournalEventKind::kCheckin;
  DeviceId device{};
  SessionId session{};
  RoundId round{};
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  double weight = 0.0;
  FlightReason reason = FlightReason::kNone;
  protocol::RoundOutcome outcome = protocol::RoundOutcome::kCommitted;
  std::uint8_t fields = kAllFields;  // EventField bits this event carries
  // Borrowed: valid only for the duration of Emit(); reducers copy it if
  // they keep it.
  std::string_view note{};
};

// Reducers subscribe through this one method. Embedders fan out to their
// reducers in a fixed order (core::FLSystem); tests substitute fakes.
class LifecycleSink {
 public:
  virtual void On(const LifecycleEvent& e) = 0;

 protected:
  ~LifecycleSink() = default;  // never deleted through this interface
};

// The only writer of the flight ring and the journal. In order: writes the
// ring projection, appends the rendered journal line when the journal is
// open (both for journaled kinds only), then calls reducers->On(e).
// `reducers` may be null.
void Emit(LifecycleSink* reducers, const LifecycleEvent& e);

// The journal line `e` renders to: its ids and sim time, `wall_us`, and the
// `k=v` detail of the one renderer — the fields of `e.kind`, optional ones
// only when `e.fields` holds them.
JournalRecord RenderJournalRecord(const LifecycleEvent& e,
                                  std::int64_t wall_us);
// The same detail written into a fixed buffer, allocation-free for the crash
// path; returns the bytes written (truncated at `cap`).
std::size_t WriteDetail(const LifecycleEvent& e, char* buf, std::size_t cap);

// The reason text a detail line shows: the note when the event carries one,
// else the reason's name.
std::string_view ReasonText(const LifecycleEvent& e);

// One journal line parsed back into the event it was rendered from. The
// event's note views `note`, which this object owns (copies re-point it).
struct LifecycleLine {
  LifecycleEvent event;
  std::int64_t wall_us = 0;
  std::string note;

  LifecycleLine() = default;
  LifecycleLine(const LifecycleLine& other) { *this = other; }
  LifecycleLine& operator=(const LifecycleLine& other);
};

// The inverse of RenderJournalRecord(): accepts the journal form, the
// flight-dump form (kRingFields) and any other subset of the optional
// fields, with a free-form `reason=` tail. A line that would not render
// back byte for byte is an error.
Result<LifecycleLine> ParseLifecycleLine(std::string_view line);

// The per-participant outcome a fact implies, shared by every reducer:
// report_accepted → completed; report_rejected late → rejected late,
// corrupt / accumulate → dropped; participant_outcome → its argument;
// device_drop → dropped.
std::optional<protocol::ParticipantOutcome> ParticipantOutcomeOf(
    const LifecycleEvent& e);
// Facts the server counts as errors: server_error, and reports rejected as
// corrupt or unaccumulable.
bool IsServerError(const LifecycleEvent& e);

// Registry reducer: the fl_server_* counters and histograms the Prometheus /
// JSON dumps, monitors and the ops plane read. One branch per event while
// telemetry is off.
class ServerMetrics {
 public:
  ServerMetrics();
  void On(const LifecycleEvent& e);

 private:
  // Resolved once; registry instruments are never deallocated.
  telemetry::Counter* rounds_committed_;
  telemetry::Counter* rounds_abandoned_;
  telemetry::Counter* participants_[4];  // by protocol::ParticipantOutcome
  telemetry::Counter* devices_accepted_;
  telemetry::Counter* devices_rejected_;
  telemetry::Counter* download_bytes_;
  telemetry::Counter* upload_bytes_;
  telemetry::Counter* errors_;
  telemetry::Histogram* round_contributors_;
  telemetry::Histogram* selection_seconds_;
  telemetry::Histogram* round_seconds_;
};

// Tracer reducer: pairs lifecycle events into spans (telemetry::Tracer) —
//   round (attrs round, task, outcome, contributors): round_open → commit,
//     abandon, or the coordinator's outcome when the master was lost;
//   phase:selection, phase:configuration (devices, aggregators) and
//     phase:reporting: the round's phase events, under the round span;
//   device_session (device, round, completed): 'v' → session_end, under the
//     round span as a cross-actor flow link;
//   device_train ('[' → ']') and device_upload ('+' → '^' or '#'), under
//     the session span; session_end closes whatever is still open.
// Span ids derive from the round and session ids, so the reducer keeps no
// state. One branch per event while telemetry is off.
void RecordSpans(const LifecycleEvent& e);

}  // namespace fl::analytics

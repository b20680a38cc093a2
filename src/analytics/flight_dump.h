// Journal-typed view over the telemetry flight recorder. fl_telemetry keeps
// the rings protocol-agnostic (opaque u8 source/kind, two aux words); this
// header owns the encoding: journal sources/events map one-to-one onto the
// flight codes, and the dump synthesizes `#fl-journal v1`-format lines that
// fl_analyze ingests exactly like a real journal. The detail text comes from
// the one lifecycle renderer (src/analytics/lifecycle.h) for an event that
// carries only kRingFields: no byte accounting, codec names or free-form
// reason text.
//
// Only analytics::Emit() writes the ring in production: every journaled
// LifecycleEvent lands here (the call self-gates on one relaxed load), so
// the last kSlotsPerThread events per thread exist even when nothing else
// is recording. RecordFlight() is the raw slot writer Emit() uses; tests of
// the ring call it directly.
#pragma once

#include <cstdint>
#include <string>

#include "src/analytics/journal.h"
#include "src/analytics/lifecycle.h"
#include "src/protocol/round_config.h"
#include "src/telemetry/flight_recorder.h"

namespace fl::analytics {

// aux_b packing for round-level records: low byte = FlightReason, high byte
// = RoundOutcome + 1 (0 = no outcome recorded).
inline std::uint16_t PackOutcomeReason(protocol::RoundOutcome outcome,
                                       FlightReason reason) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(reason) |
      ((static_cast<std::uint16_t>(outcome) + 1) << 8));
}

// The raw slot writer. aux_a carries the per-kind count (goal,
// contributors, phase index, completed flag); aux_b the reason/outcome.
inline void RecordFlight(SimTime t, JournalSource source,
                         JournalEventKind kind, DeviceId device = DeviceId{},
                         SessionId session = SessionId{},
                         RoundId round = RoundId{}, std::uint32_t aux_a = 0,
                         std::uint16_t aux_b = 0) {
  if (!telemetry::FlightRecorderEnabled()) return;
  telemetry::FlightRecorder::Global().Record(
      static_cast<std::uint8_t>(source), static_cast<std::uint8_t>(kind),
      static_cast<std::uint64_t>(t.millis), device.value, session.value,
      round.value, aux_a, aux_b);
}

// Decodes one flight record back into a journal record (detail rendered
// from aux_a/aux_b per kind). Returns false for non-journal records
// (unknown codes).
bool JournalRecordFromFlight(const telemetry::FlightRecord& rec,
                             JournalRecord* out);

// Every valid journal slot, seq-ordered, rendered as `#fl-journal v1` text.
// Allocates; for the in-process bundle path.
std::string FlightDumpText();

// Async-signal-safe dump: no allocation, no locking, records in arbitrary
// order (fl_analyze sorts by sim time on ingest). Writes directly to `fd`
// with write(2). Returns the number of records written.
std::size_t FlightDumpToFd(int fd);

}  // namespace fl::analytics

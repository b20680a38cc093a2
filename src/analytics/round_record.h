// One round, as every view sees it (Sec. 5: dashboards and offline round
// views come from the same logged round events). FoldRound() is the only
// code that turns lifecycle events into a round record. Live reducers
// (core::FleetStats, ops::RoundLedger) fold the events Emit() hands them;
// fl_analyze (tools/log_analyzer) folds the events it parses back from a
// journal or a flight-recorder dump. So /rounds, the Fig. 5/7/8 series and
// the offline timeline and critical path cannot disagree on a field the
// journal carries.
//
// Live-only fields: a participant's outcome reaches the record from
// report_accepted / report_rejected (journaled) and from
// participant_outcome / device_drop (reducer-only), so a replayed record's
// participant tallies count only the former. Traffic never enters the
// record; FleetStats keeps it as fleet-wide series.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/analytics/lifecycle.h"

namespace fl::analytics {

struct RoundRecord {
  RoundId round{};

  // round_open.
  bool opened = false;
  SimTime opened_at{};
  std::size_t goal = 0;
  std::size_t min_report = 0;

  // Phase entries in the order they happened; `phase` indexes selection,
  // configuration, reporting, closing.
  struct PhaseEntry {
    std::uint64_t phase = 0;
    SimTime at{};
    bool operator==(const PhaseEntry&) const = default;
  };
  std::vector<PhaseEntry> phases;
  SimTime last_event_at{};  // the round's last journaled server event

  // Journaled tallies.
  std::size_t reports_accepted = 0;
  std::size_t reports_rejected = 0;   // all reasons
  std::size_t stragglers = 0;         // reports rejected as late ('#')
  std::size_t checkins_rejected = 0;  // by the master / an aggregator
  // Per-accept wire_bytes summed, and the total the master journaled at
  // commit (fl_analyze checks that they match).
  std::uint64_t accepted_wire_bytes = 0;
  bool has_commit_wire_bytes = false;
  std::uint64_t commit_wire_bytes = 0;
  std::string codec;

  // Per-participant outcomes (protocol::ParticipantOutcome).
  std::size_t completed = 0;
  std::size_t aborted = 0;
  std::size_t dropped = 0;
  std::size_t rejected_late = 0;

  // The end: round_commit, round_abandoned, then the coordinator's
  // round_outcome.
  bool committed = false;  // round_commit seen
  SimTime committed_at{};
  bool has_outcome = false;  // round_abandoned or round_outcome seen
  protocol::RoundOutcome outcome = protocol::RoundOutcome::kFailed;
  std::string abort_reason;
  SimTime ended_at{};     // the last of commit / abandon / outcome
  SimTime finished_at{};  // round_outcome
  std::size_t contributors = 0;
  // Committed rounds only: configuration entry - open, commit - open.
  bool has_timing = false;
  Duration selection_duration{};
  Duration round_duration{};

  std::size_t participants() const {
    return completed + aborted + dropped + rejected_late;
  }
  bool operator==(const RoundRecord&) const = default;
};

// True for the events FoldRound() reads: round-scoped server facts and
// participant outcomes. Device session events are never round facts.
bool IsRoundFact(const LifecycleEvent& e);

// Folds one round fact into `r`. Timing is derived from the record's own
// spans; a record that never saw its round_open (a synthetic stream, a ring
// that wrapped) keeps the durations the round_outcome carries.
void FoldRound(RoundRecord& r, const LifecycleEvent& e);

// The records a live reducer keeps: open rounds by id, finished ones
// (round_outcome seen) in completion order, the oldest evicted past
// `capacity`. Late facts still reach a retained finished record.
class RoundBook {
 public:
  explicit RoundBook(std::size_t capacity = SIZE_MAX)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // Folds `e` if it is a round fact; returns the record `e` finished.
  const RoundRecord* Fold(const LifecycleEvent& e);

  const std::map<RoundId, RoundRecord>& open() const { return open_; }
  const std::deque<RoundRecord>& finished() const { return finished_; }

 private:
  RoundRecord& RecordFor(RoundId round);

  std::size_t capacity_;
  std::map<RoundId, RoundRecord> open_;
  std::deque<RoundRecord> finished_;  // oldest at front
};

}  // namespace fl::analytics

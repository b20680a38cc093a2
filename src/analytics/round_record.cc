#include "src/analytics/round_record.h"

#include <algorithm>

namespace fl::analytics {

bool IsRoundFact(const LifecycleEvent& e) {
  if (e.round.value == 0) return false;
  return (e.kind >= JournalEventKind::kCheckinRejected &&
          e.kind <= JournalEventKind::kRoundOutcome) ||
         e.kind == JournalEventKind::kParticipantOutcome ||
         e.kind == JournalEventKind::kDeviceDrop;
}

void FoldRound(RoundRecord& r, const LifecycleEvent& e) {
  using K = JournalEventKind;
  r.round = e.round;
  if (const auto p = ParticipantOutcomeOf(e)) {
    std::size_t* tally[] = {&r.completed, &r.aborted, &r.dropped,
                            &r.rejected_late};  // by ParticipantOutcome
    ++*tally[static_cast<std::size_t>(*p)];
  }
  if (!IsJournaled(e.kind)) return;
  r.last_event_at = e.t;
  switch (e.kind) {
    case K::kRoundOpen:
      r.opened = true;
      r.opened_at = e.t;
      r.goal = e.a;
      r.min_report = e.b;
      break;
    case K::kPhase:
      r.phases.push_back({e.a, e.t});
      break;
    case K::kReportAccepted:
      ++r.reports_accepted;
      r.accepted_wire_bytes += e.b;
      break;
    case K::kReportRejected:
      ++r.reports_rejected;
      if (e.reason == FlightReason::kLate) ++r.stragglers;
      break;
    case K::kCheckinRejected:
      ++r.checkins_rejected;
      break;
    case K::kRoundCommit:
      r.committed = true;
      r.committed_at = r.ended_at = e.t;
      r.contributors = e.a;
      r.has_commit_wire_bytes = (e.fields & kFieldWireBytes) != 0;
      r.commit_wire_bytes = e.c;
      r.codec = e.note;
      break;
    case K::kRoundAbandoned:
      r.has_outcome = true;
      r.outcome = e.outcome;
      r.ended_at = e.t;
      if (e.reason != FlightReason::kNone) r.abort_reason = ReasonText(e);
      break;
    case K::kRoundOutcome: {
      r.has_outcome = true;
      r.outcome = e.outcome;
      r.ended_at = r.finished_at = e.t;
      const bool committed = e.outcome == protocol::RoundOutcome::kCommitted;
      // A committed outcome repeats the commit's count.
      if (!committed || !r.committed) r.contributors = e.a;
      if (r.abort_reason.empty() && e.reason != FlightReason::kNone) {
        r.abort_reason = ReasonText(e);
      }
      r.has_timing = committed;
      r.selection_duration = r.round_duration = Duration{};
      if (!committed) break;
      const auto configured = std::find_if(
          r.phases.begin(), r.phases.end(),
          [](const RoundRecord::PhaseEntry& p) { return p.phase == 1; });
      if (r.opened && r.committed && configured != r.phases.end()) {
        r.selection_duration = configured->at - r.opened_at;
        r.round_duration = r.committed_at - r.opened_at;
      } else {
        r.selection_duration = Duration{static_cast<std::int64_t>(e.b)};
        r.round_duration = Duration{static_cast<std::int64_t>(e.c)};
      }
      break;
    }
    default:
      break;
  }
}

const RoundRecord* RoundBook::Fold(const LifecycleEvent& e) {
  if (!IsRoundFact(e)) return nullptr;
  RoundRecord& rec = RecordFor(e.round);
  FoldRound(rec, e);
  if (e.kind != JournalEventKind::kRoundOutcome) return nullptr;
  const auto it = open_.find(e.round);
  if (it == open_.end()) return &rec;  // already finished; still retained
  finished_.push_back(std::move(it->second));
  open_.erase(it);
  while (finished_.size() > capacity_) finished_.pop_front();
  return &finished_.back();
}

RoundRecord& RoundBook::RecordFor(RoundId round) {
  if (const auto it = open_.find(round); it != open_.end()) return it->second;
  for (auto it = finished_.rbegin(); it != finished_.rend(); ++it) {
    if (it->round == round) return *it;
  }
  return open_[round];
}

}  // namespace fl::analytics

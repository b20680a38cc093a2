#include "src/ops/round_ledger.h"

#include "src/common/json_writer.h"

namespace fl::ops {

RoundLedger::RoundLedger(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), rounds_(capacity_) {}

void RoundLedger::On(const analytics::LifecycleEvent& e) {
  using analytics::JournalEventKind;
  // Device session events, most of the stream, carry nothing the ledger
  // keeps: skip them before taking the lock.
  if (e.kind <= JournalEventKind::kSessionEnd) return;
  if (enabled()) {
    std::lock_guard<std::mutex> lock(mu_);
    rounds_.Fold(e);
    if (analytics::IsServerError(e)) ++totals_.errors;
    switch (e.kind) {
      case JournalEventKind::kMasterAccept:
        ++totals_.checkins_accepted;
        break;
      case JournalEventKind::kCheckinRejected:
        ++totals_.checkins_rejected;
        break;
      case JournalEventKind::kRoundOutcome:
        ++(e.outcome == protocol::RoundOutcome::kCommitted
               ? totals_.rounds_committed
               : totals_.rounds_abandoned);
        break;
      default:
        break;
    }
  }
  // After the ledger update (so a bundle capture sees this round) and
  // outside the lock (so the observer may read the ledger).
  if (e.kind == JournalEventKind::kRoundOutcome &&
      e.outcome != protocol::RoundOutcome::kCommitted && on_abandoned_) {
    on_abandoned_(e.t, e.round, e.outcome);
  }
}

RoundLedger::Totals RoundLedger::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<analytics::RoundRecord> RoundLedger::Recent(std::size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto& finished = rounds_.finished();
  const std::size_t n = std::min(max, finished.size());
  return {finished.rbegin(), finished.rbegin() + static_cast<std::ptrdiff_t>(n)};
}

std::string RoundLedger::RecentJson(std::size_t max) const {
  const Totals t = totals();
  const std::vector<analytics::RoundRecord> rounds = Recent(max);
  JsonWriter w;
  w.BeginObject();
  w.BeginObject("totals")
      .Field("rounds_committed", t.rounds_committed)
      .Field("rounds_abandoned", t.rounds_abandoned)
      .Field("checkins_accepted", t.checkins_accepted)
      .Field("checkins_rejected", t.checkins_rejected)
      .Field("errors", t.errors)
      .EndObject();
  w.BeginArray("rounds");
  for (const analytics::RoundRecord& r : rounds) {
    w.BeginObject()
        .Field("round", r.round.value)
        .Field("finished_at_ms", r.finished_at.millis)
        .Field("outcome", protocol::RoundOutcomeName(r.outcome))
        .Field("contributors", r.contributors)
        .Field("selection_seconds",
               r.has_timing ? r.selection_duration.millis / 1000.0 : -1.0)
        .Field("round_seconds",
               r.has_timing ? r.round_duration.millis / 1000.0 : -1.0)
        .Field("completed", r.completed)
        .Field("aborted", r.aborted)
        .Field("dropped", r.dropped)
        .Field("rejected_late", r.rejected_late)
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace fl::ops

#include "src/core/fleet_stats.h"

#include "src/common/logging.h"
namespace fl::core {
namespace {

analytics::TimeSeries MakeSeries(SimTime start, Duration bucket) {
  return analytics::TimeSeries(start, bucket);
}

}  // namespace

FleetStats::FleetStats(SimTime start, Duration bucket)
    : state_series_{MakeSeries(start, bucket), MakeSeries(start, bucket),
                    MakeSeries(start, bucket), MakeSeries(start, bucket),
                    MakeSeries(start, bucket)},
      round_completions_(start, bucket),
      round_failures_(start, bucket),
      download_(start, bucket),
      upload_(start, bucket),
      drops_(start, bucket),
      completions_(start, bucket),
      round_duration_(0.0, 30.0, 120),      // minutes
      selection_duration_(0.0, 30.0, 120),  // minutes
      participation_(0.0, 30.0, 120) {}     // minutes

void FleetStats::On(const analytics::LifecycleEvent& e) {
  using analytics::JournalEventKind;
  analytics::SessionEvent glyph;
  if (analytics::SessionEventForJournal(e.kind, &glyph)) {
    open_shapes_[e.session.value] += analytics::SessionEventGlyph(glyph);
    return;
  }
  if (const analytics::RoundRecord* done = rounds_.Fold(e)) RecordRound(*done);
  if (const auto p = analytics::ParticipantOutcomeOf(e)) {
    if (*p == protocol::ParticipantOutcome::kCompleted) completions_.Add(e.t);
    if (*p == protocol::ParticipantOutcome::kDropped) drops_.Add(e.t);
  }
  if (analytics::IsServerError(e)) {
    ++errors_;
    // Expected operational noise (drop-outs, aborted secagg groups) stays at
    // INFO; the error *counter* is what monitors consume (Sec. 5).
    FL_LOG(Info) << "[" << FormatSimTime(e.t) << "] server error: " << e.note;
  }
  switch (e.kind) {
    case JournalEventKind::kSessionEnd:
      if (const auto it = open_shapes_.find(e.session.value);
          it != open_shapes_.end()) {
        // Only sessions that progressed past check-in form "training round
        // sessions" in the Table 1 sense.
        if (it->second.size() >= 2) shapes_.RecordShape(it->second);
        open_shapes_.erase(it);
      }
      if (e.round.value != 0) {
        participation_.Add(
            Duration{static_cast<std::int64_t>(e.b)}.Minutes());
      }
      break;
    case JournalEventKind::kMasterAccept:
      ++accepted_;
      break;
    case JournalEventKind::kCheckinRejected:
      ++rejected_;
      break;
    case JournalEventKind::kTraffic:
      if (e.a > 0) {
        download_.Add(e.t, static_cast<double>(e.a));
        total_download_ += e.a;
      }
      if (e.b > 0) {
        upload_.Add(e.t, static_cast<double>(e.b));
        total_upload_ += e.b;
      }
      break;
    default:
      break;
  }
}

void FleetStats::RecordRound(const analytics::RoundRecord& r) {
  if (r.outcome == protocol::RoundOutcome::kCommitted) {
    ++rounds_committed_;
    round_completions_.Add(r.finished_at);
    selection_duration_.Add(r.selection_duration.Minutes());
    round_duration_.Add(r.round_duration.Minutes());
  } else {
    ++rounds_abandoned_;
    round_failures_.Add(r.finished_at);
  }
}

std::map<RoundId, RoundParticipantCounts> FleetStats::per_round() const {
  std::map<RoundId, RoundParticipantCounts> out;
  const auto add = [&out](const analytics::RoundRecord& r) {
    // Fig. 7's "aborted": work discarded because the server already had
    // enough reports, late rejections included.
    if (r.participants() > 0) {
      out[r.round] = {r.completed, r.aborted + r.rejected_late, r.dropped};
    }
  };
  for (const auto& [id, r] : rounds_.open()) add(r);
  for (const analytics::RoundRecord& r : rounds_.finished()) add(r);
  return out;
}

void FleetStats::OnDeviceStateChange(analytics::DeviceState from,
                                     analytics::DeviceState to) {
  auto& from_count = live_counts_[static_cast<std::size_t>(from)];
  if (from_count > 0) --from_count;
  ++live_counts_[static_cast<std::size_t>(to)];
}

void FleetStats::SampleStates(SimTime t) {
  for (std::size_t s = 0; s < live_counts_.size(); ++s) {
    state_series_[s].Add(t, static_cast<double>(live_counts_[s]));
  }
}

}  // namespace fl::core

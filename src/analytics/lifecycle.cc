#include "src/analytics/lifecycle.h"

#include <algorithm>
#include <array>
#include <charconv>

#include "src/analytics/flight_dump.h"

namespace fl::analytics {
namespace {

constexpr std::array<const char*, 17> kReasonNames = {{
    "",                   // kNone
    "waiting pool full",  // selector strings, verbatim
    "not accepting",
    "quota reduced",
    "held too long",
    "round_full",
    "round_abandoned",
    "runtime_too_old",
    "late",
    "corrupt",
    "accumulate",
    "selection timeout",
    "below min_report",
    "master end of life",
    "commit",
    "master_lost",
    "other",
}};

constexpr std::array<const char*, 4> kPhaseNames = {{
    "selection",
    "configuration",
    "reporting",
    "closing",
}};

// The count each phase record carries after its name (index 0 has none).
constexpr std::array<const char*, 4> kPhaseCountKeys = {{
    nullptr,
    " devices=",
    " aggregators=",
    " accepted=",
}};

// Render targets: a growing string (journal) or a fixed buffer (crash dump,
// no allocation).
struct StringOut {
  std::string* s;
  void operator()(std::string_view v) { s->append(v); }
};

struct BufferOut {
  char* p;
  std::size_t cap;
  std::size_t n = 0;
  void operator()(std::string_view v) {
    const std::size_t k = std::min(v.size(), cap - n);
    std::copy_n(v.data(), k, p + n);
    n += k;
  }
};

template <typename Out>
void PutU64(Out& out, std::uint64_t v) {
  char tmp[20];
  const auto res = std::to_chars(tmp, tmp + sizeof(tmp), v);
  out(std::string_view(tmp, static_cast<std::size_t>(res.ptr - tmp)));
}

template <typename Out>
void PutField(Out& out, std::string_view key, std::uint64_t v) {
  out(key);
  PutU64(out, v);
}

// The one k=v detail renderer; see AppendDetail().
template <typename Out>
void RenderDetail(const LifecycleEvent& e, bool ring_only, Out& out) {
  switch (e.kind) {
    case JournalEventKind::kSessionEnd:
      PutField(out, "completed=", e.a);
      break;
    case JournalEventKind::kCheckinRejected:
    case JournalEventKind::kReportRejected:
      out("reason=");
      out(FlightReasonName(e.reason));
      break;
    case JournalEventKind::kRoundOpen:
      if (!ring_only) PutField(out, "task=", e.c);
      PutField(out, ring_only ? "goal=" : " goal=", e.a);
      if (!ring_only) PutField(out, " target=", e.d);
      PutField(out, " min_report=", e.b);
      break;
    case JournalEventKind::kPhase:
      out("phase=");
      out(e.a < kPhaseNames.size() ? kPhaseNames[e.a] : "unknown");
      if (!ring_only && e.a < kPhaseNames.size() && e.a > 0) {
        PutField(out, kPhaseCountKeys[e.a], e.b);
      }
      break;
    case JournalEventKind::kReportAccepted:
      if (e.a == 1) {
        out("mode=secagg");
        if (!ring_only) PutField(out, " wire_bytes=", e.b);
      } else if (!ring_only) {
        // std::to_string(float) formatting ("%f"), allocation-free.
        char tmp[328];  // any double in fixed notation
        const auto res = std::to_chars(tmp, tmp + sizeof(tmp), e.weight,
                                       std::chars_format::fixed, 6);
        out("weight=");
        out(std::string_view(tmp, static_cast<std::size_t>(res.ptr - tmp)));
        PutField(out, " wire_bytes=", e.b);
        out(" codec=");
        out(e.note);
      }
      break;
    case JournalEventKind::kRoundCommit:
      PutField(out, "contributors=", e.a);
      PutField(out, " min_report=", e.b);
      if (!ring_only) {
        PutField(out, " wire_bytes=", e.c);
        out(" codec=");
        out(e.note);
      }
      break;
    case JournalEventKind::kRoundAbandoned:
    case JournalEventKind::kRoundOutcome:
      out("outcome=");
      out(protocol::RoundOutcomeName(e.outcome));
      if (e.outcome == protocol::RoundOutcome::kCommitted &&
          e.kind == JournalEventKind::kRoundOutcome) {
        PutField(out, " contributors=", e.a);
      }
      if (e.reason != FlightReason::kNone) {
        out(" reason=");
        out(!ring_only && !e.note.empty() ? e.note
                                          : FlightReasonName(e.reason));
      }
      break;
    case JournalEventKind::kSimRoundStart:
      PutField(out, "want=", e.a);
      break;
    case JournalEventKind::kSimRoundComplete:
      PutField(out, "got=", e.a);
      break;
    default:
      break;
  }
}

// The ring's aux words: aux_a carries `a`; aux_b the reason, the outcome +
// reason pair, or a saturated min_report.
std::uint16_t FlightAuxB(const LifecycleEvent& e) {
  switch (e.kind) {
    case JournalEventKind::kCheckinRejected:
    case JournalEventKind::kReportRejected:
      return static_cast<std::uint16_t>(e.reason);
    case JournalEventKind::kRoundOpen:
    case JournalEventKind::kRoundCommit:
      return static_cast<std::uint16_t>(std::min<std::uint64_t>(e.b, 0xffff));
    case JournalEventKind::kRoundAbandoned:
    case JournalEventKind::kRoundOutcome:
      return PackOutcomeReason(e.outcome, e.reason);
    default:
      return 0;
  }
}

}  // namespace

const char* FlightReasonName(FlightReason r) {
  const auto i = static_cast<std::size_t>(r);
  return i < kReasonNames.size() ? kReasonNames[i] : "other";
}

FlightReason FlightReasonForDetail(std::string_view reason) {
  for (std::size_t i = 1; i < kReasonNames.size(); ++i) {
    if (reason == kReasonNames[i]) return static_cast<FlightReason>(i);
  }
  return FlightReason::kOther;
}

void AppendDetail(const LifecycleEvent& e, bool ring_only, std::string* out) {
  StringOut sink{out};
  RenderDetail(e, ring_only, sink);
}

std::size_t WriteDetail(const LifecycleEvent& e, bool ring_only, char* buf,
                        std::size_t cap) {
  BufferOut sink{buf, cap};
  RenderDetail(e, ring_only, sink);
  return sink.n;
}

void Emit(LifecycleSink* reducers, const LifecycleEvent& e) {
  if (IsJournaled(e.kind)) {
    RecordFlight(e.t, e.source, e.kind, e.device, e.session, e.round,
                 static_cast<std::uint32_t>(e.a), FlightAuxB(e));
    if (JournalEnabled()) {
      JournalRecord rec;
      rec.sim_time = e.t;
      rec.wall_us = telemetry::WallMicros();
      rec.source = e.source;
      rec.event = e.kind;
      rec.device = e.device;
      rec.session = e.session;
      rec.round = e.round;
      AppendDetail(e, /*ring_only=*/false, &rec.detail);
      Journal::Global().Append(rec);
    }
  }
  if (reducers != nullptr) reducers->On(e);
}

std::optional<protocol::ParticipantOutcome> ParticipantOutcomeOf(
    const LifecycleEvent& e) {
  switch (e.kind) {
    case JournalEventKind::kReportAccepted:
      return protocol::ParticipantOutcome::kCompleted;
    case JournalEventKind::kReportRejected:
      return e.reason == FlightReason::kLate
                 ? protocol::ParticipantOutcome::kRejectedLate
                 : protocol::ParticipantOutcome::kDropped;
    case JournalEventKind::kParticipantOutcome:
      return static_cast<protocol::ParticipantOutcome>(e.a);
    case JournalEventKind::kDeviceDrop:
      return protocol::ParticipantOutcome::kDropped;
    default:
      return std::nullopt;
  }
}

bool IsServerError(const LifecycleEvent& e) {
  return e.kind == JournalEventKind::kServerError ||
         (e.kind == JournalEventKind::kReportRejected &&
          e.reason != FlightReason::kLate);
}

ServerMetrics::ServerMetrics() {
  auto& r = telemetry::MetricsRegistry::Global();
  rounds_committed_ = r.GetCounter("fl_server_rounds_committed_total");
  rounds_abandoned_ = r.GetCounter("fl_server_rounds_abandoned_total");
  participants_[0] = r.GetCounter("fl_server_participants_completed_total");
  participants_[1] = r.GetCounter("fl_server_participants_aborted_total");
  participants_[2] = r.GetCounter("fl_server_participants_dropped_total");
  participants_[3] =
      r.GetCounter("fl_server_participants_rejected_late_total");
  devices_accepted_ = r.GetCounter("fl_server_devices_accepted_total");
  devices_rejected_ = r.GetCounter("fl_server_devices_rejected_total");
  download_bytes_ = r.GetCounter("fl_server_download_bytes_total");
  upload_bytes_ = r.GetCounter("fl_server_upload_bytes_total");
  errors_ = r.GetCounter("fl_server_errors_total");
  // Contributors per round: rounds commit with tens-to-hundreds of reports.
  round_contributors_ = r.GetHistogram(
      "fl_server_round_contributors", telemetry::HistogramOptions{1, 2, 12});
  // Phase durations in seconds; rounds run minutes (Sec. 8: 2–3 min).
  selection_seconds_ = r.GetHistogram(
      "fl_server_selection_seconds", telemetry::HistogramOptions{1, 2, 16});
  round_seconds_ = r.GetHistogram("fl_server_round_seconds",
                                  telemetry::HistogramOptions{1, 2, 16});
}

void ServerMetrics::On(const LifecycleEvent& e) {
  if (!telemetry::Enabled()) return;
  if (const auto p = ParticipantOutcomeOf(e)) {
    participants_[static_cast<std::size_t>(*p)]->Add();
  }
  if (IsServerError(e)) errors_->Add();
  switch (e.kind) {
    case JournalEventKind::kMasterAccept:
      devices_accepted_->Add();
      break;
    case JournalEventKind::kCheckinRejected:
      devices_rejected_->Add();
      break;
    case JournalEventKind::kTraffic:
      if (e.a > 0) download_bytes_->Add(e.a);
      if (e.b > 0) upload_bytes_->Add(e.b);
      break;
    case JournalEventKind::kRoundOutcome:
      if (e.outcome == protocol::RoundOutcome::kCommitted) {
        rounds_committed_->Add();
        round_contributors_->Observe(static_cast<double>(e.a));
        selection_seconds_->Observe(Duration{static_cast<std::int64_t>(e.b)}
                                        .Seconds());
        round_seconds_->Observe(
            Duration{static_cast<std::int64_t>(e.c)}.Seconds());
      } else {
        rounds_abandoned_->Add();
      }
      break;
    default:
      break;
  }
}

}  // namespace fl::analytics

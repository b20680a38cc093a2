#include "src/analytics/lifecycle.h"

#include <algorithm>
#include <array>
#include <charconv>

#include "src/analytics/flight_dump.h"
#include "src/telemetry/trace.h"

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
    "devices",
    "aggregators",
    "accepted",
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

// Writes space-separated `key=value` fields.
template <typename Out>
struct FieldWriter {
  Out& out;
  bool first = true;

  void Str(std::string_view key, std::string_view v) {
    if (!first) out(" ");
    first = false;
    out(key);
    out("=");
    out(v);
  }
  void Num(std::string_view key, std::uint64_t v) {
    char tmp[20];
    const auto res = std::to_chars(tmp, tmp + sizeof(tmp), v);
    Str(key, std::string_view(tmp, static_cast<std::size_t>(res.ptr - tmp)));
  }
};

// The one k=v detail renderer; see RenderJournalRecord().
template <typename Out>
void RenderDetail(const LifecycleEvent& e, Out& out) {
  FieldWriter<Out> w{out};
  const auto has = [&e](EventField f) { return (e.fields & f) != 0; };
  switch (e.kind) {
    case JournalEventKind::kSessionEnd:
      w.Num("completed", e.a);
      break;
    case JournalEventKind::kCheckinRejected:
    case JournalEventKind::kReportRejected:
      w.Str("reason", FlightReasonName(e.reason));
      break;
    case JournalEventKind::kRoundOpen:
      if (has(kFieldTask)) w.Num("task", e.c);
      w.Num("goal", e.a);
      if (has(kFieldTarget)) w.Num("target", e.d);
      w.Num("min_report", e.b);
      break;
    case JournalEventKind::kPhase:
      w.Str("phase", PhaseName(e.a));
      if (has(kFieldCount) && e.a > 0 && e.a < kPhaseNames.size()) {
        w.Num(kPhaseCountKeys[e.a], e.b);
      }
      break;
    case JournalEventKind::kReportAccepted:
      if (e.a == 1) {
        w.Str("mode", "secagg");
      } else if (has(kFieldWeight)) {
        // std::to_string(float) formatting ("%f"), allocation-free.
        char tmp[328];  // any double in fixed notation
        const auto res = std::to_chars(tmp, tmp + sizeof(tmp), e.weight,
                                       std::chars_format::fixed, 6);
        w.Str("weight",
              std::string_view(tmp, static_cast<std::size_t>(res.ptr - tmp)));
      }
      if (has(kFieldWireBytes)) w.Num("wire_bytes", e.b);
      if (e.a != 1 && has(kFieldCodec)) w.Str("codec", e.note);
      break;
    case JournalEventKind::kRoundCommit:
      w.Num("contributors", e.a);
      w.Num("min_report", e.b);
      if (has(kFieldWireBytes)) w.Num("wire_bytes", e.c);
      if (has(kFieldCodec)) w.Str("codec", e.note);
      break;
    case JournalEventKind::kRoundAbandoned:
    case JournalEventKind::kRoundOutcome:
      w.Str("outcome", protocol::RoundOutcomeName(e.outcome));
      if (e.kind == JournalEventKind::kRoundOutcome &&
          e.outcome == protocol::RoundOutcome::kCommitted &&
          has(kFieldContributors)) {
        w.Num("contributors", e.a);
      }
      if (e.reason != FlightReason::kNone) w.Str("reason", ReasonText(e));
      break;
    case JournalEventKind::kSimRoundStart:
      w.Num("want", e.a);
      break;
    case JournalEventKind::kSimRoundComplete:
      w.Num("got", e.a);
      break;
    default:
      break;
  }
}

bool ParseU64(std::string_view v, std::uint64_t* out) {
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), *out);
  return ec == std::errc() && ptr == v.data() + v.size();
}

// The numeric detail fields: key, the event word it fills, the EventField
// bit that marks it present (0 for fields every line of its kind holds).
struct NumericField {
  std::string_view key;
  std::uint64_t LifecycleEvent::*word;
  std::uint8_t bit;
};
constexpr NumericField kNumericFields[] = {
    {"completed", &LifecycleEvent::a, 0},
    {"goal", &LifecycleEvent::a, 0},
    {"want", &LifecycleEvent::a, 0},
    {"got", &LifecycleEvent::a, 0},
    {"contributors", &LifecycleEvent::a, kFieldContributors},
    {"min_report", &LifecycleEvent::b, 0},
    {"devices", &LifecycleEvent::b, kFieldCount},
    {"aggregators", &LifecycleEvent::b, kFieldCount},
    {"accepted", &LifecycleEvent::b, kFieldCount},
    {"task", &LifecycleEvent::c, kFieldTask},
    {"target", &LifecycleEvent::d, kFieldTarget},
};

// Sets the field `key` names on `line` from its text `v`. The caller checks
// that the result renders back to the input, so this only has to read.
bool ReadField(std::string_view key, std::string_view v, LifecycleLine* line) {
  LifecycleEvent& e = line->event;
  for (const NumericField& f : kNumericFields) {
    if (key != f.key) continue;
    e.fields |= f.bit;
    return ParseU64(v, &(e.*f.word));
  }
  if (key == "wire_bytes") {
    e.fields |= kFieldWireBytes;
    return ParseU64(v, e.kind == JournalEventKind::kRoundCommit ? &e.c : &e.b);
  }
  if (key == "weight") {
    e.fields |= kFieldWeight;
    const auto [ptr, ec] =
        std::from_chars(v.data(), v.data() + v.size(), e.weight);
    return ec == std::errc() && ptr == v.data() + v.size();
  }
  if (key == "codec" || key == "reason") {
    line->note.assign(v);
    if (key == "reason") e.reason = FlightReasonForDetail(v);
    e.fields |= key == "codec" ? kFieldCodec : kFieldNote;
    return true;
  }
  if (key == "phase") {
    e.a = static_cast<std::uint64_t>(
        std::find(kPhaseNames.begin(), kPhaseNames.end(), v) -
        kPhaseNames.begin());
  } else if (key == "mode") {
    e.a = v == "secagg" ? 1 : 0;
  } else if (key == "outcome") {
    for (int o = 0; o <= static_cast<int>(protocol::RoundOutcome::kFailed);
         ++o) {
      const auto outcome = static_cast<protocol::RoundOutcome>(o);
      if (v == protocol::RoundOutcomeName(outcome)) e.outcome = outcome;
    }
  } else {
    return false;
  }
  return true;
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

const char* PhaseName(std::uint64_t phase) {
  return phase < kPhaseNames.size() ? kPhaseNames[phase] : "unknown";
}

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

std::size_t WriteDetail(const LifecycleEvent& e, char* buf, std::size_t cap) {
  BufferOut sink{buf, cap};
  RenderDetail(e, sink);
  return sink.n;
}

JournalRecord RenderJournalRecord(const LifecycleEvent& e,
                                  std::int64_t wall_us) {
  JournalRecord rec;
  rec.sim_time = e.t;
  rec.wall_us = wall_us;
  rec.source = e.source;
  rec.event = e.kind;
  rec.device = e.device;
  rec.session = e.session;
  rec.round = e.round;
  StringOut sink{&rec.detail};
  RenderDetail(e, sink);
  return rec;
}

std::string_view ReasonText(const LifecycleEvent& e) {
  return (e.fields & kFieldNote) != 0 && !e.note.empty()
             ? e.note
             : std::string_view(FlightReasonName(e.reason));
}

LifecycleLine& LifecycleLine::operator=(const LifecycleLine& other) {
  event = other.event;
  wall_us = other.wall_us;
  note = other.note;
  event.note = note;
  return *this;
}

Result<LifecycleLine> ParseLifecycleLine(std::string_view line) {
  FL_ASSIGN_OR_RETURN(const JournalRecord rec, JournalRecord::Parse(line));
  LifecycleLine out;
  LifecycleEvent& e = out.event;
  e.t = rec.sim_time;
  e.source = rec.source;
  e.kind = rec.event;
  e.device = rec.device;
  e.session = rec.session;
  e.round = rec.round;
  e.fields = 0;
  out.wall_us = rec.wall_us;
  std::string_view rest = rec.detail;
  while (!rest.empty()) {
    const std::size_t eq = rest.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgumentError("journal line: detail field without '='");
    }
    const std::string_view key = rest.substr(0, eq);
    rest.remove_prefix(eq + 1);
    // A reason is free text and runs to the end of the line.
    const std::size_t end = key == "reason" ? rest.size() : rest.find(' ');
    const std::string_view value = rest.substr(0, end);
    if (!ReadField(key, value, &out)) {
      return InvalidArgumentError("journal line: bad detail field '" +
                                  std::string(key) + "'");
    }
    rest = end < rest.size() ? rest.substr(end + 1) : std::string_view{};
  }
  e.note = out.note;
  if (RenderJournalRecord(e, out.wall_us).Serialize() != line) {
    return InvalidArgumentError("journal line: does not render back as is");
  }
  return out;
}

void Emit(LifecycleSink* reducers, const LifecycleEvent& e) {
  if (IsJournaled(e.kind)) {
    RecordFlight(e.t, e.source, e.kind, e.device, e.session, e.round,
                 static_cast<std::uint32_t>(e.a), FlightAuxB(e));
    if (JournalEnabled()) {
      Journal::Global().Append(RenderJournalRecord(e, telemetry::WallMicros()));
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

namespace {

// RecordSpans' span ids: the kind in the top byte, the round or session id
// below it, clear of the ids Tracer::Begin counts up from 1.
enum SpanKind : std::uint64_t {
  kRoundSpan = 1,
  kPhaseSpan = 2,  // + phase index: selection, configuration, reporting
  kSessionSpan = 5,
  kTrainSpan = 6,
  kUploadSpan = 7,
};

std::uint64_t SpanId(std::uint64_t kind, std::uint64_t id) {
  return kind << 56 | (id & ((std::uint64_t{1} << 56) - 1));
}

void OpenSpan(std::uint64_t id, const char* name, const LifecycleEvent& e,
              std::uint64_t parent, bool flow_parent = false) {
  telemetry::SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.sim_start = e.t;
  span.ctx_round = e.round.value;
  span.ctx_session = e.session.value;
  span.ctx_device = e.device.value;
  span.flow_parent = flow_parent;
  telemetry::Tracer::Global().Open(std::move(span));
}

}  // namespace

void RecordSpans(const LifecycleEvent& e) {
  if (!telemetry::Enabled()) return;
  auto& tracer = telemetry::Tracer::Global();
  const std::uint64_t round = SpanId(kRoundSpan, e.round.value);
  const std::uint64_t session = SpanId(kSessionSpan, e.session.value);
  const auto phase = [&](std::uint64_t index) {
    return SpanId(kPhaseSpan + index, e.round.value);
  };
  switch (e.kind) {
    case JournalEventKind::kRoundOpen:
      OpenSpan(round, "round", e, telemetry::Tracer::kNoParent);
      tracer.AddAttr(round, "round", std::to_string(e.round.value));
      tracer.AddAttr(round, "task", std::to_string(e.c));
      OpenSpan(phase(0), "phase:selection", e, round);
      break;
    case JournalEventKind::kPhase:
      if (e.a == 1) {
        tracer.End(phase(0), e.t);
        OpenSpan(phase(1), "phase:configuration", e, round);
        tracer.AddAttr(phase(1), "devices", std::to_string(e.b));
      } else if (e.a == 2) {
        tracer.AddAttr(phase(1), "aggregators", std::to_string(e.b));
        tracer.End(phase(1), e.t);
        OpenSpan(phase(2), "phase:reporting", e, round);
      }
      break;
    case JournalEventKind::kRoundCommit:
    case JournalEventKind::kRoundAbandoned:
    case JournalEventKind::kRoundOutcome:  // a no-op unless the master died
      tracer.End(phase(0), e.t);
      tracer.End(phase(2), e.t);
      tracer.AddAttr(round, "outcome", protocol::RoundOutcomeName(e.outcome));
      tracer.AddAttr(round, "contributors", std::to_string(e.a));
      tracer.End(round, e.t);
      break;
    case JournalEventKind::kPlanDownloaded:
      OpenSpan(session, "device_session", e, round, /*flow_parent=*/true);
      tracer.AddAttr(session, "device", std::to_string(e.device.value));
      tracer.AddAttr(session, "round", std::to_string(e.round.value));
      break;
    case JournalEventKind::kTrainStart:
      OpenSpan(SpanId(kTrainSpan, e.session.value), "device_train", e,
               session);
      break;
    case JournalEventKind::kTrainComplete:
      tracer.End(SpanId(kTrainSpan, e.session.value), e.t);
      break;
    case JournalEventKind::kUploadStart:
      OpenSpan(SpanId(kUploadSpan, e.session.value), "device_upload", e,
               session);
      break;
    case JournalEventKind::kUploadComplete:
    case JournalEventKind::kUploadRejected:
      tracer.End(SpanId(kUploadSpan, e.session.value), e.t);
      break;
    case JournalEventKind::kSessionEnd:
      tracer.End(SpanId(kTrainSpan, e.session.value), e.t);
      tracer.End(SpanId(kUploadSpan, e.session.value), e.t);
      tracer.AddAttr(session, "completed", e.a != 0 ? "1" : "0");
      tracer.End(session, e.t);
      break;
    default:
      break;
  }
}

}  // namespace fl::analytics

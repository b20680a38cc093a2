#include "src/analytics/flight_dump.h"

#include <unistd.h>

namespace fl::analytics {
namespace {

bool IsJournalKind(std::uint8_t source, std::uint8_t kind) {
  return source <= static_cast<std::uint8_t>(JournalSource::kSim) &&
         kind <= static_cast<std::uint8_t>(JournalEventKind::kSimRoundComplete);
}

// Inverse of the ring projection Emit() writes (aux_a = `a`; aux_b = the
// reason, the outcome + reason pair, or a saturated min_report): the fields
// the ring carries, as a LifecycleEvent the one renderer can format.
LifecycleEvent EventFromFlight(const telemetry::FlightRecord& f) {
  LifecycleEvent e;
  e.t = SimTime{static_cast<std::int64_t>(f.sim_ms)};
  e.source = static_cast<JournalSource>(f.source);
  e.kind = static_cast<JournalEventKind>(f.kind);
  e.device = DeviceId{f.device};
  e.session = SessionId{f.session};
  e.round = RoundId{f.round};
  e.a = f.aux_a;
  e.fields = kRingFields;
  const std::uint8_t lo = static_cast<std::uint8_t>(f.aux_b & 0xffu);
  const std::uint8_t hi = static_cast<std::uint8_t>(f.aux_b >> 8);
  switch (e.kind) {
    case JournalEventKind::kCheckinRejected:
    case JournalEventKind::kReportRejected:
    case JournalEventKind::kRoundAbandoned:
    case JournalEventKind::kRoundOutcome:
      e.reason = lo <= static_cast<std::uint8_t>(FlightReason::kOther)
                     ? static_cast<FlightReason>(lo)
                     : FlightReason::kOther;
      // High byte = RoundOutcome + 1; a missing or unknown code reads as a
      // failed round.
      e.outcome = hi >= 1 && hi <= 4
                      ? static_cast<protocol::RoundOutcome>(hi - 1)
                      : protocol::RoundOutcome::kFailed;
      break;
    case JournalEventKind::kRoundOpen:
    case JournalEventKind::kRoundCommit:
      e.b = f.aux_b;
      break;
    default:
      break;
  }
  return e;
}

// --- async-signal-safe formatting ---

void PutU64(char** p, std::uint64_t v) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *(*p)++ = tmp[--n];
}

void PutStr(char** p, const char* s) {
  while (*s != '\0') *(*p)++ = *s++;
}

void WriteAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return;  // best effort: the process is usually dying
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

// Worst case per line: 7 u64 fields + names + a ring-only detail.
constexpr std::size_t kMaxLine = 320;
constexpr std::size_t kMaxDetail = 160;

// One dump line, newline included, for `f`: the journal line for journal
// kinds, nothing (0) otherwise. No allocation or locking, so the crash path
// shares it with FlightDumpText().
std::size_t FormatLine(const telemetry::FlightRecord& f, char* buf) {
  if (!IsJournalKind(f.source, f.kind)) return 0;
  char* p = buf;
  PutU64(&p, f.sim_ms);
  *p++ = ' ';
  PutU64(&p, f.wall_us);
  *p++ = ' ';
  PutStr(&p, JournalSourceName(static_cast<JournalSource>(f.source)));
  *p++ = ' ';
  PutStr(&p, JournalEventName(static_cast<JournalEventKind>(f.kind)));
  for (const std::uint64_t id : {f.device, f.session, f.round}) {
    *p++ = ' ';
    PutU64(&p, id);
  }
  const std::size_t n = WriteDetail(EventFromFlight(f), p + 1, kMaxDetail);
  if (n > 0) {
    *p = ' ';
    p += n + 1;
  }
  *p++ = '\n';
  return static_cast<std::size_t>(p - buf);
}

}  // namespace

bool JournalRecordFromFlight(const telemetry::FlightRecord& rec,
                             JournalRecord* out) {
  if (!IsJournalKind(rec.source, rec.kind)) return false;
  *out = RenderJournalRecord(EventFromFlight(rec),
                             static_cast<std::int64_t>(rec.wall_us));
  return true;
}

std::string FlightDumpText() {
  std::string out = Journal::kHeader;
  out += '\n';
  char line[kMaxLine];
  for (const telemetry::FlightRecord& f :
       telemetry::FlightRecorder::Global().Snapshot()) {
    out.append(line, FormatLine(f, line));
  }
  return out;
}

std::size_t FlightDumpToFd(int fd) {
  static const char kHeaderLine[] = "#fl-journal v1\n";
  WriteAll(fd, kHeaderLine, sizeof(kHeaderLine) - 1);
  std::size_t written = 0;
  telemetry::FlightRecorder::Global().ForEachUnordered(
      [fd, &written](const telemetry::FlightRecord& f) {
        char line[kMaxLine];
        const std::size_t n = FormatLine(f, line);
        if (n == 0) return;
        WriteAll(fd, line, n);
        ++written;
      });
  return written;
}

}  // namespace fl::analytics

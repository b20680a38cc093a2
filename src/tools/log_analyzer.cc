#include "src/tools/log_analyzer.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "src/analytics/dashboard.h"

namespace fl::tools {
namespace {

using analytics::JournalEventKind;
using analytics::LifecycleEvent;
using analytics::RoundRecord;
using analytics::SessionEvent;

// Legal device session state machine (Table 1 glyph adjacency). '-' opens
// every session; '*' may follow any live state (device-side failure), '!'
// any assigned state (the agent only interrupts after 'v' marks
// assignment); '^', '#', '!', '*' are terminal.
bool LegalTransition(SessionEvent from, SessionEvent to) {
  switch (from) {
    case SessionEvent::kCheckin:
      return to == SessionEvent::kDownloadedPlan || to == SessionEvent::kError;
    case SessionEvent::kDownloadedPlan:
      return to == SessionEvent::kTrainingStarted ||
             to == SessionEvent::kInterrupted || to == SessionEvent::kError;
    case SessionEvent::kTrainingStarted:
      return to == SessionEvent::kTrainingCompleted ||
             to == SessionEvent::kInterrupted || to == SessionEvent::kError;
    case SessionEvent::kTrainingCompleted:
      return to == SessionEvent::kUploadStarted ||
             to == SessionEvent::kInterrupted || to == SessionEvent::kError;
    case SessionEvent::kUploadStarted:
      return to == SessionEvent::kUploadCompleted ||
             to == SessionEvent::kUploadRejected ||
             to == SessionEvent::kInterrupted || to == SessionEvent::kError;
    case SessionEvent::kUploadCompleted:
    case SessionEvent::kUploadRejected:
    case SessionEvent::kInterrupted:
    case SessionEvent::kError:
      return false;  // terminal
  }
  return false;
}

// Calls fn(line_no, line) for every non-empty, non-comment line.
template <typename Fn>
void ForEachLine(std::string_view text, Fn fn) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    ++line_no;
    if (!line.empty() && line.front() != '#') fn(line_no, line);
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
}

// The phase index of a phase entry; -1 for one past closing ("unknown").
int PhaseOrder(std::uint64_t phase) {
  return phase <= 3 ? static_cast<int>(phase) : -1;
}

// The record's phases, each lasting until the next one or `end`.
std::vector<PhaseSpan> PhaseSpans(const RoundRecord& r, SimTime end) {
  std::vector<PhaseSpan> spans;
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const SimTime next = i + 1 < r.phases.size() ? r.phases[i + 1].at : end;
    spans.push_back(PhaseSpan{analytics::PhaseName(r.phases[i].phase),
                              r.phases[i].at, next - r.phases[i].at});
  }
  return spans;
}

void RenderPhaseSpans(const std::vector<PhaseSpan>& spans,
                      std::ostringstream& out) {
  for (const PhaseSpan& phase : spans) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "    %-14s %s  +%.1fs\n",
                  phase.name.c_str(), FormatSimTime(phase.entered_at).c_str(),
                  phase.duration.Seconds());
    out << buf;
  }
}

struct SessionState {
  DeviceId device;
  std::vector<SessionEvent> events;
  SimTime last_time;
  std::size_t last_line = 0;
  bool report_accepted = false;  // server-side cross-join flag
  bool closed = false;           // session_end seen
};

struct RoundState {
  RoundRecord record;
  std::size_t last_line = 0;  // of the round's last server event
};

class Analyzer {
 public:
  AnalysisReport Run(std::string_view text) {
    ForEachLine(text, [this](std::size_t line_no, std::string_view line) {
      ++report_.lines;
      const auto parsed = analytics::ParseLifecycleLine(line);
      if (!parsed.ok()) {
        ++report_.parse_errors;
        report_.violations.push_back(InvariantViolation{
            "parse-error", line_no, DeviceId{}, SessionId{}, RoundId{},
            parsed.status().ToString()});
        return;
      }
      ++report_.records;
      Ingest(line_no, parsed->event);
    });
    for (const auto& [session, st] : sessions_) {
      if (!st.closed && !st.events.empty()) ++report_.sessions_open;
    }
    for (RoundState& round : rounds_) {
      report_.rounds.push_back(std::move(round.record));
    }
    return std::move(report_);
  }

 private:
  void Violate(std::string rule, std::size_t line, const LifecycleEvent& e,
               std::string message) {
    report_.violations.push_back(InvariantViolation{
        std::move(rule), line, e.device, e.session, e.round,
        std::move(message)});
  }

  // Per-round server events must arrive in sim-time order; a regression
  // means records were reordered after the fact.
  RoundState* TouchRound(std::size_t line, const LifecycleEvent& e) {
    const auto it = round_index_.find(e.round);
    if (it == round_index_.end()) {
      Violate("unknown-round", line, e,
              "event references a round with no round_open");
      return nullptr;
    }
    RoundState& round = rounds_[it->second];
    if (e.t < round.record.last_event_at) {
      Violate("out-of-order", line, e,
              "round event precedes line " + std::to_string(round.last_line) +
                  " in sim time");
    }
    round.last_line = line;
    return &round;
  }

  void Ingest(std::size_t line, const LifecycleEvent& e) {
    SessionEvent se;
    if (analytics::SessionEventForJournal(e.kind, &se)) {
      IngestDeviceEvent(line, e, se);
      return;
    }
    switch (e.kind) {
      case JournalEventKind::kSessionEnd: {
        SessionState& st = sessions_[e.session];
        st.closed = true;
        ++report_.sessions_closed;
        // The tally mirrors FleetStats' session_end rule: only sessions
        // with at least two events enter the Table 1 distribution.
        if (st.events.size() >= 2) {
          analytics::SessionTrace trace;
          trace.session = e.session;
          trace.device = st.device;
          trace.events = st.events;
          report_.tally.Record(trace);
        }
        return;
      }
      case JournalEventKind::kRoundOpen:
        round_index_[e.round] = rounds_.size();
        rounds_.push_back(RoundState{RoundRecord{}, line});
        FoldRound(rounds_.back().record, e);
        return;
      case JournalEventKind::kCheckinRejected:
        // Selector rejections carry no round; master/aggregator ones do.
        if (e.round.value == 0) return;
        break;
      case JournalEventKind::kReportAccepted:
        sessions_[e.session].report_accepted = true;
        break;
      case JournalEventKind::kPhase:
      case JournalEventKind::kReportRejected:
      case JournalEventKind::kRoundCommit:
      case JournalEventKind::kRoundAbandoned:
      case JournalEventKind::kRoundOutcome:
        break;
      default:
        return;  // selector admissions, modeling-sim markers
    }
    RoundState* round = TouchRound(line, e);
    if (round == nullptr) return;
    RoundRecord& r = round->record;
    if (e.kind == JournalEventKind::kPhase) {
      const int last = r.phases.empty() ? -1 : PhaseOrder(r.phases.back().phase);
      if (PhaseOrder(e.a) <= last) {
        Violate("phase-order", line, e,
                std::string("phase '") + analytics::PhaseName(e.a) +
                    "' out of order (after " +
                    (r.phases.empty()
                         ? "<none>"
                         : analytics::PhaseName(r.phases.back().phase)) +
                    ")");
      }
    }
    if (e.kind == JournalEventKind::kReportAccepted && e.a != 1) {
      // Plaintext accepts must land inside the reporting window; secagg
      // commits are exempt (phases 2/3 legitimately outlive the flush).
      const auto closing = std::find_if(
          r.phases.rbegin(), r.phases.rend(),
          [](const RoundRecord::PhaseEntry& p) { return p.phase == 3; });
      if (closing != r.phases.rend() && e.t > closing->at) {
        Violate("accept-after-close", line, e,
                "report accepted after the round's closing phase");
      }
    }
    FoldRound(r, e);
    if (e.kind != JournalEventKind::kRoundCommit) return;
    if (r.contributors < e.b) {
      Violate("commit-below-goal", line, e,
              "committed with " + std::to_string(r.contributors) +
                  " contributors; needs " + std::to_string(e.b));
    }
    // Commit accounting must equal the sum of journaled accepts: the
    // aggregators ship cumulative accepted bytes with every progress
    // message, so even a crashed cohort's accepts stay counted.
    if (r.has_commit_wire_bytes &&
        r.commit_wire_bytes != r.accepted_wire_bytes) {
      Violate("wire-bytes-mismatch", line, e,
              "commit wire_bytes=" + std::to_string(r.commit_wire_bytes) +
                  " but journaled accepts sum to " +
                  std::to_string(r.accepted_wire_bytes));
    }
  }

  void IngestDeviceEvent(std::size_t line, const LifecycleEvent& e,
                         SessionEvent se) {
    SessionState& st = sessions_[e.session];
    st.device = e.device;
    if (st.last_line != 0 && e.t < st.last_time) {
      Violate("out-of-order", line, e,
              "session event precedes line " + std::to_string(st.last_line) +
                  " in sim time");
    }
    st.last_time = e.t;
    st.last_line = line;
    if (st.closed) {
      Violate("device-transition", line, e,
              std::string("'") + analytics::SessionEventGlyph(se) +
                  "' after session_end");
    } else if (st.events.empty()) {
      if (se != SessionEvent::kCheckin) {
        Violate("device-transition", line, e,
                std::string("session opens with '") +
                    analytics::SessionEventGlyph(se) + "' instead of '-'");
      }
    } else if (!LegalTransition(st.events.back(), se)) {
      Violate("device-transition", line, e,
              std::string("illegal '") +
                  analytics::SessionEventGlyph(st.events.back()) + "' -> '" +
                  analytics::SessionEventGlyph(se) + "'");
    }
    if (se == SessionEvent::kUploadCompleted && !st.report_accepted) {
      // Cross-join with the server log: a device-side '^' must have a
      // matching aggregator report_accepted earlier in the journal.
      Violate("orphan-upload", line, e,
              "upload_complete with no server report_accepted");
    }
    st.events.push_back(se);
  }

  AnalysisReport report_;
  std::map<SessionId, SessionState> sessions_;
  std::vector<RoundState> rounds_;
  std::map<RoundId, std::size_t> round_index_;
};

// Reads a journal, or the flight_recorder.log of a diagnostic-bundle
// directory, so `fl_analyze <bundle-dir>` works like `fl_analyze <journal>`.
Result<std::string> ReadJournalText(const std::string& path) {
  std::string resolved = path;
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    resolved += "/flight_recorder.log";
  }
  std::ifstream in(resolved, std::ios::binary);
  if (!in) return UnavailableError("cannot open journal: " + resolved);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Per-session scratch while walking one round's device records.
struct DeviceBuild {
  CriticalPathReport::DeviceLatency d;
  SimTime train_start_at{};
  SimTime upload_start_at{};
  bool interrupted = false;
  bool error = false;
  bool rejected_late = false;
};

}  // namespace

AnalysisReport AnalyzeJournal(std::string_view text) {
  return Analyzer().Run(text);
}

Result<AnalysisReport> AnalyzeJournalFile(const std::string& path) {
  FL_ASSIGN_OR_RETURN(const std::string text, ReadJournalText(path));
  return AnalyzeJournal(text);
}

Result<CriticalPathReport> AnalyzeCriticalPathFile(const std::string& path,
                                                   RoundId round) {
  FL_ASSIGN_OR_RETURN(const std::string text, ReadJournalText(path));
  return AnalyzeCriticalPath(text, round);
}

CriticalPathReport AnalyzeCriticalPath(std::string_view text, RoundId round) {
  // Re-sort by sim time: flight-recorder dumps interleave per-thread rings
  // in capture order, not event order.
  std::vector<analytics::LifecycleLine> events;
  ForEachLine(text, [&](std::size_t, std::string_view line) {
    auto parsed = analytics::ParseLifecycleLine(line);
    if (parsed.ok() && parsed->event.round == round) {
      events.push_back(std::move(parsed).value());
    }
  });
  std::stable_sort(events.begin(), events.end(),
                   [](const analytics::LifecycleLine& a,
                      const analytics::LifecycleLine& b) {
                     return a.event.t < b.event.t;
                   });

  CriticalPathReport rep;
  rep.round = round;
  RoundRecord r;
  std::map<SessionId, DeviceBuild> devices;
  std::vector<SimTime> accept_times;
  SimTime last_event_at{};
  for (const analytics::LifecycleLine& line : events) {
    const LifecycleEvent& e = line.event;
    last_event_at = e.t;
    if (analytics::IsRoundFact(e)) FoldRound(r, e);
    SessionEvent se;
    const bool device_event = analytics::SessionEventForJournal(e.kind, &se);
    const bool late = e.kind == JournalEventKind::kReportRejected &&
                      e.reason == analytics::FlightReason::kLate;
    if (!device_event && !late &&
        e.kind != JournalEventKind::kReportAccepted) {
      continue;
    }
    DeviceBuild& b = devices[e.session];
    b.d.session = e.session;
    if (device_event || b.d.device.value == 0) b.d.device = e.device;
    if (late) b.rejected_late = true;
    if (e.kind == JournalEventKind::kReportAccepted) {
      b.d.accepted = true;
      b.d.accepted_at = e.t;
      accept_times.push_back(e.t);
    }
    if (!device_event) continue;
    switch (se) {
      case SessionEvent::kDownloadedPlan:
        b.d.configured_at = e.t;
        break;
      case SessionEvent::kTrainingStarted:
        b.d.train_started = true;
        b.train_start_at = e.t;
        break;
      case SessionEvent::kTrainingCompleted:
        b.d.trained = true;
        b.d.train_duration = e.t - b.train_start_at;
        break;
      case SessionEvent::kUploadStarted:
        b.upload_start_at = e.t;
        break;
      case SessionEvent::kUploadCompleted:
        b.d.uploaded = true;
        b.d.upload_duration = e.t - b.upload_start_at;
        break;
      case SessionEvent::kUploadRejected:
        b.rejected_late = true;
        break;
      case SessionEvent::kInterrupted:
        b.interrupted = true;
        break;
      case SessionEvent::kError:
        b.error = true;
        break;
      case SessionEvent::kCheckin:
        break;  // pre-assignment; carries no round in practice
    }
  }

  rep.found = r.opened;
  rep.goal = r.goal;
  rep.min_report = r.min_report;
  if (r.has_outcome) {
    rep.outcome = protocol::RoundOutcomeName(r.outcome);
  } else if (r.committed) {
    rep.outcome = "committed";
  }
  // A hand-written `reason=none` names no reason here.
  if (r.abort_reason != "none") rep.abort_reason = r.abort_reason;
  // The round ends at its commit/abandon/outcome, else at its last event.
  rep.round_end_at = r.committed || r.has_outcome ? r.ended_at : last_event_at;
  rep.reporting_at = r.opened_at;
  for (const RoundRecord::PhaseEntry& p : r.phases) {
    if (p.phase == 2) rep.reporting_at = p.at;
  }
  rep.phases = PhaseSpans(r, rep.round_end_at);
  for (const PhaseSpan& phase : rep.phases) {
    if (phase.duration >= rep.bounding_duration) {
      rep.bounding_phase = phase.name;
      rep.bounding_duration = phase.duration;
    }
  }

  rep.accepts = accept_times.size();
  if (!accept_times.empty()) {
    rep.first_accept_at = accept_times.front();
    rep.last_accept_at = accept_times.back();
    // The accept that satisfied the goal count; with fewer accepts than
    // min_report (an abandoned round), the wait ran to the last one seen.
    const std::size_t goal_index =
        rep.min_report == 0 ? accept_times.size()
                            : std::min(rep.min_report, accept_times.size());
    rep.goal_accept_at = accept_times[goal_index - 1];
    rep.goal_wait = rep.goal_accept_at - rep.reporting_at;
    rep.aggregation_wait = rep.round_end_at - rep.last_accept_at;
  }

  for (auto& [session, b] : devices) {
    if (b.d.accepted) {
      b.d.fate = "completed";
    } else if (b.rejected_late) {
      b.d.fate = "rejected_late";
    } else if (b.error) {
      b.d.fate = "error";
    } else if (b.interrupted) {
      b.d.fate = "interrupted";
    } else {
      b.d.fate = "silent";
    }
    if (b.d.fate != "completed") ++rep.stragglers;
    if (b.d.accepted &&
        (!rep.has_critical_device ||
         b.d.accepted_at > rep.critical_device.accepted_at)) {
      rep.has_critical_device = true;
      rep.critical_device = b.d;
    }
    rep.devices.push_back(std::move(b.d));
  }
  return rep;
}

std::string RenderCriticalPath(const CriticalPathReport& report) {
  std::ostringstream out;
  out << "Critical path for round " << report.round.value << ":\n";
  if (!report.found) {
    out << "  round not found (no round_open record)\n";
    if (report.devices.empty() && report.accepts == 0) return out.str();
    out << "  (partial view: ring buffers may have wrapped past the open)\n";
  }
  out << "  outcome: " << (report.outcome.empty() ? "open" : report.outcome);
  if (!report.abort_reason.empty()) {
    out << "  reason: " << report.abort_reason;
  }
  out << "\n  goal=" << report.goal << " min_report=" << report.min_report
      << " accepts=" << report.accepts << '\n';
  RenderPhaseSpans(report.phases, out);
  if (!report.bounding_phase.empty()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  bounding phase: %s (+%.1fs)\n",
                  report.bounding_phase.c_str(),
                  report.bounding_duration.Seconds());
    out << buf;
  }
  if (report.accepts > 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  reporting window: goal wait +%.1fs (accept %zu at %s), "
                  "aggregation wait +%.1fs\n",
                  report.goal_wait.Seconds(),
                  std::min(report.min_report == 0 ? report.accepts
                                                  : report.min_report,
                           report.accepts),
                  FormatSimTime(report.goal_accept_at).c_str(),
                  report.aggregation_wait.Seconds());
    out << buf;
  }
  out << "  devices: " << report.devices.size() << " configured, "
      << report.stragglers << " straggler(s)\n";
  for (const auto& d : report.devices) {
    out << "    device " << d.device.value << " session " << d.session.value
        << ": " << d.fate;
    if (d.trained) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "  train +%.1fs",
                    d.train_duration.Seconds());
      out << buf;
    } else if (d.train_started) {
      out << "  train started, never finished";
    }
    if (d.uploaded) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "  upload +%.1fs",
                    d.upload_duration.Seconds());
      out << buf;
    }
    if (d.accepted) {
      out << "  accepted " << FormatSimTime(d.accepted_at);
    }
    out << '\n';
  }
  if (report.has_critical_device) {
    out << "  critical device: " << report.critical_device.device.value
        << " (last accepted report, "
        << FormatSimTime(report.critical_device.accepted_at) << ")\n";
  } else if (report.stragglers > 0) {
    out << "  no accepted report bounded the round; see stragglers above\n";
  }
  return out.str();
}

std::string RenderRoundTimelines(const AnalysisReport& report) {
  std::ostringstream out;
  out << "Rounds (" << report.rounds.size() << "):\n";
  for (const RoundRecord& round : report.rounds) {
    out << "  round " << round.round.value << " opened "
        << FormatSimTime(round.opened_at);
    if (round.has_outcome) {
      out << "  outcome=" << protocol::RoundOutcomeName(round.outcome);
    }
    if (round.committed) out << "  contributors=" << round.contributors;
    if (round.goal != 0) out << "  goal=" << round.goal;
    out << '\n';
    RenderPhaseSpans(PhaseSpans(round, round.last_event_at), out);
    out << "    reports: " << round.reports_accepted << " accepted, "
        << round.reports_rejected << " rejected (" << round.stragglers
        << " stragglers); checkins rejected: " << round.checkins_rejected
        << '\n';
    if (round.accepted_wire_bytes != 0 || round.has_commit_wire_bytes) {
      out << "    traffic: " << round.accepted_wire_bytes
          << " upload bytes accepted";
      if (round.reports_accepted != 0) {
        out << " (" << round.accepted_wire_bytes / round.reports_accepted
            << " B/device)";
      }
      if (!round.codec.empty()) out << "  codec=" << round.codec;
      out << '\n';
    }
    if (!round.abort_reason.empty()) {
      out << "    abort: " << round.abort_reason << '\n';
    }
  }
  return out.str();
}

std::string RenderShapeTable(const AnalysisReport& report,
                             std::size_t max_rows) {
  return analytics::RenderSessionShapeTable(report.tally, max_rows);
}

std::string RenderViolations(const AnalysisReport& report) {
  std::ostringstream out;
  if (report.violations.empty()) {
    out << "No invariant violations.\n";
    return out.str();
  }
  out << report.violations.size() << " invariant violation(s):\n";
  for (const InvariantViolation& v : report.violations) {
    out << "  line " << v.line << " [" << v.rule << "]";
    if (v.device.value != 0) out << " device=" << v.device.value;
    if (v.session.value != 0) out << " session=" << v.session.value;
    if (v.round.value != 0) out << " round=" << v.round.value;
    out << ": " << v.message << '\n';
  }
  return out.str();
}

std::string RenderAnalysisReport(const AnalysisReport& report) {
  std::ostringstream out;
  out << "Journal: " << report.records << " records on " << report.lines
      << " lines (" << report.parse_errors << " parse errors), "
      << report.sessions_closed << " sessions closed, "
      << report.sessions_open << " still open.\n\n";
  out << RenderRoundTimelines(report) << '\n';
  out << "Session shapes (Table 1):\n"
      << RenderShapeTable(report) << '\n';
  out << RenderViolations(report);
  return out.str();
}

}  // namespace fl::tools

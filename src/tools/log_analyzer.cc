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
using analytics::JournalRecord;
using analytics::JournalSource;
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

// selection -> configuration -> reporting -> closing.
int PhaseIndex(std::string_view name) {
  if (name == "selection") return 0;
  if (name == "configuration") return 1;
  if (name == "reporting") return 2;
  if (name == "closing") return 3;
  return -1;
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
  RoundTimeline timeline;
  int last_phase_index = -1;
  bool has_closing = false;
  SimTime closing_at;
  SimTime last_time;
  std::size_t last_line = 0;
};

class Analyzer {
 public:
  AnalysisReport Run(std::string_view text) {
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t eol = text.find('\n', pos);
      std::string_view line =
          text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                         : eol - pos);
      ++line_no;
      if (!line.empty() && line.front() != '#') {
        ++report_.lines;
        auto rec = JournalRecord::Parse(line);
        if (!rec.ok()) {
          ++report_.parse_errors;
          report_.violations.push_back(InvariantViolation{
              "parse-error", line_no, DeviceId{}, SessionId{}, RoundId{},
              rec.status().ToString()});
        } else {
          ++report_.records;
          Ingest(line_no, *rec);
        }
      }
      if (eol == std::string_view::npos) break;
      pos = eol + 1;
    }
    Finish();
    return std::move(report_);
  }

 private:
  void Violate(std::string rule, std::size_t line, const JournalRecord& rec,
               std::string message) {
    report_.violations.push_back(InvariantViolation{
        std::move(rule), line, rec.device, rec.session, rec.round,
        std::move(message)});
  }

  RoundState* FindRound(RoundId round) {
    const auto it = round_index_.find(round);
    return it == round_index_.end() ? nullptr : &rounds_[it->second];
  }

  // Per-round server events must arrive in sim-time order; a regression
  // means records were reordered after the fact.
  RoundState* TouchRound(std::size_t line, const JournalRecord& rec) {
    RoundState* round = FindRound(rec.round);
    if (round == nullptr) {
      Violate("unknown-round", line, rec,
              "event references a round with no round_open");
      return nullptr;
    }
    if (round->last_line != 0 && rec.sim_time < round->last_time) {
      Violate("out-of-order", line, rec,
              "round event precedes line " +
                  std::to_string(round->last_line) + " in sim time");
    }
    round->last_time = rec.sim_time;
    round->last_line = line;
    round->timeline.last_event_at = rec.sim_time;
    return round;
  }

  void Ingest(std::size_t line, const JournalRecord& rec) {
    SessionEvent se;
    if (analytics::SessionEventForJournal(rec.event, &se)) {
      IngestDeviceEvent(line, rec, se);
      return;
    }
    switch (rec.event) {
      case JournalEventKind::kSessionEnd: {
        SessionState& st = sessions_[rec.session];
        st.closed = true;
        ++report_.sessions_closed;
        // The tally mirrors FleetStats' session_end rule: only sessions
        // with at least two events enter the Table 1 distribution.
        if (st.events.size() >= 2) {
          analytics::SessionTrace trace;
          trace.session = rec.session;
          trace.device = st.device;
          trace.events = st.events;
          report_.tally.Record(trace);
        }
        break;
      }
      case JournalEventKind::kRoundOpen: {
        RoundState state;
        state.timeline.round = rec.round;
        state.timeline.opened_at = rec.sim_time;
        state.timeline.last_event_at = rec.sim_time;
        state.timeline.goal = static_cast<std::size_t>(
            analytics::DetailInt(rec.detail, "goal", 0));
        state.timeline.min_report = static_cast<std::size_t>(
            analytics::DetailInt(rec.detail, "min_report", 0));
        state.last_time = rec.sim_time;
        state.last_line = line;
        round_index_[rec.round] = rounds_.size();
        rounds_.push_back(std::move(state));
        break;
      }
      case JournalEventKind::kPhase: {
        RoundState* round = TouchRound(line, rec);
        if (round == nullptr) break;
        std::string phase;
        analytics::DetailField(rec.detail, "phase", &phase);
        const int idx = PhaseIndex(phase);
        if (idx <= round->last_phase_index) {
          Violate("phase-order", line, rec,
                  "phase '" + phase + "' out of order (after " +
                      (round->timeline.phases.empty()
                           ? std::string("<none>")
                           : round->timeline.phases.back().name) +
                      ")");
        }
        round->last_phase_index = idx;
        round->timeline.phases.push_back(
            RoundTimeline::PhaseSpan{phase, rec.sim_time, Duration{}});
        if (phase == "closing") {
          round->has_closing = true;
          round->closing_at = rec.sim_time;
        }
        break;
      }
      case JournalEventKind::kReportAccepted: {
        RoundState* round = TouchRound(line, rec);
        sessions_[rec.session].report_accepted = true;
        if (round == nullptr) break;
        ++round->timeline.reports_accepted;
        round->timeline.accepted_wire_bytes = static_cast<std::uint64_t>(
            analytics::DetailInt(rec.detail, "wire_bytes", 0)) +
            round->timeline.accepted_wire_bytes;
        // Plaintext accepts must land inside the reporting window; secagg
        // commits are exempt (phases 2/3 legitimately outlive the flush).
        std::string mode;
        analytics::DetailField(rec.detail, "mode", &mode);
        if (round->has_closing && rec.sim_time > round->closing_at &&
            mode != "secagg") {
          Violate("accept-after-close", line, rec,
                  "report accepted after the round's closing phase");
        }
        break;
      }
      case JournalEventKind::kReportRejected: {
        RoundState* round = TouchRound(line, rec);
        if (round == nullptr) break;
        ++round->timeline.reports_rejected;
        std::string reason;
        analytics::DetailField(rec.detail, "reason", &reason);
        if (reason == "late") ++round->timeline.stragglers;
        break;
      }
      case JournalEventKind::kCheckinAccepted:
        break;  // selector-side; no round yet
      case JournalEventKind::kCheckinRejected: {
        // Selector rejections carry no round; master/aggregator ones do.
        if (rec.round.value == 0) break;
        RoundState* round = TouchRound(line, rec);
        if (round != nullptr) ++round->timeline.checkins_rejected;
        break;
      }
      case JournalEventKind::kRoundCommit: {
        RoundState* round = TouchRound(line, rec);
        if (round == nullptr) break;
        round->timeline.committed = true;
        round->timeline.contributors = static_cast<std::size_t>(
            analytics::DetailInt(rec.detail, "contributors", 0));
        const auto min_report = static_cast<std::size_t>(analytics::DetailInt(
            rec.detail, "min_report",
            static_cast<std::int64_t>(round->timeline.min_report)));
        if (round->timeline.contributors < min_report) {
          Violate("commit-below-goal", line, rec,
                  "committed with " +
                      std::to_string(round->timeline.contributors) +
                      " contributors; needs " + std::to_string(min_report));
        }
        analytics::DetailField(rec.detail, "codec", &round->timeline.codec);
        std::string wire;
        if (analytics::DetailField(rec.detail, "wire_bytes", &wire)) {
          round->timeline.has_commit_wire_bytes = true;
          round->timeline.commit_wire_bytes = static_cast<std::uint64_t>(
              analytics::DetailInt(rec.detail, "wire_bytes", 0));
          // Commit accounting must equal the sum of journaled accepts: the
          // aggregators ship cumulative accepted bytes with every progress
          // message, so even a crashed cohort's accepts stay counted.
          if (round->timeline.commit_wire_bytes !=
              round->timeline.accepted_wire_bytes) {
            Violate("wire-bytes-mismatch", line, rec,
                    "commit wire_bytes=" +
                        std::to_string(round->timeline.commit_wire_bytes) +
                        " but journaled accepts sum to " +
                        std::to_string(round->timeline.accepted_wire_bytes));
          }
        }
        break;
      }
      case JournalEventKind::kRoundAbandoned: {
        RoundState* round = TouchRound(line, rec);
        if (round == nullptr) break;
        std::string outcome;
        analytics::DetailField(rec.detail, "outcome", &outcome);
        round->timeline.outcome = outcome;
        std::string reason;
        if (analytics::DetailField(rec.detail, "reason", &reason)) {
          // The reason value runs to the next space; keep the free-form tail.
          const std::size_t at = rec.detail.find("reason=");
          round->timeline.abort_reason = rec.detail.substr(at + 7);
        }
        break;
      }
      case JournalEventKind::kRoundOutcome: {
        RoundState* round = TouchRound(line, rec);
        if (round == nullptr) break;
        std::string outcome;
        analytics::DetailField(rec.detail, "outcome", &outcome);
        round->timeline.outcome = outcome;
        std::string reason;
        if (round->timeline.abort_reason.empty() &&
            analytics::DetailField(rec.detail, "reason", &reason)) {
          round->timeline.abort_reason = reason;
        }
        break;
      }
      case JournalEventKind::kSimRoundStart:
      case JournalEventKind::kSimRoundComplete:
        break;  // modeling-sim markers; no protocol invariants
      default:
        break;
    }
  }

  void IngestDeviceEvent(std::size_t line, const JournalRecord& rec,
                         SessionEvent se) {
    SessionState& st = sessions_[rec.session];
    st.device = rec.device;
    if (st.last_line != 0 && rec.sim_time < st.last_time) {
      Violate("out-of-order", line, rec,
              "session event precedes line " + std::to_string(st.last_line) +
                  " in sim time");
    }
    st.last_time = rec.sim_time;
    st.last_line = line;
    if (st.closed) {
      Violate("device-transition", line, rec,
              std::string("'") + analytics::SessionEventGlyph(se) +
                  "' after session_end");
    } else if (st.events.empty()) {
      if (se != SessionEvent::kCheckin) {
        Violate("device-transition", line, rec,
                std::string("session opens with '") +
                    analytics::SessionEventGlyph(se) + "' instead of '-'");
      }
    } else if (!LegalTransition(st.events.back(), se)) {
      Violate("device-transition", line, rec,
              std::string("illegal '") +
                  analytics::SessionEventGlyph(st.events.back()) + "' -> '" +
                  analytics::SessionEventGlyph(se) + "'");
    }
    if (se == SessionEvent::kUploadCompleted && !st.report_accepted) {
      // Cross-join with the server log: a device-side '^' must have a
      // matching aggregator report_accepted earlier in the journal.
      Violate("orphan-upload", line, rec,
              "upload_complete with no server report_accepted");
    }
    st.events.push_back(se);
  }

  void Finish() {
    for (const auto& [session, st] : sessions_) {
      if (!st.closed && !st.events.empty()) ++report_.sessions_open;
    }
    report_.rounds.reserve(rounds_.size());
    for (RoundState& round : rounds_) {
      // Phase durations: to the next phase, or to the round's last event.
      auto& phases = round.timeline.phases;
      for (std::size_t i = 0; i < phases.size(); ++i) {
        const SimTime end = i + 1 < phases.size()
                                ? phases[i + 1].entered_at
                                : round.timeline.last_event_at;
        phases[i].duration = end - phases[i].entered_at;
      }
      report_.rounds.push_back(std::move(round.timeline));
    }
  }

  AnalysisReport report_;
  std::map<SessionId, SessionState> sessions_;
  std::vector<RoundState> rounds_;
  std::map<RoundId, std::size_t> round_index_;
};

}  // namespace

AnalysisReport AnalyzeJournal(std::string_view text) {
  return Analyzer().Run(text);
}

namespace {

// A diagnostic-bundle directory stands in for its flight-recorder dump, so
// `fl_analyze <bundle-dir>` works the same as `fl_analyze <journal>`.
std::string ResolveJournalPath(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    return path + "/flight_recorder.log";
  }
  return path;
}

}  // namespace

Result<AnalysisReport> AnalyzeJournalFile(const std::string& path) {
  const std::string resolved = ResolveJournalPath(path);
  std::ifstream in(resolved, std::ios::binary);
  if (!in) {
    return UnavailableError("cannot open journal: " + resolved);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return AnalyzeJournal(buf.str());
}

Result<CriticalPathReport> AnalyzeCriticalPathFile(const std::string& path,
                                                   RoundId round) {
  const std::string resolved = ResolveJournalPath(path);
  std::ifstream in(resolved, std::ios::binary);
  if (!in) {
    return UnavailableError("cannot open journal: " + resolved);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return AnalyzeCriticalPath(buf.str(), round);
}

namespace {

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

CriticalPathReport AnalyzeCriticalPath(std::string_view text, RoundId round) {
  // Parse every record up front and re-sort by sim time: flight-recorder
  // dumps interleave per-thread rings in capture order, not event order.
  std::vector<JournalRecord> records;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    if (!line.empty() && line.front() != '#') {
      auto rec = JournalRecord::Parse(line);
      if (rec.ok()) records.push_back(std::move(*rec));
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const JournalRecord& a, const JournalRecord& b) {
                     return a.sim_time < b.sim_time;
                   });

  CriticalPathReport rep;
  rep.round = round;
  std::map<SessionId, DeviceBuild> devices;
  std::vector<SimTime> accept_times;
  SimTime opened_at{};
  SimTime last_event_at{};
  bool has_reporting_at = false;
  bool ended = false;

  for (const JournalRecord& rec : records) {
    if (rec.round != round) continue;
    last_event_at = rec.sim_time;
    SessionEvent se;
    if (analytics::SessionEventForJournal(rec.event, &se)) {
      DeviceBuild& b = devices[rec.session];
      b.d.session = rec.session;
      b.d.device = rec.device;
      switch (se) {
        case SessionEvent::kDownloadedPlan:
          b.d.configured_at = rec.sim_time;
          break;
        case SessionEvent::kTrainingStarted:
          b.d.train_started = true;
          b.train_start_at = rec.sim_time;
          break;
        case SessionEvent::kTrainingCompleted:
          b.d.trained = true;
          b.d.train_duration = rec.sim_time - b.train_start_at;
          break;
        case SessionEvent::kUploadStarted:
          b.upload_start_at = rec.sim_time;
          break;
        case SessionEvent::kUploadCompleted:
          b.d.uploaded = true;
          b.d.upload_duration = rec.sim_time - b.upload_start_at;
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
      continue;
    }
    switch (rec.event) {
      case JournalEventKind::kRoundOpen:
        rep.found = true;
        opened_at = rec.sim_time;
        rep.goal = static_cast<std::size_t>(
            analytics::DetailInt(rec.detail, "goal", 0));
        rep.min_report = static_cast<std::size_t>(
            analytics::DetailInt(rec.detail, "min_report", 0));
        break;
      case JournalEventKind::kPhase: {
        std::string phase;
        analytics::DetailField(rec.detail, "phase", &phase);
        rep.phases.push_back(
            RoundTimeline::PhaseSpan{phase, rec.sim_time, Duration{}});
        if (phase == "reporting") {
          rep.reporting_at = rec.sim_time;
          has_reporting_at = true;
        }
        break;
      }
      case JournalEventKind::kReportAccepted: {
        DeviceBuild& b = devices[rec.session];
        b.d.session = rec.session;
        if (b.d.device.value == 0) b.d.device = rec.device;
        b.d.accepted = true;
        b.d.accepted_at = rec.sim_time;
        accept_times.push_back(rec.sim_time);
        break;
      }
      case JournalEventKind::kReportRejected: {
        std::string reason;
        analytics::DetailField(rec.detail, "reason", &reason);
        if (reason == "late") {
          DeviceBuild& b = devices[rec.session];
          b.d.session = rec.session;
          if (b.d.device.value == 0) b.d.device = rec.device;
          b.rejected_late = true;
        }
        break;
      }
      case JournalEventKind::kRoundCommit:
        if (rep.outcome.empty()) rep.outcome = "committed";
        rep.round_end_at = rec.sim_time;
        ended = true;
        break;
      case JournalEventKind::kRoundAbandoned: {
        std::string outcome;
        if (analytics::DetailField(rec.detail, "outcome", &outcome)) {
          rep.outcome = outcome;
        }
        const std::size_t at = rec.detail.find("reason=");
        if (at != std::string::npos) {
          rep.abort_reason = rec.detail.substr(at + 7);
        }
        rep.round_end_at = rec.sim_time;
        ended = true;
        break;
      }
      case JournalEventKind::kRoundOutcome: {
        std::string outcome;
        if (analytics::DetailField(rec.detail, "outcome", &outcome)) {
          rep.outcome = outcome;
        }
        std::string reason;
        if (rep.abort_reason.empty() &&
            analytics::DetailField(rec.detail, "reason", &reason) &&
            reason != "none") {
          rep.abort_reason = reason;
        }
        rep.round_end_at = rec.sim_time;
        ended = true;
        break;
      }
      default:
        break;
    }
  }

  if (!ended) rep.round_end_at = last_event_at;
  if (!has_reporting_at) rep.reporting_at = opened_at;

  // Phase durations: to the next phase, or to the round's end.
  for (std::size_t i = 0; i < rep.phases.size(); ++i) {
    const SimTime end = i + 1 < rep.phases.size()
                            ? rep.phases[i + 1].entered_at
                            : rep.round_end_at;
    rep.phases[i].duration = end - rep.phases[i].entered_at;
    if (rep.phases[i].duration >= rep.bounding_duration) {
      rep.bounding_phase = rep.phases[i].name;
      rep.bounding_duration = rep.phases[i].duration;
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
  for (const auto& phase : report.phases) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "    %-14s %s  +%.1fs\n",
                  phase.name.c_str(),
                  FormatSimTime(phase.entered_at).c_str(),
                  phase.duration.Seconds());
    out << buf;
  }
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
  for (const RoundTimeline& round : report.rounds) {
    out << "  round " << round.round.value << " opened "
        << FormatSimTime(round.opened_at);
    if (!round.outcome.empty()) out << "  outcome=" << round.outcome;
    if (round.committed) out << "  contributors=" << round.contributors;
    if (round.goal != 0) out << "  goal=" << round.goal;
    out << '\n';
    for (const auto& phase : round.phases) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "    %-14s %s  +%.1fs\n",
                    phase.name.c_str(),
                    FormatSimTime(phase.entered_at).c_str(),
                    phase.duration.Seconds());
      out << buf;
    }
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

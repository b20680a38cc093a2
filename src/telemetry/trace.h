// Round-phase tracer (Sec. 2.2 / Sec. 5): records spans — named intervals
// with SimTime and wall-clock bounds, a parent link, and free-form
// attributes (round / session / device ids) — exported as Chrome
// `trace_event` JSON loadable in Perfetto (src/telemetry/export.h).
//
// Two ways in:
//  * Open() with a SpanRecord whose id, parent and sim time the caller
//    chose — for a view that derives its spans from records it reads. The
//    round, phase and device-session spans of the fleet are such a view of
//    the lifecycle stream (analytics::RecordSpans), so the FL system itself
//    opens no span.
//  * ScopedSpan — RAII for code whose lifetime is a C++ scope (the parallel
//    round engine's per-round and per-client-update work). These are
//    wall-clock spans; nesting parents are tracked per thread, so
//    concurrent workers build correct trees, and cross-thread children can
//    name their parent explicitly.
//
// Instrumentation sites gate on telemetry::Enabled(); the disabled path of
// ScopedSpan is one branch with no locking or allocation (name is a
// const char*, so not even a std::string is built).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"
#include "src/telemetry/telemetry.h"

namespace fl::telemetry {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  SimTime sim_start{};
  SimTime sim_end{};
  std::int64_t wall_start_us = 0;
  std::int64_t wall_end_us = 0;
  std::uint32_t tid = 0;  // ThreadOrdinal() of the opening thread
  // The round / session / device the span belongs to (0 = none).
  // `flow_parent` marks a parent on another actor (a device session under
  // its round); the exporter draws these links as Perfetto flow arrows.
  std::uint64_t ctx_round = 0;
  std::uint64_t ctx_session = 0;
  std::uint64_t ctx_device = 0;
  bool flow_parent = false;
  std::vector<std::pair<std::string, std::string>> attrs;
};

class Tracer {
 public:
  // Explicit "no parent".
  static constexpr std::uint64_t kNoParent = 0;
  // Inherit the calling thread's innermost open ScopedSpan (if any).
  static constexpr std::uint64_t kInheritParent = ~0ull;

  static Tracer& Global();

  // Opens `span` as given (name, parent, sim_start, ids, attributes) and
  // stamps its wall start and thread. An id of 0 takes the next free id,
  // counting up from 1; a caller that picks its own ids keeps them clear of
  // that range. Returns the id; an id already open is left as it is.
  // Instrumentation sites check Enabled() first; calling the tracer
  // directly always records, which lets tests drive it deterministically.
  std::uint64_t Open(SpanRecord span);
  // Open() under the next free id.
  std::uint64_t Begin(std::string name, SimTime sim_now = SimTime{},
                      std::uint64_t parent = kInheritParent);
  // Attaches an attribute to an open span; ignored after End.
  void AddAttr(std::uint64_t span, std::string key, std::string value);
  // Closes the span; ignored for unknown/closed ids.
  void End(std::uint64_t span, SimTime sim_now = SimTime{});

  std::vector<SpanRecord> Completed() const;
  std::size_t open_spans() const;
  std::uint64_t dropped_spans() const;
  // Discards all open and completed spans (tests, or between experiment
  // phases).
  void Clear();

  // Completed spans beyond this cap are dropped (counted in
  // dropped_spans()) so multi-day fleet simulations cannot grow unbounded.
  static constexpr std::size_t kMaxCompleted = 1 << 20;

 private:
  friend class ScopedSpan;
  static std::vector<std::uint64_t>& ThreadStack();

  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::unordered_map<std::uint64_t, SpanRecord> open_;
  std::deque<SpanRecord> completed_;
};

// RAII wall-clock span over the global tracer; see file comment.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name,
                      std::uint64_t parent = Tracer::kInheritParent) {
    if (Enabled()) Open(name, parent);
  }
  ~ScopedSpan() {
    if (id_ != 0) Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // 0 when the span is inactive (telemetry disabled at construction).
  std::uint64_t id() const { return id_; }
  void AddAttr(const char* key, std::string value) {
    if (id_ != 0) Tracer::Global().AddAttr(id_, key, std::move(value));
  }

 private:
  void Open(const char* name, std::uint64_t parent);
  void Close();

  std::uint64_t id_ = 0;
};

}  // namespace fl::telemetry

// Causal trace context (Sec. 4.1 / Sec. 8 diagnosis): a compact record of
// "which round / session / device caused this work", carried implicitly
// through actor messages so spans opened on different actors (device agent →
// selector → aggregator → master aggregator) link into one tree per round.
//
// The context is a thread-local value, not a span: installing it costs four
// u64 stores and no locking, so the actor runtime can stamp every envelope
// even with telemetry OFF. Only Tracer::Begin acts on it (envelopes and
// TaskAssignment just carry it along; the flight recorder takes its ids from
// the lifecycle events), and instrumentation sites already gate that on
// telemetry::Enabled().
//
// Propagation rules:
//  * ActorSystem::Send captures the sender's current context into the
//    envelope; Drain installs it around OnMessage (ScopedTraceContext).
//  * SendAfter captures at call time (the timer fires on a neutral stack).
//  * Server → device crosses the event queue as plain callbacks, so
//    TaskAssignment carries the context explicitly and the device agent
//    installs it for the session's lifetime.
#pragma once

#include <cstdint>

namespace fl::telemetry {

struct TraceContext {
  std::uint64_t round = 0;        // RoundId::value, 0 = none
  std::uint64_t session = 0;      // SessionId::value, 0 = none
  std::uint64_t device = 0;       // DeviceId::value, 0 = none
  std::uint64_t parent_span = 0;  // span id to parent orphan spans under

  constexpr bool empty() const {
    return round == 0 && session == 0 && device == 0 && parent_span == 0;
  }
  constexpr bool operator==(const TraceContext&) const = default;
};

// The calling thread's ambient context. Mutable: actor Drain and device
// callbacks install/restore it via ScopedTraceContext.
inline TraceContext& CurrentTraceContext() {
  thread_local TraceContext ctx;
  return ctx;
}

// RAII install/restore. Restores the previous context even on exceptions so
// nested message deliveries (Drain re-entrancy through direct calls) cannot
// leak a stale context.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx)
      : saved_(CurrentTraceContext()) {
    CurrentTraceContext() = ctx;
  }
  ~ScopedTraceContext() { CurrentTraceContext() = saved_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace fl::telemetry

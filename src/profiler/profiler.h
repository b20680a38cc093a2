// Continuous profiling plane (Sec. 4 / Sec. 8: pace steering and round
// pipelining were tuned by watching where server time actually goes; Papaya
// reports production FL throughput work is driven by continuous profiling of
// the aggregation hot path). This header is the master switch plus the
// phase-tagging vocabulary shared by the CPU sampler (cpu_profiler.h) and
// the heap sampler (heap_profiler.h).
//
// Two gates, both defaulting to "off costs nothing", mirroring telemetry:
//  * Compile time: -DFL_PROFILER=OFF (CMake option) defines
//    FL_PROFILER_DISABLED, turning Enabled() into a constant false so every
//    hook (including the operator new/delete interposition) compiles out.
//  * Run time: Enabled() is one relaxed atomic load, initialized from the
//    FL_PROFILER environment variable on first use and flippable in-process
//    (tests, benches). Disabled sites pay one predictable branch.
//
// Phase tags: profiling samples answer "where do cycles go", but an FL
// server also needs "during which part of the protocol". Every sample
// (CPU and heap) snapshots a thread-local ProfileTag {round, phase, actor}
// maintained by RAII ScopedPhase/ScopedActor guards at the protocol sites
// (device training, selector check-in, aggregation, SecAgg, round phases).
// The tag is a constant-initialized POD thread_local so the SIGPROF handler
// can read it without TLS-guard or allocation hazards: a signal interrupts
// the very thread that owns the tag, so the read is always consistent.
//
// Header-only on purpose (like telemetry.h): json_writer.h stamps the
// profiler state into every BENCH_*.json without linking fl_profiler.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace fl::profiler {

// The protocol phase a thread is working on. kNone means "runtime
// bookkeeping" (event queue, network sim, stats) — anything not attributable
// to a round phase. Keep the numbering stable: it is packed into profile
// ring slots and decoded by offline tooling.
enum class Phase : std::uint8_t {
  kNone = 0,
  kCheckin = 1,        // device check-in / selection handshake
  kSelection = 2,      // selector + master selection window
  kConfiguration = 3,  // coordinator round planning / plan distribution
  kTraining = 4,       // device-side plan execution (ClientUpdate)
  kReporting = 5,      // device upload encode + reporting window
  kAggregation = 6,    // server-side accumulate / merge / finalize
  kSecAgg = 7,         // masked-input protocol, both sides
  kClosing = 8,        // round close / commit / model publish
  kCount = 9,
};

constexpr const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kNone: return "none";
    case Phase::kCheckin: return "checkin";
    case Phase::kSelection: return "selection";
    case Phase::kConfiguration: return "configuration";
    case Phase::kTraining: return "training";
    case Phase::kReporting: return "reporting";
    case Phase::kAggregation: return "aggregation";
    case Phase::kSecAgg: return "secagg";
    case Phase::kClosing: return "closing";
    case Phase::kCount: break;
  }
  return "unknown";
}

// Parses a PhaseName() string back to its Phase; kCount on no match (the
// folded-profile reader uses this for round-trips).
inline Phase ParsePhaseName(const char* name) {
  for (std::uint8_t i = 0; i < static_cast<std::uint8_t>(Phase::kCount); ++i) {
    if (std::strcmp(name, PhaseName(static_cast<Phase>(i))) == 0) {
      return static_cast<Phase>(i);
    }
  }
  return Phase::kCount;
}

// Actor-type codes for the third tag dimension (which server component was
// running). 0 = not inside an actor.
enum class ActorTag : std::uint8_t {
  kNone = 0,
  kCoordinator = 1,
  kSelector = 2,
  kMasterAggregator = 3,
  kAggregator = 4,
  kOther = 5,
};

constexpr const char* ActorTagName(ActorTag a) {
  switch (a) {
    case ActorTag::kNone: return "none";
    case ActorTag::kCoordinator: return "coordinator";
    case ActorTag::kSelector: return "selector";
    case ActorTag::kMasterAggregator: return "master_aggregator";
    case ActorTag::kAggregator: return "aggregator";
    case ActorTag::kOther: return "actor";
  }
  return "unknown";
}

#ifdef FL_PROFILER_DISABLED
inline constexpr bool kCompiledIn = false;
constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}
#else
inline constexpr bool kCompiledIn = true;

namespace internal {
// -1 = not yet initialized from the environment; 0/1 = off/on. Constant-
// initialized (no static guard) so the very first operator new of the
// process — which may run before any static constructor — can consult it
// without re-entering a guard acquisition.
inline std::atomic<int> g_enabled{-1};

inline int InitEnabledFromEnv() {
  bool on = false;
  if (const char* env = std::getenv("FL_PROFILER")) {
    on = !(env[0] == '\0' || std::strcmp(env, "0") == 0 ||
           std::strcmp(env, "off") == 0 || std::strcmp(env, "OFF") == 0);
  }
  int v = on ? 1 : 0;
  // A racing SetEnabled() wins: only replace the -1 sentinel.
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed);
}
}  // namespace internal

inline bool Enabled() {
  int v = internal::g_enabled.load(std::memory_order_relaxed);
  if (v < 0) v = internal::InitEnabledFromEnv();
  return v == 1;
}
inline void SetEnabled(bool on) {
  internal::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}
#endif

// The per-thread tag snapshotted into every sample. POD with constant
// initialization: reads from the SIGPROF handler see whatever the
// interrupted thread last stored — always internally consistent because
// signal and mutator share one thread.
struct ProfileTag {
  std::uint32_t round = 0;
  std::uint8_t phase = 0;  // Phase
  std::uint8_t actor = 0;  // ActorTag
};

namespace internal {
inline thread_local ProfileTag g_tag;
}  // namespace internal

inline const ProfileTag& CurrentTag() { return internal::g_tag; }

// RAII phase scope. One Enabled() branch when profiling is off (the
// disabled fleet-sim path must stay within the 2% gate), four byte-stores
// when on. Restores the previous tag so nested scopes (training inside a
// check-in callback) unwind correctly.
class ScopedPhase {
 public:
  ScopedPhase(Phase phase, std::uint64_t round = 0) {
#ifndef FL_PROFILER_DISABLED
    if (Enabled()) {
      active_ = true;
      saved_ = internal::g_tag;
      internal::g_tag.phase = static_cast<std::uint8_t>(phase);
      if (round != 0) {
        internal::g_tag.round = static_cast<std::uint32_t>(round);
      }
    }
#else
    (void)phase;
    (void)round;
#endif
  }
  ~ScopedPhase() {
#ifndef FL_PROFILER_DISABLED
    if (active_) internal::g_tag = saved_;
#endif
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
#ifndef FL_PROFILER_DISABLED
  ProfileTag saved_;
  bool active_ = false;
#endif
};

// RAII actor-type scope, installed by the actor runtime around OnMessage.
class ScopedActor {
 public:
  explicit ScopedActor(ActorTag actor) {
#ifndef FL_PROFILER_DISABLED
    if (Enabled()) {
      active_ = true;
      saved_ = internal::g_tag;
      internal::g_tag.actor = static_cast<std::uint8_t>(actor);
    }
#else
    (void)actor;
#endif
  }
  ~ScopedActor() {
#ifndef FL_PROFILER_DISABLED
    if (active_) internal::g_tag = saved_;
#endif
  }
  ScopedActor(const ScopedActor&) = delete;
  ScopedActor& operator=(const ScopedActor&) = delete;

 private:
#ifndef FL_PROFILER_DISABLED
  ProfileTag saved_;
  bool active_ = false;
#endif
};

}  // namespace fl::profiler

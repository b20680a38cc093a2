// Telemetry master switch (Sec. 5: analytics as a first-class subsystem).
//
// Two gates, both defaulting to "off costs nothing":
//  * Compile time: building with -DFL_TELEMETRY=OFF (CMake option) defines
//    FL_TELEMETRY_DISABLED, which turns Enabled() into a constant false so
//    every instrumentation site folds away entirely.
//  * Run time: Enabled() is a single relaxed atomic load. Instrumentation
//    sites are written as `if (telemetry::Enabled()) { ... }`, so a disabled
//    deployment pays ~one predictable branch per site and performs no
//    allocation, locking, or atomic RMW (measured by bench_overhead into
//    BENCH_overhead.json, and checked by the zero-allocation test).
//
// The flag is a header-inline atomic so that headers (e.g. bench_common.h)
// can consult it without linking fl_telemetry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace fl::telemetry {

#ifdef FL_TELEMETRY_DISABLED
inline constexpr bool kCompiledIn = false;
constexpr bool Enabled() { return false; }
inline void SetEnabled(bool) {}
#else
inline constexpr bool kCompiledIn = true;

namespace internal {
inline std::atomic<bool> g_enabled{false};
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}
#endif

// Small dense per-thread ordinal, assigned on first use. Shared by the
// counter cell sharding and the tracer's Perfetto `tid` field, so one
// thread's work lines up across both views.
inline std::size_t ThreadOrdinal() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

// Monotonic wall clock in microseconds (steady_clock; origin is the first
// call in the process). SimTime stays the primary clock for everything
// event-driven; wall time exists for the thread-pool paths that run outside
// the discrete-event simulator.
inline std::int64_t WallMicros() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace fl::telemetry

// The runtime on/off switch for observability, separated from
// obs/metrics.hpp and obs/events.hpp so both can depend on it without a
// header cycle.
//
// Compile-time gating (the PARGREEDY_OBS seam) lives in obs/obs.hpp;
// this header is the RUNTIME half: `enabled()` answers "should
// instrumentation sites record right now?". First call resolves the
// PARGREEDY_OBS environment variable (default: on); `set_enabled()`
// overrides it for the rest of the process (tests, benches isolating
// overhead).
#pragma once

#include <atomic>

namespace pargreedy::obs {

namespace detail {
// -1 = not yet resolved from the environment, else 0/1.
extern std::atomic<int> g_enabled;
bool resolve_enabled() noexcept;
}  // namespace detail

/// True when instrumentation sites should record. One relaxed load on
/// every call after the first.
inline bool enabled() noexcept {
  int v = detail::g_enabled.load(std::memory_order_relaxed);
  if (v < 0) return detail::resolve_enabled();
  return v != 0;
}

/// Force the runtime switch, overriding the environment.
void set_enabled(bool on) noexcept;

}  // namespace pargreedy::obs

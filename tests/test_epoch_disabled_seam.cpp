// The PARGREEDY_OBS=0 case for the lock-free reader path: this whole
// executable is compiled with the observability seam forced off (the
// define below precedes every include, and tests/CMakeLists.txt also
// sets it on the target) and deliberately links NOTHING — no pargreedy
// library, no obs objects. If any PG_OBS_* instrumentation in
// txn/epoch.hpp or txn/published_state.hpp survived the seam, the
// MetricsRegistry symbols would be unresolved and the *link* would
// fail. A green run therefore proves the reader hot path (pin, window
// read, versioned read, unpin) compiles to zero instrumentation — and
// the assertions below prove it still behaves identically.
//
// Not a gtest TU (it must stay standalone): plain asserts via
// PG_CHECK, exit code is the verdict.
#define PARGREEDY_OBS 0

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "txn/epoch.hpp"
#include "txn/published_state.hpp"

int main() {
  using pargreedy::EpochManager;
  using pargreedy::PublishedState;
  using pargreedy::ReadGuard;

  PublishedState<uint8_t> state(3, 0, std::vector<uint8_t>{0, 1});
  {
    pargreedy::support::RoleScope writer(state.writer_role_);
    for (uint64_t v = 1; v <= 4; ++v)
      state.publish(v, v, {{0, static_cast<uint8_t>(v & 1)}});
  }

  // The reader hot path, seam off: everything must behave exactly as in
  // the instrumented build (test_epoch.cpp asserts the same facts).
  PG_CHECK(state.latest_version() == 4);
  PG_CHECK(state.oldest_version() == 2);
  {
    ReadGuard guard(state.epochs_);
    PG_CHECK(guard.pinned_epoch() == state.epochs_.current_epoch());
    PG_CHECK(state.epochs_.active_pins() == 1);
    const auto& latest = state.latest(guard);
    PG_CHECK(latest.version == 4);
    PG_CHECK(latest.verify_checksum());
    PG_CHECK(state.at(2, guard).solution[0] == 0);
  }
  PG_CHECK(state.epochs_.active_pins() == 0);
  PG_CHECK(state.acquire()->solution == (std::vector<uint8_t>{0, 1}));

  bool threw = false;
  try {
    (void)state.acquire(1);  // evicted
  } catch (const pargreedy::CheckFailure&) {
    threw = true;
  }
  PG_CHECK(threw);
  return 0;
}

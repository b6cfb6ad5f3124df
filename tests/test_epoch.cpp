// Unit tests for the epoch machinery in isolation (txn/epoch.hpp,
// txn/published_state.hpp): pin/unpin nesting, reclamation ordering (no
// table freed while a guard pins an epoch at or below its retire
// epoch), misuse behavior (slot exhaustion and out-of-retention reads
// throw; a guard outliving its manager is inert, not UB), torn-read
// checksums and their O(1)-per-entry patching, and the PARGREEDY_OBS=0
// companion TU (test_epoch_disabled_seam.cpp) proving the reader hot
// path compiles to no instrumentation.
//
// (The disabled-seam case is a *separate executable*, not a companion
// TU in this binary: ReadGuard/PublishedState are instantiated by both
// sides, so mixing seam-ON and seam-OFF definitions of the same inline
// functions in one binary would be an ODR violation. The standalone
// binary is compiled entirely with PARGREEDY_OBS=0 and links no obs
// code at all — any instrumentation surviving the seam is a link
// error, which is a stronger proof than a runtime probe.)
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "graph/types.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "txn/epoch.hpp"
#include "txn/published_state.hpp"

namespace pargreedy {
namespace {

std::vector<uint8_t> bits(std::initializer_list<int> vs) {
  std::vector<uint8_t> out;
  for (int v : vs) out.push_back(static_cast<uint8_t>(v));
  return out;
}

using Changes = std::vector<EntryChange<uint8_t>>;

// ---- EpochManager ----------------------------------------------------

TEST(Epoch, StartsAtOneWithNoPins) {
  EpochManager mgr;
  EXPECT_EQ(mgr.current_epoch(), 1u);
  EXPECT_EQ(mgr.active_pins(), 0u);
  EXPECT_EQ(mgr.min_pinned(), std::numeric_limits<uint64_t>::max());
}

TEST(Epoch, AdvanceIsMonotonic) {
  EpochManager mgr;
  support::RoleScope writer(mgr.writer_role_);
  EXPECT_EQ(mgr.advance(), 2u);
  EXPECT_EQ(mgr.advance(), 3u);
  EXPECT_EQ(mgr.current_epoch(), 3u);
}

TEST(Epoch, GuardPinsCurrentEpochAndUnpinsOnDestruction) {
  EpochManager mgr;
  {
    ReadGuard guard(mgr);
    EXPECT_EQ(guard.pinned_epoch(), 1u);
    EXPECT_EQ(mgr.active_pins(), 1u);
    EXPECT_EQ(mgr.min_pinned(), 1u);
  }
  EXPECT_EQ(mgr.active_pins(), 0u);
  EXPECT_EQ(mgr.min_pinned(), std::numeric_limits<uint64_t>::max());
}

TEST(Epoch, GuardsNestAndMinPinnedTracksTheOldest) {
  EpochManager mgr;
  ReadGuard outer(mgr);  // pins epoch 1
  {
    support::RoleScope writer(mgr.writer_role_);
    mgr.advance();  // epoch 2
  }
  {
    ReadGuard inner(mgr);  // pins epoch 2, nested inside outer
    EXPECT_EQ(inner.pinned_epoch(), 2u);
    EXPECT_EQ(mgr.active_pins(), 2u);
    EXPECT_EQ(mgr.min_pinned(), 1u);  // the oldest pin wins
  }
  EXPECT_EQ(mgr.active_pins(), 1u);
  EXPECT_EQ(mgr.min_pinned(), 1u);
}

TEST(Epoch, SlotExhaustionThrowsInsteadOfBlocking) {
  EpochManager mgr;
  std::vector<std::unique_ptr<ReadGuard>> guards;
  for (std::size_t i = 0; i < EpochManager::slot_count(); ++i)
    guards.push_back(std::make_unique<ReadGuard>(mgr));
  EXPECT_EQ(mgr.active_pins(), EpochManager::slot_count());
  // One more concurrent guard than slots: a configuration error, and a
  // reader path must never wait — so it throws.
  EXPECT_THROW(ReadGuard extra(mgr), CheckFailure);
  guards.clear();
  EXPECT_EQ(mgr.active_pins(), 0u);
  ReadGuard again(mgr);  // slots are reusable after release
  EXPECT_EQ(mgr.active_pins(), 1u);
}

// The misuse from the issue list — a guard outliving the object it
// reads through. The slot array is shared_ptr-owned precisely so the
// late unpin lands in live memory: the misuse is inert (and the guard
// must obviously not be *read through* anymore). Under ASan this test
// is the proof there is no use-after-free.
TEST(Epoch, GuardOutlivingItsManagerUnpinsSafely) {
  auto state =
      std::make_unique<PublishedState<uint8_t>>(4, 0, bits({1, 0, 1}));
  auto guard = std::make_unique<ReadGuard>(state->epochs_);
  EXPECT_EQ(state->epochs_.active_pins(), 1u);
  state.reset();   // manager (inside the state) destroyed first
  guard.reset();   // late unpin — must not touch freed memory
}

// ---- PublishedVersion checksums -------------------------------------

TEST(PublishedVersionTest, ChecksumRoundTrips) {
  const auto sol = bits({1, 0, 0, 1, 1});
  PublishedVersion<uint8_t> v{3, 7, 2, sol,
                              PublishedVersion<uint8_t>::compute_checksum(
                                  3, sol)};
  EXPECT_TRUE(v.verify_checksum());
}

TEST(PublishedVersionTest, ChecksumCatchesTornSolution) {
  const auto sol = bits({1, 0, 0, 1, 1});
  PublishedVersion<uint8_t> v{3, 7, 2, sol,
                              PublishedVersion<uint8_t>::compute_checksum(
                                  3, sol)};
  v.solution[2] = 1;  // simulate a torn write
  EXPECT_FALSE(v.verify_checksum());
  v.solution[2] = 0;
  v.version = 4;  // or a version id torn across the publication
  EXPECT_FALSE(v.verify_checksum());
}

TEST(PublishedVersionTest, ChecksumIsOrderSensitive) {
  EXPECT_NE(PublishedVersion<uint8_t>::compute_checksum(0, bits({1, 0})),
            PublishedVersion<uint8_t>::compute_checksum(0, bits({0, 1})));
}

// Every entry term is a bijection of its value, so changing any one
// entry to any other value always moves the sum — checked exhaustively
// over every byte value, and for partner ids on both sides of the
// kInvalidVertex sentinel.
TEST(PublishedVersionTest, AnySingleEntryChangeFailsVerify) {
  const auto sol = bits({1, 0, 0, 1, 1, 0, 1, 0});
  PublishedVersion<uint8_t> v{5, 0, 0, sol,
                              PublishedVersion<uint8_t>::compute_checksum(
                                  5, sol)};
  ASSERT_TRUE(v.verify_checksum());
  for (std::size_t i = 0; i < sol.size(); ++i) {
    for (int x = 0; x < 256; ++x) {
      if (x == sol[i]) continue;
      v.solution[i] = static_cast<uint8_t>(x);
      EXPECT_FALSE(v.verify_checksum()) << "entry " << i << " -> " << x;
    }
    v.solution[i] = sol[i];
  }
  EXPECT_TRUE(v.verify_checksum());

  const std::vector<VertexId> partners{3, kInvalidVertex, 0, 2, 1, 7};
  PublishedVersion<VertexId> m{1, 0, 0, partners,
                               PublishedVersion<VertexId>::compute_checksum(
                                   1, partners)};
  const std::vector<VertexId> others{0, 1, 2, 3, 7, 8, 1u << 20,
                                     kInvalidVertex - 1, kInvalidVertex};
  for (std::size_t i = 0; i < partners.size(); ++i) {
    for (const VertexId x : others) {
      if (x == partners[i]) continue;
      m.solution[i] = x;
      EXPECT_FALSE(m.verify_checksum()) << "entry " << i << " -> " << x;
    }
    m.solution[i] = partners[i];
  }
  EXPECT_TRUE(m.verify_checksum());
}

// ---- PublishedState --------------------------------------------------

TEST(PublishedStateTest, PublishAndReadBackThroughGuard) {
  PublishedState<uint8_t> state(4, 10, bits({0, 1, 1}));
  {
    support::RoleScope writer(state.writer_role_);
    state.publish(1, 11, Changes{{0, 1}, {2, 0}});
  }
  ReadGuard guard(state.epochs_);
  EXPECT_EQ(state.latest(guard).version, 1u);
  EXPECT_EQ(state.latest(guard).engine_epoch, 11u);
  EXPECT_EQ(state.at(0, guard).solution, bits({0, 1, 1}));
  EXPECT_EQ(state.at(1, guard).solution, bits({1, 1, 0}));
  EXPECT_TRUE(state.at(0, guard).verify_checksum());
  EXPECT_TRUE(state.at(1, guard).verify_checksum());
}

TEST(PublishedStateTest, RetentionEvictsOldestAndBoundsReads) {
  PublishedState<uint8_t> state(3, 0, bits({0}));  // retains 3 versions
  support::RoleScope writer(state.writer_role_);
  for (uint64_t v = 1; v <= 5; ++v)
    state.publish(v, v, Changes{{0, static_cast<uint8_t>(v & 1)}});
  EXPECT_EQ(state.latest_version(), 5u);
  EXPECT_EQ(state.writer_latest_version(), 5u);  // same id, no pin
  EXPECT_EQ(state.oldest_version(), 3u);
  EXPECT_EQ(state.acquire(3)->solution, bits({1}));
  EXPECT_THROW((void)state.acquire(2), CheckFailure);  // evicted
  EXPECT_THROW((void)state.acquire(6), CheckFailure);  // future
}

TEST(PublishedStateTest, NonConsecutiveVersionIsRejected) {
  PublishedState<uint8_t> state(4, 0, bits({1}));
  support::RoleScope writer(state.writer_role_);
  EXPECT_THROW(state.publish(2, 0, Changes{}), CheckFailure);
}

// A patched publish lands on exactly the checksum a full recompute of
// the patched vector gives — with repeated indices (the last pair wins)
// and pairs that leave their entry unchanged — and every version in the
// window still verifies from all n entries.
TEST(PublishedStateTest, PatchedChecksumEqualsFullRecompute) {
  std::vector<uint8_t> expect = bits({0, 1, 1, 0, 0, 1, 0, 1});
  PublishedState<uint8_t> state(4, 3, expect);
  support::RoleScope writer(state.writer_role_);
  const std::vector<Changes> patches{
      {{0, 1}, {3, 1}},                  // plain flips
      {{2, 1}, {5, 1}},                  // both unchanged
      {{4, 1}, {4, 0}, {4, 1}, {7, 0}},  // repeated index, last wins
      {},                                // nothing changed
      {{6, 1}, {1, 0}, {6, 0}, {6, 0}},  // repeats back to the old value
  };
  uint64_t version = 0;
  for (const Changes& patch : patches) {
    for (const auto& [i, value] : patch) expect[i] = value;
    state.publish(++version, 3, patch);
    const auto latest = state.acquire();
    EXPECT_EQ(latest->solution, expect) << "version " << version;
    EXPECT_EQ(latest->checksum,
              PublishedVersion<uint8_t>::compute_checksum(version, expect))
        << "version " << version;
  }
  ReadGuard guard(state.epochs_);
  for (const auto& ver : state.window(guard).versions)
    EXPECT_TRUE(ver->verify_checksum()) << "version " << ver->version;
}

// A rejected publish (strong exception safety): the window, the newest
// version, and the retired list are exactly as before the call.
TEST(PublishedStateTest, RejectedPublishLeavesWindowUnchanged) {
  PublishedState<uint8_t> state(2, 0, bits({0, 1}));
  support::RoleScope writer(state.writer_role_);
  state.publish(1, 1, Changes{{0, 1}});
  const auto before = state.acquire();
  const std::size_t retired_before = state.retired_count();
  EXPECT_THROW(state.publish(2, 2, Changes{{1, 0}, {2, 1}}), CheckFailure);
  EXPECT_THROW(state.publish(3, 2, Changes{{1, 0}}), CheckFailure);
  EXPECT_EQ(state.acquire(), before);  // the same immutable version
  EXPECT_EQ(state.oldest_version(), 0u);
  EXPECT_EQ(state.retired_count(), retired_before);
  EXPECT_EQ(before->solution, bits({1, 1}));
  EXPECT_TRUE(before->verify_checksum());
  state.publish(2, 2, Changes{{1, 0}});  // the next id still publishes
  EXPECT_EQ(state.acquire()->solution, bits({1, 0}));
}

// Reclamation ordering: a superseded table stays allocated while any
// guard pins an epoch at or below its retire epoch, and is freed on the
// first reclaim() after the pin drops. (ASan turns "freed while pinned"
// into a hard failure via the reads below.)
TEST(PublishedStateTest, PinnedTablesAreNotReclaimed) {
  PublishedState<uint8_t> state(4, 0, bits({0, 0}));
  auto guard = std::make_unique<ReadGuard>(state.epochs_);
  const auto& old_window = state.window(*guard);
  EXPECT_EQ(old_window.versions.back()->version, 0u);

  {
    support::RoleScope writer(state.writer_role_);
    state.publish(1, 1, Changes{{0, 1}});
    state.publish(2, 2, Changes{{1, 1}});
    // Both superseded tables were retired while the guard pins epoch 1.
    EXPECT_EQ(state.retired_count(), 2u);
    EXPECT_EQ(state.reclaim(), 0u);  // still pinned — nothing freed
    EXPECT_EQ(state.retired_count(), 2u);
  }
  // The pinned reader still sees its original window, bit-exactly.
  EXPECT_EQ(old_window.versions.back()->version, 0u);
  EXPECT_TRUE(old_window.versions.back()->verify_checksum());

  guard.reset();
  {
    support::RoleScope writer(state.writer_role_);
    EXPECT_EQ(state.reclaim(), 2u);  // pin dropped — both freed
    EXPECT_EQ(state.retired_count(), 0u);
  }
}

// A later pin (taken after the publishes) does not protect earlier
// retirees: reclamation frees exactly the prefix below the oldest pin.
TEST(PublishedStateTest, ReclaimFreesPrefixBelowOldestPin) {
  PublishedState<uint8_t> state(4, 0, bits({0}));
  {
    support::RoleScope writer(state.writer_role_);
    state.publish(1, 1, Changes{{0, 1}});  // retires table {0} at epoch 1
  }
  ReadGuard late(state.epochs_);  // pins epoch 2 — after the retirement
  support::RoleScope writer(state.writer_role_);
  state.publish(2, 2, Changes{{0, 0}});  // retires table {0,1} at epoch 2
  // The epoch-1 retiree is below the pin and freed; the epoch-2 one is
  // exactly at the pin and must be kept.
  EXPECT_EQ(state.retired_count(), 1u);
}

TEST(PublishedStateTest, CopyAccessorsPinInternally) {
  PublishedState<uint8_t> state(4, 0, bits({0, 1}));
  {
    support::RoleScope writer(state.writer_role_);
    state.publish(1, 1, Changes{{0, 1}});
  }
  // No explicit guard anywhere — the accessors pin for their own scope.
  EXPECT_EQ(state.acquire()->solution, bits({1, 1}));
  EXPECT_EQ(state.acquire(0)->solution, bits({0, 1}));
  EXPECT_EQ(state.latest_version(), 1u);
  EXPECT_EQ(state.oldest_version(), 0u);
  EXPECT_EQ(state.epochs_.active_pins(), 0u);  // nothing leaked
}

// ---- Observability ---------------------------------------------------

#if PARGREEDY_OBS
TEST(EpochObs, PinsAndReclaimsAreCounted) {
  obs::set_enabled(true);
  const uint64_t pins_before = obs::counter_value(obs::kReaderPins);
  const uint64_t reclaimed_before = obs::counter_value(obs::kEpochReclaimed);
  const uint64_t published_before =
      obs::counter_value(obs::kPublishedVersions);
  PublishedState<uint8_t> state(2, 0, bits({1}));  // publishes version 0
  {
    support::RoleScope writer(state.writer_role_);
    state.publish(1, 1, Changes{{0, 0}});  // retires + reclaims (no pins)
  }
  { ReadGuard guard(state.epochs_); }
  EXPECT_EQ(obs::counter_value(obs::kReaderPins), pins_before + 1);
  EXPECT_EQ(obs::counter_value(obs::kPublishedVersions),
            published_before + 2);
  EXPECT_EQ(obs::counter_value(obs::kEpochReclaimed), reclaimed_before + 1);
}
#endif

}  // namespace
}  // namespace pargreedy

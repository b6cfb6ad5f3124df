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
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/types.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "txn/epoch.hpp"
#include "txn/published_state.hpp"
#include "txn/read_view.hpp"

namespace pargreedy {
namespace {

std::vector<uint8_t> bits(std::initializer_list<int> vs) {
  std::vector<uint8_t> out;
  for (int v : vs) out.push_back(static_cast<uint8_t>(v));
  return out;
}

using Changes = std::vector<EntryChange<uint8_t>>;

// How many publishes took each buffer path (published.buffer{path}).
struct BufferPaths {
  uint64_t replayed = 0, copied = 0, fresh = 0;
  bool operator==(const BufferPaths&) const = default;
  BufferPaths operator-(const BufferPaths& o) const {
    return {replayed - o.replayed, copied - o.copied, fresh - o.fresh};
  }
};

std::ostream& operator<<(std::ostream& out, const BufferPaths& p) {
  return out << "{replayed " << p.replayed << ", copied " << p.copied
             << ", fresh " << p.fresh << "}";
}

// The path counts so far; switches counting on for the publishes after.
BufferPaths buffer_paths() {
#if PARGREEDY_OBS
  obs::set_enabled(true);
  const auto count = [](const char* path) {
    return obs::MetricsRegistry::global().counter_value(
        obs::labeled_name(obs::kPublishedBuffer, "path", path));
  };
  return {count("replayed"), count("copied"), count("fresh")};
#else
  return {};
#endif
}

// Expects the publishes since `before` to have taken each path that many
// times; nothing is counted, so nothing is checked, with obs compiled out.
#if PARGREEDY_OBS
#define EXPECT_BUFFER_PATHS(before, replayed, copied, fresh) \
  EXPECT_EQ(buffer_paths() - (before), (BufferPaths{replayed, copied, fresh}))
#else
#define EXPECT_BUFFER_PATHS(before, replayed, copied, fresh) ((void)(before))
#endif

// Publishes deterministic patches into a PublishedState<uint8_t> of n
// zeros and keeps every version's expected solution, replayed here
// independently of the state's own change lists.
struct PatchDriver {
  PublishedState<uint8_t> state;
  std::vector<std::vector<uint8_t>> expected;  // by version id

  explicit PatchDriver(std::size_t retention, std::size_t n = 4096)
      : state(retention, 0, std::vector<uint8_t>(n, 0)),
        expected{std::vector<uint8_t>(n, 0)} {}

  // Publishes the next version with `pairs` changed entries (default
  // 1-3), then checks it against the expected solution.
  void publish(std::size_t pairs = 0) {
    const uint64_t version = expected.size();
    if (pairs == 0) pairs = 1 + version % 3;
    std::vector<uint8_t> expect = expected.back();
    Changes patch;
    for (std::size_t j = 0; j < pairs; ++j) {
      const uint64_t h = mix64(version * 16 + j);
      patch.emplace_back(h % expect.size(), static_cast<uint8_t>(h >> 56));
      expect[patch.back().first] = patch.back().second;
    }
    expected.push_back(expect);
    support::RoleScope writer(state.writer_role_);
    state.publish(version, version, patch);
    const auto latest = state.acquire();
    EXPECT_EQ(latest->solution, expect) << "version " << version;
    EXPECT_TRUE(latest->verify_checksum()) << "version " << version;
  }

  // Every retained version equals its expected solution and verifies.
  void expect_window_verifies() {
    ReadGuard guard(state.epochs_);
    for (const auto& ver : state.window(guard).versions) {
      EXPECT_EQ(ver->solution, expected[ver->version])
          << "version " << ver->version;
      EXPECT_TRUE(ver->verify_checksum()) << "version " << ver->version;
    }
  }
};

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
// version, and the retired list are exactly as before the call — first
// with the mailbox empty, then with a released version waiting in it,
// which the rejected publishes leave for the next one to reuse.
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

  // Version 0 left the window at version 2 and is waiting in the mailbox.
  const auto newest = state.acquire();
  const BufferPaths paths_before = buffer_paths();
  EXPECT_THROW(state.publish(3, 3, Changes{{0, 0}, {5, 1}}), CheckFailure);
  EXPECT_THROW(state.publish(4, 3, Changes{{0, 0}}), CheckFailure);
  EXPECT_EQ(state.acquire(), newest);
  EXPECT_EQ(state.oldest_version(), 1u);
  EXPECT_EQ(state.retired_count(), retired_before);
  state.publish(3, 3, Changes{{0, 0}});
  // The deposit, copied into: its two change pairs outweigh two entries.
  EXPECT_BUFFER_PATHS(paths_before, 0, 1, 0);
  EXPECT_EQ(state.acquire()->solution, bits({0, 0}));
  ReadGuard guard(state.epochs_);
  for (const auto& ver : state.window(guard).versions)
    EXPECT_TRUE(ver->verify_checksum()) << "version " << ver->version;
}

// No readers: once the window is full, every publish replays the change
// lists onto the version the previous publish evicted, at any retention
// (1 keeps only the newest version). Every version equals the expected
// solution, replayed independently, and verifies from all n entries.
TEST(PublishedStateTest, ReleasedBuffersAreReplayedForward) {
  for (const std::size_t retention : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "retention " << retention);
    PatchDriver d(retention);
    const BufferPaths before = buffer_paths();
    const std::size_t publishes = 4 * retention + 5;
    for (std::size_t k = 0; k < publishes; ++k) d.publish();
    // The first `retention` publishes find the mailbox empty: nothing
    // has left the window before them.
    EXPECT_BUFFER_PATHS(before, publishes - retention, 0, retention);
    d.expect_window_verifies();
  }
}

// Retained lists holding more than one pair per cache line of the
// solution are not replayed: the deposit is copied into instead.
TEST(PublishedStateTest, OversizedChangeListsAreCopiedNotReplayed) {
  PatchDriver d(2, 256);  // 256 one-byte entries: 4 cache lines
  d.publish(1);
  d.publish(1);  // evicts version 0
  const BufferPaths before = buffer_paths();
  d.publish(1);  // lists 1 and 2: 2 pairs
  d.publish(5);  // lists 2 and 3: 2 pairs
  d.publish(1);  // lists 3 and 4: 6 pairs, over a flat copy
  d.publish(1);  // lists 4 and 5: 6 pairs
  d.publish(1);  // lists 5 and 6: 2 pairs
  EXPECT_BUFFER_PATHS(before, 3, 2, 0);
  d.expect_window_verifies();
}

// A version a ReadView-style owner still holds is never written: the
// writer allocates instead of reusing it, once, and keeps reusing the
// buffers that are released. The held solution and its checksum are
// bit-exact after 3 × retention publishes.
TEST(PublishedStateTest, HeldVersionIsNeverWritten) {
  constexpr std::size_t kRetention = 3;
  PatchDriver d(kRetention);
  for (std::size_t k = 0; k < kRetention; ++k) d.publish();
  const auto held = d.state.acquire(1);  // the next version evicted
  const std::vector<uint8_t> solution = held->solution;
  const uint64_t checksum = held->checksum;
  const BufferPaths before = buffer_paths();
  for (std::size_t k = 0; k < 3 * kRetention; ++k) d.publish();
  // Only the publish right after version 1 left the window found the
  // mailbox empty.
  EXPECT_BUFFER_PATHS(before, 3 * kRetention - 1, 0, 1);
  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->solution, solution);
  EXPECT_EQ(held->checksum, checksum);
  EXPECT_TRUE(held->verify_checksum());
  d.expect_window_verifies();
}

// A version released long after it left the window is too stale for the
// retained lists to cover: the next publish copies into it.
TEST(PublishedStateTest, StaleDepositIsCopiedNotReplayed) {
  constexpr std::size_t kRetention = 2;
  PatchDriver d(kRetention);
  auto held = d.state.acquire(0);
  for (std::size_t k = 0; k < 2 * kRetention + 1; ++k) d.publish();
  held.reset();  // version 0, 5 commits behind, displaces the deposit
  const BufferPaths before = buffer_paths();
  d.publish();
  EXPECT_BUFFER_PATHS(before, 0, 1, 0);
  d.publish();
  EXPECT_BUFFER_PATHS(before, 1, 1, 0);
  d.expect_window_verifies();
}

// The last owner of an evicted version can be a reader thread: a
// ReadView dropped there deposits the buffer, and the writer's next
// publish reuses it. (The TSan CI job checks the handoff's ordering.)
TEST(PublishedStateTest, ReaderThreadReleaseIsReused) {
  constexpr std::size_t kRetention = 2;
  PatchDriver d(kRetention);
  ReadView<uint8_t> view(d.state.acquire());  // version 0
  const uint8_t* buffer = view.values().data();
  for (std::size_t k = 0; k < kRetention; ++k) d.publish();
  ASSERT_EQ(d.state.oldest_version(), 1u);  // version 0 was evicted
  bool verified = false;
  std::thread reader([v = std::move(view), &verified]() mutable {
    verified = v.verify_checksum();
    v = ReadView<uint8_t>();  // the last reference drops here
  });
  reader.join();
  EXPECT_TRUE(verified);
  const BufferPaths before = buffer_paths();
  d.publish();  // two versions behind: replays lists 1 and 2
  EXPECT_BUFFER_PATHS(before, 1, 0, 0);
  EXPECT_EQ(d.state.acquire()->solution.data(), buffer);
  d.expect_window_verifies();
}

// A view that outlives its state still releases into live memory: the
// deleter co-owns the mailbox. Under ASan this is the proof.
TEST(PublishedStateTest, ViewOutlivingItsStateReleasesSafely) {
  auto d = std::make_unique<PatchDriver>(1);
  d->publish();
  ReadView<uint8_t> view(d->state.acquire());
  d->publish();  // evicts the viewed version; the view keeps it
  d.reset();
  EXPECT_TRUE(view.verify_checksum());
  view = ReadView<uint8_t>();  // deposits, and frees the last mailbox
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

// A reader that stays pinned holds every table retired meanwhile, each
// able to keep an evicted version alive. The published.retired histogram
// shows that backlog, and the first publish after the reader unpins
// frees all of it.
TEST(PublishedStateTest, PinnedReaderBacklogIsObservable) {
#if PARGREEDY_OBS
  obs::set_enabled(true);
#endif
  constexpr uint64_t kPublishes = 6;
  PublishedState<uint8_t> state(2, 0, bits({0, 0}));
  auto guard = std::make_unique<ReadGuard>(state.epochs_);
  {
    support::RoleScope writer(state.writer_role_);
    for (uint64_t v = 1; v <= kPublishes; ++v)
      state.publish(v, v, Changes{{0, static_cast<uint8_t>(v & 1)}});
    EXPECT_GE(state.retired_count(), kPublishes);
  }
#if PARGREEDY_OBS
  EXPECT_GE(obs::MetricsRegistry::global()
                .histogram(obs::kPublishedRetired)
                .summary()
                .max,
            kPublishes);
#endif
  guard.reset();
  support::RoleScope writer(state.writer_role_);
  state.publish(kPublishes + 1, kPublishes + 1, Changes{{1, 1}});
  EXPECT_EQ(state.retired_count(), 0u);
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

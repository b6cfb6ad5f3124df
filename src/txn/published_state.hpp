// The lock-free committed-read path: immutable published solution
// versions behind one atomic pointer, reclaimed via epochs.
//
// This is the transactional writer's one representation of committed
// history. The constructor publishes the baseline as version 0; every
// later version is a patch of the one before it: the writer brings a
// buffer up to the newest solution, applies the (index, value) pairs its
// commit changed, updates the checksum in O(1) per pair, assembles the
// retained window [oldest, latest] into an immutable Table, and swaps it
// in with one atomic exchange. Readers follow the pointer under an epoch
// pin (txn/epoch.hpp) — no mutex, no wait on in-flight speculation, no
// interaction with the writer beyond delaying reclamation of superseded
// tables. The window holds `retention` full versions (each an O(n)
// solution); versions shared by consecutive tables are shared_ptr
// aliases, not copies.
//
//   writer, per commit:  free unpinned tables -> take a released buffer
//                        -> replay or copy it up to newest -> apply
//                        changes -> build table -> exchange pointer ->
//                        advance epoch -> free unpinned tables
//   reader, per read:    pin epoch (RAII) -> load pointer -> read the
//                        immutable table -> unpin
//
// Buffer reuse: a version evicted from the window is not freed but
// handed back to the writer. Every version is owned through a shared_ptr
// whose deleter deposits it in a one-slot mailbox (freeing whatever the
// slot held), on whichever thread drops the last reference: the writer
// freeing a table in reclaim(), or a reader dropping a ReadView. publish()
// reclaims first (a reader pin that kept the evicting table alive at the
// last commit is usually gone by now), takes the deposit, and brings it
// from its own version to the newest by one of fixed rules:
//
//   replayed  the retained change lists of the versions after it, in
//             version order, when they all are still retained and hold
//             at most one pair per 64-byte cache line of the solution
//             (pairs × 64 <= n × sizeof(Value)): each replayed pair
//             dirties a line of its own, and a flat copy streams them;
//   copied    the newest solution copied into it, when the lists do not
//             cover it or are larger, when its id is not older than the
//             newest (a publish that threw after the take leaves one) or
//             when its size differs;
//   fresh     a new buffer copied from the newest, when the mailbox is
//             empty (a reader still holds the evicted version).
//
// So a commit costs O(changed entries) when readers release their views
// by the next commit and the lists stay small, and one flat copy
// otherwise. The window plus the mailbox hold `retention` + 1 buffers,
// and the writer keeps the change list of each retained version.
//
// Staleness bound: a reader sees exactly the window some recent
// exchange published — every value it can observe equals some committed
// version in [oldest_version(), latest_version()], never speculative or
// aborted state. The property tests check this bit-exactly against the
// writer's own replayed history.
//
// Torn-read detection: each PublishedVersion carries a checksum — a
// wrapping sum of one version term and one position-keyed term per
// entry (random/hash.hpp mix64), each injective in its value, so any
// single-entry change is always caught. A sum is what lets publish()
// patch it per changed entry; the writer sets it before the exchange.
// Immutability means a reader recomputing the checksum from all n
// entries must match; any mismatch is a torn or reclaimed-under-foot
// read, and the stress suites verify on every observation to make such
// a bug deterministic instead of heisenbug.
//
// Exception safety: publish() is strong. The checks run before the take,
// and everything else that can throw (the table, the retired-list slot,
// a fresh buffer, a copy) runs before the exchange, so a throwing
// publish leaves the window and the change lists as they were. A buffer
// taken before the throw goes back to the mailbox stamped with the
// failed id, so the next publish copies over it instead of replaying.
//
// Memory model: the pointer exchange and reader loads are seq_cst,
// joining the epoch protocol's total order (the reclamation-safety
// argument lives in txn/epoch.hpp). Versions are shared_ptr-owned by
// the tables that retain them and by the ReadViews acquire() hands out.
// A buffer is written again only after its last owner released it: that
// owner's reads precede its refcount decrement (acq_rel), the decrement
// precedes the deleter's acq_rel exchange into the mailbox, and the
// writer's acq_rel exchange out of the mailbox precedes its first write —
// a happens-before chain TSan models, unlike a use_count() probe. The
// mailbox is shared_ptr-owned by the state and by every deleter, so a
// view that outlives its state deposits into live memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"
#include "support/thread_annotations.hpp"
#include "txn/epoch.hpp"

namespace pargreedy {

/// Version sentinel meaning "the newest committed version" in the read
/// APIs (Transaction::read, PublishedState::acquire,
/// ShardedEngine::read).
inline constexpr uint64_t kLatestVersion = ~uint64_t{0};

/// One patched solution entry: (index, new value).
template <typename Value>
using EntryChange = std::pair<std::size_t, Value>;

/// One committed solution, frozen at publish time. Immutable after
/// construction — that immutability is what makes the lock-free reads
/// sound, and the checksum is what makes violations detectable.
template <typename Value>
struct PublishedVersion {
  uint64_t version;         ///< committed version id (0 = baseline)
  uint64_t engine_epoch;    ///< engine mutation-epoch stamp at publish
  uint64_t published_epoch; ///< EpochManager epoch when published
  std::vector<Value> solution;
  uint64_t checksum;        ///< checksum(version, solution), set at publish

  /// The checksum's version term (a bijection of the id).
  static uint64_t version_term(uint64_t version) {
    return mix64(version ^ 0x5075626c69736864ULL);  // "Publishd"
  }

  /// The checksum's term for entry `i` holding `value`: keyed by the
  /// position, and a bijection of the value for a fixed position.
  static uint64_t entry_term(std::size_t i, Value value) {
    return mix64(mix64(i) ^ static_cast<uint64_t>(value));
  }

  /// The torn-read checksum: the wrapping sum of the version term and
  /// every entry term. Position keying makes it order-sensitive; the
  /// bijections make every single-entry change visible.
  static uint64_t compute_checksum(uint64_t version,
                                   const std::vector<Value>& solution) {
    uint64_t h = version_term(version);
    for (std::size_t i = 0; i < solution.size(); ++i)
      h += entry_term(i, solution[i]);
    return h;
  }

  /// Recomputes the checksum from the stored fields and compares. A
  /// reader observing false has seen memory mutated after publication —
  /// a torn read; the stress suites assert this on every observation.
  [[nodiscard]] bool verify_checksum() const {
    return checksum == compute_checksum(version, solution);
  }
};

/// The retained committed window, published as a unit (see file
/// comment). Holds the versions oldest-first; shared_ptrs keep a
/// version alive across the consecutive tables that retain it.
template <typename Value>
class PublishedState {
 public:
  using Version = PublishedVersion<Value>;

  /// One immutable window [oldest .. latest], oldest first.
  struct Table {
    std::vector<std::shared_ptr<const Version>> versions;
  };

  /// Writer capability: publish/reclaim are single-writer (held by the
  /// owning Transaction during commit). Public so its annotations can
  /// be named by callers.
  support::Role writer_role_;

  /// The epoch manager readers pin through: `ReadGuard g(state.epochs_);`.
  /// Public (like the roles) so -Wthread-safety sees the same capability
  /// expression at acquire and require sites.
  EpochManager epochs_;

  /// Publishes `baseline` as version 0, stamped `engine_epoch` — the one
  /// full copy; every later version is a patch (publish()). Retains up to
  /// `retention` full versions (a Transaction passes its read-back depth
  /// + 1: the newest version plus the ones reads can reach back to).
  PublishedState(std::size_t retention, uint64_t engine_epoch,
                 std::vector<Value> baseline)
      : retention_(retention) {
    PG_CHECK_MSG(retention >= 1, "published retention must be >= 1");
    lists_.resize(retention);
    const uint64_t checksum = Version::compute_checksum(0, baseline);
    auto table = std::make_unique<Table>();
    table->versions.push_back(owned(new Version{
        0, engine_epoch, epochs_.current_epoch(), std::move(baseline),
        checksum}));
    table_.store(table.release(), std::memory_order_seq_cst);
    PG_OBS_COUNT(obs::kPublishedVersions, 1);
  }

  PublishedState(const PublishedState&) = delete;
  PublishedState& operator=(const PublishedState&) = delete;

  /// By protocol the destroying thread is the writer and no reader can
  /// be live (the epoch slots make a straggler guard's unpin safe, but
  /// its reads would be UB — same rule as destroying any engine).
  ~PublishedState() PARGREEDY_NO_THREAD_SAFETY_ANALYSIS {
    delete table_.load(std::memory_order_relaxed);
    // retired_ and the mailbox free themselves; a version a ReadView
    // still holds deposits into the mailbox its deleter co-owns.
  }

  /// Publishes committed version `version` as the newest version patched
  /// by `changes`: brings a released buffer up to the newest solution
  /// (see file comment), applies the pairs in order (a repeated index
  /// ends at its last value), updates the checksum in O(1) per pair,
  /// assembles the new window (evicting past retention), swaps the table
  /// pointer, advances the epoch, frees every superseded table no reader
  /// still pins, and keeps `changes` for later replays. O(changes) plus
  /// the replay, or one flat O(n) copy when no buffer can be replayed.
  /// Checked, before anything changes: `version` is the next id and
  /// every index is in range.
  void publish(uint64_t version, uint64_t engine_epoch,
               std::vector<EntryChange<Value>> changes)
      PARGREEDY_REQUIRES(writer_role_) {
    const Table* old = table_.load(std::memory_order_relaxed);
    const Version& newest = *old->versions.back();
    PG_CHECK_MSG(version == newest.version + 1,
                 "published versions must be consecutive (publishing "
                     << version << " after " << newest.version << ")");
    for (const auto& change : changes)
      PG_CHECK_MSG(change.first < newest.solution.size(),
                   "changed entry " << change.first << " out of range");
    // A reader pin that kept the last evicting table alive is usually
    // gone by now; freeing the table deposits its evicted version.
    reclaim();
    auto next = std::make_unique<Table>();
    const std::size_t kept =
        old->versions.size() - (old->versions.size() == retention_ ? 1 : 0);
    next->versions.reserve(kept + 1);
    next->versions.assign(old->versions.end() - kept, old->versions.end());
    // Room for the retiree now, so nothing after the exchange can throw.
    if (retired_.size() == retired_.capacity())
      retired_.reserve(2 * retired_.size() + 1);

    [[maybe_unused]] const char* path = nullptr;
    std::shared_ptr<Version> built = buffer_at_newest(version, newest, path);
    uint64_t checksum = newest.checksum + Version::version_term(version) -
                        Version::version_term(newest.version);
    for (const auto& [i, value] : changes) {
      checksum += Version::entry_term(i, value) -
                  Version::entry_term(i, built->solution[i]);
      built->solution[i] = value;
    }
    built->engine_epoch = engine_epoch;
    built->published_epoch = epochs_.current_epoch();
    built->checksum = checksum;
    next->versions.push_back(std::move(built));
    PG_OBS_COUNT(obs::kPublishedVersions, 1);
    PG_OBS_HIST(obs::kPublishedChangedEntries, changes.size());
    PG_OBS_COUNT(obs::kPublishedBuffer, 1);
    PG_OBS_COUNT_L(obs::kPublishedBuffer, "path", path, 1);

    // X: the exchange readers race against; A: the epoch advance; then
    // the reclamation scan — the X < A < scan order is what the safety
    // argument in txn/epoch.hpp relies on.
    const Table* prev = table_.exchange(next.release(),
                                        std::memory_order_seq_cst);
    const uint64_t retire_epoch = epochs_.current_epoch();
    {
      support::RoleScope epoch_writer(epochs_.writer_role_);
      epochs_.advance();
    }
    retired_.emplace_back(retire_epoch, std::unique_ptr<const Table>(prev));
    lists_[version % retention_] = std::move(changes);
    reclaim();
    PG_OBS_HIST(obs::kPublishedRetired, retired_.size());
  }

  /// Frees retired tables whose retire epoch is below every pinned
  /// epoch; returns how many were freed. Called by publish(); exposed so
  /// tests can drive reclamation ordering explicitly.
  std::size_t reclaim() PARGREEDY_REQUIRES(writer_role_) {
    const uint64_t min_pinned = epochs_.min_pinned();
    // Retire epochs are recorded in increasing order, so the freeable
    // entries form a prefix; the first still-protected entry stops the
    // scan.
    std::size_t freed = 0;
    while (freed < retired_.size() && retired_[freed].first < min_pinned)
      ++freed;
    if (freed > 0) {
      retired_.erase(retired_.begin(),
                     retired_.begin() + static_cast<std::ptrdiff_t>(freed));
      PG_OBS_COUNT(obs::kEpochReclaimed, freed);
    }
    return freed;
  }

  /// Newest published version id, read without an epoch pin: only the
  /// writer swaps and frees tables, so the current one cannot go away
  /// under it.
  [[nodiscard]] uint64_t writer_latest_version() const
      PARGREEDY_REQUIRES(writer_role_) {
    return table_.load(std::memory_order_relaxed)->versions.back()->version;
  }

  /// Retired-but-not-yet-freed tables (tests/introspection; writer-only
  /// because the list is writer state).
  [[nodiscard]] std::size_t retired_count() const
      PARGREEDY_REQUIRES(writer_role_) {
    return retired_.size();
  }

  // ---- Reader surface -------------------------------------------------
  //
  // The zero-copy accessors require an epoch pin (the shared reader
  // capability) — the guard is what keeps the returned references
  // alive. acquire() and the version-id queries pin internally; they
  // are the calls the Transaction read API forwards to and are callable
  // from any thread with no capability at all.

  /// The retained window under `guard`. References into it are valid
  /// for the guard's lifetime.
  [[nodiscard]] const Table& window(const ReadGuard& guard) const
      PARGREEDY_REQUIRES_SHARED(epochs_.reader_role_) {
    (void)guard;
    return *table_.load(std::memory_order_seq_cst);
  }

  /// The newest published version under `guard`.
  [[nodiscard]] const Version& latest(const ReadGuard& guard) const
      PARGREEDY_REQUIRES_SHARED(epochs_.reader_role_) {
    return *window(guard).versions.back();
  }

  /// Published version `v` under `guard`. Checked: `v` is within the
  /// retained window of the table this reader observes.
  [[nodiscard]] const Version& at(uint64_t v, const ReadGuard& guard) const
      PARGREEDY_REQUIRES_SHARED(epochs_.reader_role_) {
    const Table& t = window(guard);
    const uint64_t oldest = t.versions.front()->version;
    const uint64_t latest = t.versions.back()->version;
    PG_CHECK_MSG(v >= oldest && v <= latest,
                 "version " << v << " outside published retention ["
                            << oldest << ", " << latest << "]");
    PG_OBS_HIST(obs::kReaderStaleDistance, latest - v);
    return *t.versions[v - oldest];
  }

  /// Shared ownership of version `v` (kLatestVersion = newest), pinned
  /// only for the duration of this call: the returned shared_ptr — not
  /// an epoch pin — keeps the version alive, so the caller may hold it
  /// indefinitely without occupying a pin slot. This is the seam
  /// ReadView (txn/read_view.hpp) is built on. Checked: `v` within the
  /// retained window.
  [[nodiscard]] std::shared_ptr<const Version> acquire(
      uint64_t v = kLatestVersion) const {
    ReadGuard guard(epochs_);
    const Table& t = window(guard);
    if (v == kLatestVersion) return t.versions.back();
    const uint64_t oldest = t.versions.front()->version;
    const uint64_t latest = t.versions.back()->version;
    PG_CHECK_MSG(v >= oldest && v <= latest,
                 "version " << v << " outside published retention ["
                            << oldest << ", " << latest << "]");
    PG_OBS_HIST(obs::kReaderStaleDistance, latest - v);
    return t.versions[v - oldest];
  }

  /// Newest published version id (pins internally).
  [[nodiscard]] uint64_t latest_version() const {
    ReadGuard guard(epochs_);
    return latest(guard).version;
  }

  /// Oldest published version id still retained (pins internally).
  [[nodiscard]] uint64_t oldest_version() const {
    ReadGuard guard(epochs_);
    return window(guard).versions.front()->version;
  }

 private:
  // The one-slot handoff of released versions back to the writer (see
  // file comment). Its last owner — the state or a version's deleter —
  // frees the deposit left in it.
  struct Mailbox {
    std::atomic<Version*> slot{nullptr};
    ~Mailbox() { delete slot.load(std::memory_order_acquire); }
  };

  // Every version's deleter: deposits the released version, freeing the
  // one it displaces. Runs on the thread dropping the last reference.
  struct Deposit {
    std::shared_ptr<Mailbox> mailbox;
    void operator()(Version* v) const noexcept {
      delete mailbox->slot.exchange(v, std::memory_order_acq_rel);
    }
  };

  // Owns `v` through the depositing deleter (which also runs if this
  // throws).
  std::shared_ptr<Version> owned(Version* v) const {
    return std::shared_ptr<Version>(v, Deposit{mailbox_});
  }

  // A buffer holding `newest`'s solution and stamped `version`: the
  // mailbox's deposit replayed or copied forward, or a fresh copy when
  // the mailbox is empty. `path` names which (see file comment).
  std::shared_ptr<Version> buffer_at_newest(uint64_t version,
                                            const Version& newest,
                                            const char*& path)
      PARGREEDY_REQUIRES(writer_role_) {
    Version* deposit =
        mailbox_->slot.exchange(nullptr, std::memory_order_acq_rel);
    if (deposit == nullptr) {
      path = "fresh";
      return owned(new Version{version, 0, 0, newest.solution, 0});
    }
    const uint64_t from = deposit->version;
    bool replay = from < newest.version &&
                  newest.version - from <= retention_ &&
                  deposit->solution.size() == newest.solution.size();
    if (replay) {
      // A replayed pair dirties a cache line of its own, where a copy
      // streams whole lines: replay at most one pair per line.
      std::size_t pairs = 0;
      for (uint64_t v = from + 1; v <= newest.version; ++v)
        pairs += lists_[v % retention_].size();
      replay = pairs * kCacheLineBytes <=
               newest.solution.size() * sizeof(Value);
    }
    // Stamped before the first write, so a throw from here on returns a
    // buffer to the mailbox that the next publish copies over.
    deposit->version = version;
    std::shared_ptr<Version> buffer = owned(deposit);
    if (replay) {
      path = "replayed";
      for (uint64_t v = from + 1; v <= newest.version; ++v)
        for (const auto& [i, value] : lists_[v % retention_])
          deposit->solution[i] = value;
    } else {
      path = "copied";
      deposit->solution = newest.solution;
    }
    return buffer;
  }

  static constexpr std::size_t kCacheLineBytes = 64;

  std::size_t retention_;
  std::atomic<const Table*> table_{nullptr};  // set by the constructor
  std::shared_ptr<Mailbox> mailbox_ = std::make_shared<Mailbox>();
  // (retire epoch, table) in retire order — writer-only state.
  std::vector<std::pair<uint64_t, std::unique_ptr<const Table>>> retired_
      PARGREEDY_GUARDED_BY(writer_role_);
  // The `changes` that made version v, at v % retention_, for every
  // retained v >= 1 — writer-only state.
  std::vector<std::vector<EntryChange<Value>>> lists_
      PARGREEDY_GUARDED_BY(writer_role_);
};

}  // namespace pargreedy

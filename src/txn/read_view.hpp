// ReadView: the one value type every committed read returns.
//
// Before this type the transaction layer had three read entry points —
// committed_solution() (copy the newest solution), solution_at(v) (copy a
// historical one), and the raw PublishedState accessors (zero-copy, but
// the caller must hold a ReadGuard for exactly the right scope). A
// ReadView folds all three into one shape:
//
//   ReadView<Value> view = txn.read();        // newest committed version
//   ReadView<Value> old  = txn.read(v);       // any retained version
//   view.version();                           // which commit this is
//   view[u];  view.values();                  // zero-copy entries
//   view.to_vector();                         // the old copying behavior
//
// A view is a self-contained *value*: it holds a shared_ptr to the
// immutable PublishedVersion, acquired under a short epoch pin inside
// read(). The pin is released before read() returns — the shared_ptr,
// not the pin, keeps the version alive — so views are copyable, movable,
// storable across writer commits, and never occupy one of the bounded
// epoch slots while held. (Holding a view only retains one immutable
// version's memory; it cannot block the writer or delay reclamation of
// anything else. Holding a view of a version the window has evicted
// keeps its buffer from being reused, so the writer allocates a fresh
// one for one commit; dropping the view hands the buffer back.)
// Acquiring the shared_ptr touches an atomic refcount,
// which is the deliberate price for escaping guard-scoped lifetimes;
// readers that want the refcount-free fast path can still use
// PublishedState's guarded accessors directly.
//
// Thread safety: read() is lock-free and callable from any thread at any
// time (same contract as the committed_solution it generalizes). A
// ReadView itself is immutable after construction; distinct views may be
// used from distinct threads freely, and one view may be shared by
// const-reference like any immutable object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "txn/published_state.hpp"

namespace pargreedy {

/// An immutable, self-contained view of one committed solution version
/// (see file comment). Obtained from Transaction::read() or
/// ShardedEngine::read(); default-constructed views are empty and
/// queryable only via valid().
template <typename Value>
class ReadView {
 public:
  ReadView() = default;

  /// Wraps a published version (the transaction/shard layers call this;
  /// user code goes through their read()).
  explicit ReadView(std::shared_ptr<const PublishedVersion<Value>> version)
      : version_(std::move(version)) {}

  /// False for a default-constructed (empty) view.
  [[nodiscard]] bool valid() const noexcept { return version_ != nullptr; }

  /// The committed version id this view observes.
  [[nodiscard]] uint64_t version() const {
    check();
    return version_->version;
  }

  /// The engine mutation-epoch stamp recorded at publish time.
  [[nodiscard]] uint64_t engine_epoch() const {
    check();
    return version_->engine_epoch;
  }

  /// Recomputes the torn-read checksum (always true for views — the
  /// shared_ptr ownership makes reclamation-under-foot impossible — but
  /// exposed so stress suites can assert it).
  [[nodiscard]] bool verify_checksum() const {
    check();
    return version_->verify_checksum();
  }

  /// Number of solution entries (n for both engines).
  [[nodiscard]] std::size_t size() const {
    check();
    return version_->solution.size();
  }

  /// Zero-copy entry access: in_set bit (MIS) or partner id (matching).
  [[nodiscard]] Value operator[](std::size_t i) const {
    check();
    return version_->solution[i];
  }

  /// The whole solution, zero-copy; valid for the view's lifetime.
  [[nodiscard]] std::span<const Value> values() const {
    check();
    return version_->solution;
  }

  /// The solution as an owned vector — the exact value the historical
  /// committed_solution()/solution_at() calls returned.
  [[nodiscard]] std::vector<Value> to_vector() const {
    check();
    return version_->solution;
  }

 private:
  void check() const {
    PG_CHECK_MSG(version_ != nullptr, "empty ReadView");
  }

  std::shared_ptr<const PublishedVersion<Value>> version_;
};

}  // namespace pargreedy

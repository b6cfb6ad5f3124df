// Atomic helper operations emulating the paper's CRCW-PRAM primitives.
//
// The rootset algorithms (Lemmas 4.2 and 5.3) rely on the "arbitrary write"
// CRCW model: many processors write a candidate and exactly one wins.
// claim_status() and claim_token() are that primitive; atomic_write_min is
// the priority-write of the deterministic-reservations steps. The
// status-byte helpers are the kernels' shared view of their tri-state
// VStatus/EStatus arrays.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace pargreedy {

/// Atomically lowers `slot` to `value` if value is smaller.
/// Returns true iff the write changed the slot.
template <typename T>
bool atomic_write_min(std::atomic<T>& slot, T value) {
  T cur = slot.load(std::memory_order_relaxed);
  while (value < cur) {
    if (slot.compare_exchange_weak(cur, value, std::memory_order_acq_rel,
                                   std::memory_order_relaxed))
      return true;
  }
  return false;
}

/// Relaxed read of item i's status byte, as the enum `Status` (VStatus or
/// EStatus). Kernels read neighbors' bytes while other workers write them
/// in the same phase; every such race is benign by construction (see each
/// kernel), and the atomic access only makes it well-defined.
template <typename Status>
[[nodiscard]] inline Status load_status(const std::vector<uint8_t>& status,
                                        std::size_t i) {
  return static_cast<Status>(std::atomic_ref<const uint8_t>(status[i]).load(
      std::memory_order_relaxed));
}

/// Relaxed write of item i's status byte.
template <typename Status>
inline void store_status(std::vector<uint8_t>& status, std::size_t i,
                         Status s) {
  std::atomic_ref<uint8_t>(status[i]).store(static_cast<uint8_t>(s),
                                            std::memory_order_relaxed);
}

/// Moves item i's status byte from Undecided to `to` with a CAS; true iff
/// this caller performed the transition (exactly one concurrent claimant
/// does).
template <typename Status>
[[nodiscard]] inline bool claim_status(std::vector<uint8_t>& status,
                                       std::size_t i, Status to) {
  auto expected = static_cast<uint8_t>(Status::kUndecided);
  return std::atomic_ref<uint8_t>(status[i]).compare_exchange_strong(
      expected, static_cast<uint8_t>(to), std::memory_order_acq_rel,
      std::memory_order_acquire);
}

/// Claims `stamp` for `token` (a step number); true for exactly one caller
/// per token.
[[nodiscard]] inline bool claim_token(std::atomic<uint64_t>& stamp,
                                      uint64_t token) {
  uint64_t seen = stamp.load(std::memory_order_relaxed);
  if (seen == token) return false;
  return stamp.compare_exchange_strong(seen, token, std::memory_order_acq_rel,
                                       std::memory_order_acquire);
}

/// Collapses a finished kernel's tri-state bytes to the 0/1 membership
/// convention of its result (1 iff the byte is `in`).
template <typename Status>
void collapse_status(std::vector<uint8_t>& status, Status in) {
  parallel_for(0, static_cast<int64_t>(status.size()), [&](int64_t i) {
    uint8_t& b = status[static_cast<std::size_t>(i)];
    b = b == static_cast<uint8_t>(in) ? 1 : 0;
  });
}

}  // namespace pargreedy

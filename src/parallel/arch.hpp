// Worker-count control for the OpenMP backend.
//
// All pargreedy algorithms are deterministic in their inputs regardless of
// the worker count; these helpers exist for the bench harness (thread-sweep
// figures) and for tests that re-run algorithms at several widths.
//
// The serial (non-OpenMP) backend tracks the requested worker count in a
// process-wide variable so that num_workers()/set_num_workers()/
// ScopedNumWorkers observe the same get/set/restore contract as the OpenMP
// backend. Block decompositions (parallel_blocks, pack, scan, reduce) key
// off num_workers(), so the serial backend produces the identical block
// structure — and therefore identical results — as an OpenMP build pinned
// to the same width; the blocks simply run one after another.
//
// Concurrency contract (machine-checked): the worker count is process-wide
// mutable state with no synchronization, so reconfiguring it concurrently
// with running parallel regions is a race. Mutation is modelled by the
// `detail::worker_config_role` capability: set_num_workers() requires it
// and ScopedNumWorkers holds it for its scope, so under -Wthread-safety a
// width change from an unannotated (potentially concurrent) code path is a
// compile error. Reads (num_workers and friends) stay unannotated — the
// backends' getters are safe to call from inside regions.
#pragma once

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "support/thread_annotations.hpp"

namespace pargreedy {

namespace detail {
/// Capability owning the right to reconfigure the process-wide worker
/// count (see file comment). Zero-cost: no runtime state.
inline support::Role worker_config_role;
}  // namespace detail

#if !defined(_OPENMP)
namespace detail {
/// Requested worker count for the serial backend (always >= 1).
inline int& serial_worker_count() {
  static int count = 1;
  return count;
}
}  // namespace detail
#endif

/// Maximum number of workers parallel regions may use.
inline int num_workers() {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return detail::serial_worker_count();
#endif
}

/// Sets the number of workers for subsequent parallel regions. Non-positive
/// requests clamp to 1 on both backends. Writer-side: requires the worker
/// configuration role (use ScopedNumWorkers, which holds it).
inline void set_num_workers(int n)
    PARGREEDY_REQUIRES(detail::worker_config_role) {
#if defined(_OPENMP)
  omp_set_num_threads(n > 0 ? n : 1);
#else
  detail::serial_worker_count() = n > 0 ? n : 1;
#endif
}

/// True when called from inside a parallel region.
inline bool in_parallel() {
#if defined(_OPENMP)
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

/// RAII guard that pins the worker count for a scope and restores it
/// after. Holds `detail::worker_config_role` for the scope, making it the
/// sanctioned way to reconfigure the width (constructor/destructor bodies
/// are outside the analysis, which is what lets them call
/// set_num_workers themselves).
class PARGREEDY_SCOPED_CAPABILITY ScopedNumWorkers {
 public:
  explicit ScopedNumWorkers(int n)
      PARGREEDY_ACQUIRE(detail::worker_config_role)
      : saved_(num_workers()) {
    detail::worker_config_role.acquire();
    set_num_workers(n);
  }
  ~ScopedNumWorkers() PARGREEDY_RELEASE() {
    set_num_workers(saved_);
    detail::worker_config_role.release();
  }
  ScopedNumWorkers(const ScopedNumWorkers&) = delete;
  ScopedNumWorkers& operator=(const ScopedNumWorkers&) = delete;

 private:
  int saved_;
};

}  // namespace pargreedy

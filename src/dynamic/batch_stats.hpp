// BatchStats: the touch counters one apply_batch reports.
//
// Split out of repropagate.hpp so the undo-log layer (which stores a
// lifetime accumulator inside its checkpoints) can use it without pulling
// in the repropagation machinery.
#pragma once

#include <cstdint>
#include <string>

namespace pargreedy {

/// Counters reported by apply_batch: how much of the structure one batch
/// actually touched. `recomputed` is the figure the dynamic-vs-static
/// bench plots — the number of greedy-decision re-evaluations performed
/// (a full recompute would be n for MIS, m for matching).
struct BatchStats {
  uint64_t inserted = 0;     ///< edges actually added
  uint64_t deleted = 0;      ///< edges actually removed
  uint64_t activated = 0;    ///< vertices switched inactive -> active
  uint64_t deactivated = 0;  ///< vertices switched active -> inactive
  uint64_t reweighted = 0;   ///< edge/vertex weights actually changed in
                             ///< place (same-weight and absent-edge
                             ///< reweights are no-ops and not counted)
  uint64_t seeds = 0;        ///< initial repropagation frontier size
  uint64_t rounds = 0;       ///< repropagation rounds until fixpoint
  uint64_t recomputed = 0;   ///< greedy decisions re-evaluated (sum of
                             ///< frontier sizes over all rounds)
  uint64_t changed = 0;      ///< decisions that flipped
  bool compacted = false;    ///< overlay was folded back into the base CSR

  /// Adds another batch's counters into this one (compacted ORs) — the
  /// engines keep a lifetime accumulator this way, which transactions
  /// snapshot and restore.
  void accumulate(const BatchStats& other);

  friend bool operator==(const BatchStats&, const BatchStats&) = default;

  /// One-line human-readable rendering for logs and examples.
  [[nodiscard]] std::string summary() const;
};

/// Rolls one batch's counters into the global obs registry (the
/// `engine.*` metrics) — the obs-side twin of accumulate(), called by
/// both engines at the end of apply_batch. Unlike the engines'
/// `lifetime_stats_`, the obs counters are monotonic: transactions roll
/// `lifetime_stats_` back on abort, but the aborted work still
/// *happened*, and that is exactly what observability reports.
///
/// `engine_label` (non-null: "mis" / "matching") additionally bumps the
/// per-policy `engine.*{engine=...}` series — the unlabeled totals are
/// always bumped, so labeled series refine rather than replace them.
/// `num_vertices` > 0 additionally scores the batch against the paper's
/// round bound: `repro.depth_ratio` = rounds * 1000 / ceil(log2 n)
/// permille (Fischer–Noever's Θ(log n) w.h.p. depth of parallel greedy
/// MIS), recorded for batches that repropagated at all.
void obs_accumulate_batch(const BatchStats& stats,
                          const char* engine_label = nullptr,
                          uint64_t num_vertices = 0);

}  // namespace pargreedy

// Maximal independent set — the paper's primary contribution (Sections 3–4).
//
// The implementations:
//
//   mis_sequential       Algorithm 1: the greedy loop. O(n + m) work,
//                        Theta(n) depth. Defines the lexicographically-first
//                        MIS for ordering pi.
//   mis_prefix           Algorithm 3: speculative processing of a sliding
//                        prefix window of the ordering; the work/parallelism
//                        trade-off knob of the paper's experiments
//                        (Section 6). prefix_size = 1 degenerates to the
//                        sequential algorithm; prefix_size = n IS
//                        Algorithm 2 run step-synchronously (the paper's
//                        "naive" parallel version: every undecided vertex
//                        re-examined each step, O(m * D) work for
//                        dependence length D, and D rounds).
//   mis_rootset          Algorithm 2 in O(n + m) work via explicit root
//                        sets, lazy deletion and misCheck (Lemma 4.2).
//   luby_mis             Luby's Algorithm A: re-randomizes priorities every
//                        round; the classic parallel baseline of Figure 3.
//                        NOT lexicographically-first (different result).
//                        luby_mis_arrays is its array-based formulation;
//                        Figure 3 reports the faster of the two, as the
//                        paper does.
//
// All greedy variants return *identical* results for the same VertexOrder,
// at any worker count — the determinism property the paper argues for.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analysis/profiles.hpp"
#include "core/mis/vertex_order.hpp"
#include "core/priority/priority_source.hpp"
#include "graph/csr_graph.hpp"

namespace pargreedy {

/// Tri-state vertex fate. Transitions are monotone: Undecided -> In|Out.
enum class VStatus : uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };

/// Result of an MIS computation.
struct MisResult {
  /// in_set[v] == 1 iff v is in the MIS.
  std::vector<uint8_t> in_set;
  /// Execution profile (populated per the ProfileLevel passed in).
  RunProfile profile;

  /// The MIS as a sorted vertex list (derived from in_set).
  [[nodiscard]] std::vector<VertexId> members() const;
  /// Number of MIS vertices.
  [[nodiscard]] uint64_t size() const;
};

/// Algorithm 1: sequential greedy MIS.
MisResult mis_sequential(const CsrGraph& g, const VertexOrder& order,
                         ProfileLevel level = ProfileLevel::kNone);

/// Algorithm 2 in linear work via root sets and misCheck (Lemma 4.2).
MisResult mis_rootset(const CsrGraph& g, const VertexOrder& order,
                      ProfileLevel level = ProfileLevel::kNone);

/// Algorithm 3: prefix-based speculative execution with a window of
/// `prefix_size` vertices (clamped to [1, n]). At prefix_size = n it is
/// Algorithm 2, and its round count is the dependence length of the
/// priority DAG (Section 3).
MisResult mis_prefix(const CsrGraph& g, const VertexOrder& order,
                     uint64_t prefix_size,
                     ProfileLevel level = ProfileLevel::kNone);

/// Luby's Algorithm A (fresh random priorities each round). Returns *an*
/// MIS — not the lexicographically-first one. Deterministic in the seed.
/// Priorities are recomputed in-register from a counter-based hash.
MisResult luby_mis(const CsrGraph& g, uint64_t seed,
                   ProfileLevel level = ProfileLevel::kNone);

/// Luby's Algorithm A, the classical array-based formulation: each round
/// materializes a fresh priority array for the live vertices. Computes the
/// SAME MIS as luby_mis for the same seed (same priority values, stored
/// instead of recomputed); exists as the second implementation behind the
/// paper's "we tried different implementations of Luby's algorithm".
MisResult luby_mis_arrays(const CsrGraph& g, uint64_t seed,
                          ProfileLevel level = ProfileLevel::kNone);

/// Weighted greedy MIS oracle: a deliberately independent sequential
/// implementation that selects vertices directly by the source's priority
/// keys (never materializing a VertexOrder). Returns the same set as
/// mis_sequential(g, source.vertex_order(g)); exists as the second code
/// path the weighted differential suites compare the dynamic engines
/// against.
MisResult mis_weighted_sequential(const CsrGraph& g,
                                  const PrioritySource& source);

}  // namespace pargreedy

// Seeded load generation for the serving workloads.
//
// The generator never reads engine state. It keeps its own mirror of the
// live edge set and of vertex activity, applies every committed tick to
// the mirror with the engines' batch precedence, and produces the whole
// tick and read stream before any timing starts, so two builds of the
// library receive byte-identical requests for one seed.
//
// The stream is stationary: inserts match deletes, and vertex activity
// is held at a small fixed inactive share, so the live graph keeps its
// size however far into the stream a run gets.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "dynamic/update_batch.hpp"
#include "graph/types.hpp"

namespace perfbench {

using pargreedy::Edge;
using pargreedy::UpdateBatch;
using pargreedy::VertexId;

/// The generator's copy of the live edge set (with O(1) membership and
/// uniform sampling) and of vertex activity.
class Mirror {
 public:
  Mirror(uint64_t n, std::span<const Edge> edges);

  [[nodiscard]] uint64_t num_vertices() const { return active_.size(); }
  [[nodiscard]] uint64_t num_live_edges() const { return live_.size(); }
  [[nodiscard]] const Edge& live_edge(uint64_t i) const { return live_[i]; }
  [[nodiscard]] bool contains(const Edge& e) const;
  /// Adds canonical edge e; false when it was already live.
  bool insert(const Edge& e);
  /// Removes canonical edge e; false when it was not live.
  bool erase(const Edge& e);

  [[nodiscard]] bool active(VertexId v) const { return active_[v] != 0; }
  /// The inactive vertices, in no particular order.
  [[nodiscard]] const std::vector<VertexId>& inactive() const {
    return inactive_;
  }
  /// Flips v between active and inactive.
  void toggle(VertexId v);

 private:
  std::vector<Edge> live_;
  std::unordered_map<uint64_t, uint32_t> index_;  ///< edge key -> live_ slot
  std::vector<uint8_t> active_;
  std::vector<VertexId> inactive_;
};

/// One writer tick: a batch applied to both engines, committed or (for a
/// what-if) aborted.
struct Tick {
  UpdateBatch batch;
  bool what_if = false;
  /// Live edges the engines must hold after this tick and every tick
  /// before it (what-ifs leave the count unchanged).
  uint64_t live_after = 0;
};

/// Shape of a tick stream.
struct StreamShape {
  uint64_t min_ops = 2;
  uint64_t max_ops = 200;
  /// Committed and what-if ticks each cycle through this many
  /// log-spaced batch sizes, in a fresh seeded order per cycle, so every
  /// run sees the same size mix whatever its seed.
  uint32_t ladder_steps = 16;
  /// Tick i is a what-if when what_if_every > 0 and i % what_if_every ==
  /// what_if_every - 1.
  uint32_t what_if_every = 0;
  /// Weights are drawn from {1, ..., weight_levels}.
  uint64_t weight_levels = 64;
};

/// How a batch of `ops` operations splits into kinds (see loadgen.cpp for
/// where the shares come from).
struct BatchMix {
  uint64_t toggles = 0, inserts = 0, deletes = 0;
  uint64_t edge_reweights = 0, vertex_reweights = 0;
};
BatchMix batch_mix(uint64_t ops);

/// Most vertices the stream keeps inactive at once: n / 1024, at least 2.
uint64_t inactive_cap(uint64_t n);

/// `count` ticks generated against `mirror`, which ends in the state after
/// the last committed tick.
std::vector<Tick> generate_ticks(Mirror& mirror, const StreamShape& shape,
                                 uint64_t count, uint64_t seed);

/// One reader request: a lookup of k vertices in both engines' views, or
/// a whole-solution copy of both; `back` > 0 reads the version that many
/// commits older than the newest.
struct ReadRequest {
  bool copy = false;
  uint32_t back = 0;
  uint32_t first = 0;  ///< offset of its k vertices in ReadStream::vertices
};

/// A reader's pre-generated request stream; readers cycle through it.
struct ReadStream {
  std::vector<ReadRequest> requests;
  std::vector<VertexId> vertices;
  uint32_t k = 0;
};

/// `count` requests over vertices [0, n): one in `copy_every` is a copy,
/// one in `retained_every` reads a retained version 1..3 commits back.
ReadStream generate_reads(uint64_t n, uint64_t count, uint32_t k,
                          uint32_t copy_every, uint32_t retained_every,
                          uint64_t seed);

}  // namespace perfbench

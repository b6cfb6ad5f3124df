#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "random/hash.hpp"
#include "random/xoshiro.hpp"

namespace perfbench {

namespace {

uint64_t edge_key(const Edge& e) {
  return (uint64_t{e.u} << 32) | uint64_t{e.v};
}

/// Log-spaced sizes from lo to hi inclusive.
std::vector<uint64_t> size_ladder(uint64_t lo, uint64_t hi, uint32_t steps) {
  std::vector<uint64_t> sizes;
  for (uint32_t i = 0; i < steps; ++i) {
    const double f = steps == 1 ? 0.0 : double(i) / double(steps - 1);
    sizes.push_back(static_cast<uint64_t>(
        std::llround(double(lo) * std::pow(double(hi) / double(lo), f))));
  }
  return sizes;
}

/// Cycles through a ladder, reshuffling at every cycle start.
class Ladder {
 public:
  Ladder(std::vector<uint64_t> sizes, pargreedy::Xoshiro256& rng)
      : sizes_(std::move(sizes)), rng_(rng) {}

  uint64_t next() {
    if (pos_ == sizes_.size()) pos_ = 0;
    if (pos_ == 0)
      for (std::size_t i = sizes_.size(); i > 1; --i)
        std::swap(sizes_[i - 1], sizes_[rng_.range(i)]);
    return sizes_[pos_++];
  }

 private:
  std::vector<uint64_t> sizes_;
  pargreedy::Xoshiro256& rng_;
  std::size_t pos_ = 0;
};

/// Reverts a what-if batch's effect on the mirror.
struct Undo {
  std::vector<Edge> deleted, inserted;
  std::vector<VertexId> toggled;
};

/// Builds one batch of `ops` operations against the mirror, applying it
/// with the engines' precedence (deletions, insertions, activity, then
/// reweights of edges live at that point). Records what changed in `undo`.
UpdateBatch make_batch(Mirror& mirror, uint64_t ops, uint64_t levels,
                       pargreedy::Xoshiro256& rng, Undo& undo) {
  const BatchMix mix = batch_mix(ops);
  const uint64_t n = mirror.num_vertices();
  const auto weight = [&] {
    return static_cast<pargreedy::Weight>(1 + rng.range(levels));
  };
  const auto any_vertex = [&] { return static_cast<VertexId>(rng.range(n)); };
  UpdateBatch batch;
  for (uint64_t i = 0; i < mix.deletes && mirror.num_live_edges() > 0; ++i) {
    const Edge e = mirror.live_edge(rng.range(mirror.num_live_edges()));
    mirror.erase(e);
    undo.deleted.push_back(e);
    batch.delete_edge(e.u, e.v);
  }
  for (uint64_t i = 0; i < mix.inserts; ++i) {
    Edge e;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const VertexId u = any_vertex();
      auto v = static_cast<VertexId>(rng.range(n - 1));
      if (v >= u) ++v;
      e = Edge{u, v}.canonical();
      if (!mirror.contains(e)) break;
    }
    if (mirror.insert(e)) undo.inserted.push_back(e);
    batch.insert_edge(e.u, e.v, weight());
  }
  // The first toggle deactivates an active vertex. The second reactivates
  // an inactive one once the inactive set is at its cap, and deactivates
  // another vertex until then, so activity fills to the cap and stays.
  std::vector<VertexId>& toggled = undo.toggled;
  const auto untoggled = [&](VertexId v) {
    return std::find(toggled.begin(), toggled.end(), v) == toggled.end();
  };
  const uint64_t cap = inactive_cap(n);
  for (uint64_t i = 0; i < mix.toggles; ++i) {
    VertexId v;
    if (i % 2 == 1 && mirror.inactive().size() >= cap) {
      do {
        v = mirror.inactive()[rng.range(mirror.inactive().size())];
      } while (!untoggled(v));
      batch.activate(v);
    } else {
      do {
        v = any_vertex();
      } while (!mirror.active(v) || !untoggled(v));
      batch.deactivate(v);
    }
    mirror.toggle(v);
    toggled.push_back(v);
  }
  for (uint64_t i = 0; i < mix.edge_reweights && mirror.num_live_edges() > 0;
       ++i) {
    const Edge e = mirror.live_edge(rng.range(mirror.num_live_edges()));
    batch.reweight_edge(e.u, e.v, weight());
  }
  // A vertex is never both toggled and reweighted in one batch: DynamicMis
  // diverges from the greedy oracle when a batch deactivates a vertex and
  // changes its priority (the deactivation's cone is expanded under the
  // new key), and the workloads must be ones on which no operation fails.
  for (uint64_t i = 0; i < mix.vertex_reweights; ++i) {
    VertexId v;
    do {
      v = any_vertex();
    } while (!untoggled(v));
    batch.reweight_vertex(v, weight());
  }
  return batch;
}

}  // namespace

BatchMix batch_mix(uint64_t ops) {
  // dynamic_service's traffic() sends, per batch, 2 vertex toggles and
  // m/200 inserts, m/300 deletes and m/150 reweights (3:2:4), the
  // reweights alternating edge and vertex. Deletes are raised to the
  // insert rate (3:3:4) so the live edge count does not grow with the
  // ticks a run gets through. Shares are rounded, not drawn, so a batch
  // size always has the same make-up.
  BatchMix mix;
  mix.toggles = ops >= 2 ? 2 : 0;
  const uint64_t rest = ops - mix.toggles;
  mix.inserts = (3 * rest + 5) / 10;
  mix.deletes = mix.inserts;
  const uint64_t reweights = rest - 2 * mix.inserts;
  mix.edge_reweights = (reweights + 1) / 2;
  mix.vertex_reweights = reweights / 2;
  return mix;
}

uint64_t inactive_cap(uint64_t n) { return std::max<uint64_t>(2, n / 1024); }

Mirror::Mirror(uint64_t n, std::span<const Edge> edges) : active_(n, 1) {
  live_.reserve(edges.size());
  index_.reserve(edges.size());
  for (const Edge& e : edges) insert(e.canonical());
}

bool Mirror::contains(const Edge& e) const {
  return index_.count(edge_key(e)) != 0;
}

bool Mirror::insert(const Edge& e) {
  if (live_.size() >= UINT32_MAX) throw std::length_error("mirror overflow");
  if (!index_.emplace(edge_key(e), static_cast<uint32_t>(live_.size())).second)
    return false;
  live_.push_back(e);
  return true;
}

bool Mirror::erase(const Edge& e) {
  const auto it = index_.find(edge_key(e));
  if (it == index_.end()) return false;
  // Swap-remove from live_, re-pointing the moved edge's entry.
  const uint32_t at = it->second;
  index_.erase(it);
  const Edge last = live_.back();
  live_.pop_back();
  if (at < live_.size()) {
    live_[at] = last;
    index_[edge_key(last)] = at;
  }
  return true;
}

void Mirror::toggle(VertexId v) {
  if (active_[v] != 0) {
    inactive_.push_back(v);
  } else {
    *std::find(inactive_.begin(), inactive_.end(), v) = inactive_.back();
    inactive_.pop_back();
  }
  active_[v] ^= 1;
}

std::vector<Tick> generate_ticks(Mirror& mirror, const StreamShape& shape,
                                 uint64_t count, uint64_t seed) {
  pargreedy::Xoshiro256 rng(pargreedy::hash64(seed, 0x7469636b));  // "tick"
  Ladder committed(size_ladder(shape.min_ops, shape.max_ops,
                               shape.ladder_steps),
                   rng);
  Ladder what_if(size_ladder(shape.min_ops, shape.max_ops,
                             shape.ladder_steps),
                 rng);
  std::vector<Tick> ticks(count);
  for (uint64_t i = 0; i < count; ++i) {
    Tick& t = ticks[i];
    t.what_if = shape.what_if_every > 0 &&
                i % shape.what_if_every == shape.what_if_every - 1;
    Undo undo;
    t.batch = make_batch(mirror, t.what_if ? what_if.next() : committed.next(),
                         shape.weight_levels, rng, undo);
    if (t.what_if) {
      for (const Edge& e : undo.inserted) mirror.erase(e);
      for (const Edge& e : undo.deleted) mirror.insert(e);
      for (const VertexId v : undo.toggled) mirror.toggle(v);
    }
    t.live_after = mirror.num_live_edges();
  }
  return ticks;
}

ReadStream generate_reads(uint64_t n, uint64_t count, uint32_t k,
                          uint32_t copy_every, uint32_t retained_every,
                          uint64_t seed) {
  pargreedy::Xoshiro256 rng(pargreedy::hash64(seed, 0x72656164));  // "read"
  ReadStream s;
  s.k = k;
  s.requests.resize(count);
  s.vertices.resize(count * k);
  for (uint64_t i = 0; i < count; ++i) {
    ReadRequest& r = s.requests[i];
    r.copy = i % copy_every == copy_every - 1;
    r.back = i % retained_every == retained_every - 1
                 ? 1 + static_cast<uint32_t>(rng.range(3))
                 : 0;
    r.first = static_cast<uint32_t>(i * k);
    for (uint32_t j = 0; j < k; ++j)
      s.vertices[i * k + j] = static_cast<VertexId>(rng.range(n));
  }
  return s;
}

}  // namespace perfbench

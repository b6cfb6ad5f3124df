#include "dynamic/repropagate.hpp"

#include <bit>
#include <sstream>

namespace pargreedy {

void BatchStats::accumulate(const BatchStats& other) {
  inserted += other.inserted;
  deleted += other.deleted;
  activated += other.activated;
  deactivated += other.deactivated;
  reweighted += other.reweighted;
  seeds += other.seeds;
  rounds += other.rounds;
  recomputed += other.recomputed;
  changed += other.changed;
  compacted = compacted || other.compacted;
}

std::string BatchStats::summary() const {
  std::ostringstream os;
  os << "+" << inserted << " edges, -" << deleted << " edges";
  if (activated || deactivated)
    os << ", +" << activated << "/-" << deactivated << " vertices";
  if (reweighted) os << ", ~" << reweighted << " reweights";
  os << "; " << seeds << " seeds -> " << recomputed << " recomputes, "
     << changed << " flips in " << rounds << " rounds";
  if (compacted) os << " (compacted)";
  return os.str();
}

void obs_accumulate_batch(const BatchStats& stats, const char* engine_label,
                          uint64_t num_vertices) {
  PG_OBS_COUNT(obs::kEngineBatches, 1);
  PG_OBS_COUNT(obs::kEngineInserted, stats.inserted);
  PG_OBS_COUNT(obs::kEngineDeleted, stats.deleted);
  PG_OBS_COUNT(obs::kEngineActivated, stats.activated);
  PG_OBS_COUNT(obs::kEngineDeactivated, stats.deactivated);
  PG_OBS_COUNT(obs::kEngineReweighted, stats.reweighted);
  PG_OBS_COUNT(obs::kEngineSeeds, stats.seeds);
  PG_OBS_COUNT(obs::kEngineRounds, stats.rounds);
  PG_OBS_COUNT(obs::kEngineRecomputed, stats.recomputed);
  PG_OBS_COUNT(obs::kEngineChanged, stats.changed);
  PG_OBS_COUNT(obs::kEngineCompacted, stats.compacted ? 1 : 0);
  if (engine_label != nullptr) {
    // Per-policy refinement of the series a dashboard splits on; the
    // full-width rollup stays on the unlabeled counters above.
    PG_OBS_COUNT_L(obs::kEngineBatches, "engine", engine_label, 1);
    PG_OBS_COUNT_L(obs::kEngineSeeds, "engine", engine_label, stats.seeds);
    PG_OBS_COUNT_L(obs::kEngineRounds, "engine", engine_label, stats.rounds);
    PG_OBS_COUNT_L(obs::kEngineRecomputed, "engine", engine_label,
                   stats.recomputed);
    PG_OBS_COUNT_L(obs::kEngineChanged, "engine", engine_label,
                   stats.changed);
  }
  if (num_vertices > 1 && stats.rounds > 0) {
    // The paper's guarantee, watched live: observed repropagation depth
    // vs the Θ(log n) round bound of parallel greedy MIS (Fischer–Noever),
    // in permille — a scale on which a 2x depth regression shows.
    // bit_width(n) is ceil(log2 n) up to rounding — stable, cheap, and
    // monotone in n, which is all a health ratio needs.
    const uint64_t log_n = std::bit_width(num_vertices);
    const uint64_t permille = stats.rounds * 1000 / log_n;
    PG_OBS_GAUGE(obs::kReproDepthRatio, permille);
    PG_OBS_HIST(obs::kReproDepthRatioDist, permille);
  }
}

}  // namespace pargreedy

// Positive thread-safety fixture: the annotated surface, used correctly.
//
// Compiled with `clang -fsyntax-only -Wthread-safety -Werror=thread-safety`
// by the thread_safety_contract_clean ctest (Clang configures only). The
// explicit template instantiations at the bottom force the analysis through
// every member of Transaction and PublishedState; the writer functions model
// the protocol's one writer thread holding each object's role capability.
// If an annotation rots — a mutator loses its REQUIRES, a body stops
// acquiring a role it needs — this TU stops being warning-clean and the
// test fails.
#include <cstdint>

#include "dynamic/dynamic_matching.hpp"
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/update_batch.hpp"
#include "parallel/arch.hpp"
#include "support/thread_annotations.hpp"
#include "txn/epoch.hpp"
#include "txn/published_state.hpp"
#include "txn/transaction.hpp"

namespace pargreedy {

// The writer thread of a DynamicMis: holds the engine's role across the
// mutation sequence. apply_batch acquires the overlay's role internally.
void mis_writer(DynamicMis& engine, const UpdateBatch& batch)
    PARGREEDY_REQUIRES(engine.writer_role_) {
  engine.apply_batch(batch);
  engine.set_compaction_threshold(0.5);
  engine.compact_if_needed();
  engine.compact();
}

// Reader-side queries need no capability: const surface only.
uint64_t mis_reader(const DynamicMis& engine) {
  return engine.size() + engine.epoch();
}

void matching_writer(DynamicMatching& engine, const UpdateBatch& batch)
    PARGREEDY_REQUIRES(engine.writer_role_) {
  engine.apply_batch(batch);
  engine.compact_if_needed();
}

uint64_t matching_reader(const DynamicMatching& engine) {
  return engine.size() + engine.epoch();
}

// Direct overlay mutation: the caller is the overlay's writer.
void overlay_writer(OverlayGraph& graph)
    PARGREEDY_REQUIRES(graph.writer_role_) {
  const EdgeSlot s = graph.insert_edge(0, 1, Weight{2});
  if (s != kInvalidSlot) graph.set_slot_weight(s, Weight{3});
  graph.erase_edge(0, 1);
}

// The transaction layer's writer thread: holds the wrapper's role; the
// wrapper's bodies acquire the engine's (and, in commit, the published
// state's).
uint64_t txn_writer(MisTransaction& txn, const UpdateBatch& batch)
    PARGREEDY_REQUIRES(txn.writer_role_) {
  txn.begin();
  txn.apply(batch);
  const EngineSnapshot sp = txn.savepoint();
  txn.apply(batch);
  txn.rollback_to(sp);
  return txn.commit();
}

// The lock-free reader surface: NO capability on the function — this is
// the machine-checked statement that the published-read path is callable
// without the writer role (the acceptance criterion of the epoch work).
// The zero-copy accessors require the shared reader capability, which
// the scoped ReadGuard acquires; acquire() and the Transaction read API
// need nothing at all.
uint64_t published_reader(const PublishedState<uint8_t>& state) {
  ReadGuard guard(state.epochs_);
  uint64_t sum = state.window(guard).versions.size();
  sum += state.latest(guard).version;
  sum += state.at(state.latest(guard).version, guard).checksum;
  return sum;
}

uint64_t txn_lock_free_reader(const MisTransaction& txn) {
  uint64_t sum = txn.version() + txn.oldest_version();
  sum += txn.committed_solution().size();
  sum += txn.solution_at(txn.version()).size();
  const auto& state = txn.published_state();
  ReadGuard guard(state.epochs_);
  return sum + state.latest(guard).version;
}

// The published writer: publish/reclaim under the state's writer role
// (the epoch advance acquires the manager's own writer role inside).
void published_writer(PublishedState<uint8_t>& state)
    PARGREEDY_REQUIRES(state.writer_role_) {
  state.publish(state.writer_latest_version() + 1, 0, {});
  state.reclaim();
  (void)state.retired_count();
}

// Worker-width reconfiguration goes through the scoped guard, which holds
// detail::worker_config_role for its scope.
int scoped_width_change() {
  ScopedNumWorkers pin(2);
  return num_workers();
}

// Force analysis of every templated member.
template class Transaction<MisTxnTraits>;
template class Transaction<MatchingTxnTraits>;
template class PublishedState<uint8_t>;
template class PublishedState<VertexId>;

}  // namespace pargreedy

// Negative thread-safety fixture: a reader-side code path calling writer
// mutators without holding any writer role.
//
// This TU MUST fail to compile under `clang -fsyntax-only -Wthread-safety
// -Werror=thread-safety`; the thread_safety_contract_misuse ctest registers
// it with WILL_FAIL, so the suite goes red if this file ever *compiles* —
// i.e. if the capability annotations stop making the single-writer
// violation a compile error.
#include "dynamic/dynamic_mis.hpp"
#include "dynamic/overlay_graph.hpp"
#include "dynamic/update_batch.hpp"
#include "txn/published_state.hpp"
#include "txn/transaction.hpp"

namespace pargreedy {

// A "reader" that mutates: no PARGREEDY_REQUIRES, so every call below
// violates the callee's writer-role requirement.
uint64_t reader_that_mutates(DynamicMis& engine, OverlayGraph& graph,
                             MisTransaction& txn, const UpdateBatch& batch) {
  engine.apply_batch(batch);       // requires engine.writer_role_
  graph.insert_edge(0, 1);         // requires graph.writer_role_
  txn.begin();                     // requires txn.writer_role_
  txn.apply(batch);
  return txn.commit();
}

// Publishing or reclaiming without the published state's writer role is
// the same violation on the lock-free read path's writer side.
uint64_t reader_that_publishes(PublishedState<uint8_t>& state) {
  state.publish(1, 0, {});         // requires state.writer_role_
  state.reclaim();                 // requires state.writer_role_
  return 0;
}

}  // namespace pargreedy

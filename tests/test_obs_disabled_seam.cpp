// Companion TU for test_obs.cpp, compiled with the PARGREEDY_OBS seam
// forced OFF (see the target_compile_definitions in tests/CMakeLists.txt
// note — the define below wins because it precedes the include). Every
// PG_OBS_* macro here must expand to nothing: the probe metric names
// must never reach the registry, which ObsSeam.CompiledOutTuIsNoOp in
// the companion (seam-ON) TU asserts.
#define PARGREEDY_OBS 0
#include "obs/obs.hpp"

namespace pargreedy::obs {

void emit_disabled_seam_probes() {
  PG_OBS_COUNT("test.seam.counter", 1);
  PG_OBS_GAUGE("test.seam.gauge", 7);
  PG_OBS_HIST("test.seam.hist", 42);
  PG_OBS_SPAN(span, kDecide);
  PG_OBS_SPAN1(span1, kExpand, 1);
  PG_OBS_SPAN2(span2, kCommit, 1, 2);
  PG_OBS_SPAN_ARG(span, 3);
  // Labeled counters and the flight-recorder surface compile out too:
  // no labeled series registered, no events recorded, and the
  // correlation scopes reduce to ((void)0) so they cost nothing.
  PG_OBS_COUNT_L("test.seam.counter", "shard", "0", 1);
  PG_OBS_EVENT(kBatchBegin);
  PG_OBS_EVENT1(kBatchEnd, 1);
  PG_OBS_EVENT2(kReproRound, 1, 2);
  PG_OBS_EVENT_DUMP("test_seam");
  PG_OBS_BATCH_SCOPE(seam_batch);
  PG_OBS_TXN_SCOPE(seam_txn, 9);
  PG_OBS_SHARD_SCOPE(seam_shard, 3);
}

}  // namespace pargreedy::obs

// gTop-k: global top-k sparse aggregation (Shi et al. 2019c, cited in §6).
//
// A tree/hypercube alternative to both NaiveAG and HiTopKComm: every rank
// selects its local top-k, then in log2(P) recursive-doubling rounds pairs
// exchange their k (value, index) entries, sum coincident indices, and
// re-select the top-k of the merge.  All ranks end with the *same* global
// top-k approximation of the gradient sum, moving only O(k log P) bytes per
// rank — less traffic than NaiveAG's O(kP) but with log P rounds of
// re-selection (and more selection bias, since mass outside the running
// top-k is dropped at every merge unless error feedback catches it).
//
// Non-power-of-two worlds run a documented pre-fold: with q the largest
// power of two <= P and rem = P - q, the rem extra ranks first fold their
// selections into ranks 0..rem-1 (one merge round), the q-rank hypercube
// runs the recursive doubling, and a final unfold round sends the result
// back to the extra ranks.  Every exchange round closes one report phase
// ("fold", "hypercube" per doubling round, "unfold"): log2(q) + 2 phases
// when rem > 0, log2(P) otherwise.
//
// gTop-k is a recorded schedule like every other collective
// (collectives/schedule.h): build_gtopk records each round's sends, and
// the functional work — the local selection with its error-feedback apply
// and absorb, the per-round merges, and the final scatter into the rank
// buffers — as callable data-pass steps (Schedule::call).  Callers run it
// as any schedule: run_timing or run_timing_abortable under their job,
// then run_data.  An aborted replay never reaches run_data, so it touches
// neither the buffers nor the residuals, and an elastic retry starts from
// the caller's inputs (digests and clocks pinned in
// schedule_equivalence_test).
#pragma once

#include "collectives/common.h"
#include "collectives/schedule.h"
#include "compress/error_feedback.h"
#include "compress/sparse_tensor.h"

namespace hitopk::coll {

struct GtopkOptions {
  // Elements each rank keeps at every merge (k = density * d).
  double density = 0.01;
  size_t value_wire_bytes = 4;
  // Optional error feedback applied to the local selection (functional
  // mode); keys are "<ef_key_prefix>:<rank>".
  compress::ErrorFeedback* error_feedback = nullptr;
  std::string ef_key_prefix = "gtopk";
};

// Records global top-k aggregation over the whole of `topo` (any world
// size; non-powers-of-two pay one fold and one unfold round).  Functional
// mode: run_data replaces each data[rank] (full d elements) with the
// identical global top-k of the sum.  Timing-only mode: data empty, and
// no callable steps are recorded.  The recorded steps hold `data` and
// options.error_feedback by reference: both must outlive the schedule's
// last run_data.
void build_gtopk(Schedule& sched, const simnet::Topology& topo,
                 const RankData& data, size_t elems,
                 const GtopkOptions& options);

// build_gtopk, then Schedule::run on `cluster` from `start`.
PhaseReport gtopk_comm(simnet::Cluster& cluster, const RankData& data,
                       size_t elems, const GtopkOptions& options, double start);

}  // namespace hitopk::coll

// NaiveAG: flat sparse All-Gather aggregation (Renggli et al. 2019 style),
// the paper's TopK-SGD communication baseline.
//
// Every world rank contributes its top-k (values, indices) pair; a flat ring
// All-Gather over all P ranks replicates all P sparse blocks everywhere,
// crossing the slow node boundary for every block; each rank then
// accumulates the blocks into a dense buffer.  Cost per Eq. 3:
// alpha*steps + 4(P-1)*beta*k per gather, and the values and indices
// gathers together move 2k elements per rank.
#pragma once

#include "collectives/common.h"
#include "collectives/schedule.h"
#include "compress/sparse_tensor.h"

namespace hitopk::coll {

// Per-ring-step protocol overhead of the flat world-scale sparse All-Gather
// (see models/calibration.h): measured NCCL sparse all-gathers at P = 128
// over cloud TCP reach only a fraction of line rate.  Pass 0 for a pure
// alpha-beta lower bound.
inline constexpr double kFlatRingStepOverhead = 1.0e-3;

// Functional + timed: `sparse` holds one compressed gradient per world rank;
// each rank's dense result (the sum of all P sparse blocks) is written into
// data[rank] when data is non-empty.  value_wire_bytes: 2 for FP16 values.
// accumulate_seconds_per_rank: device-side scatter-add cost (0 to measure
// pure communication).  Phases: "allgather", "accumulate" (the local
// scatter-add of the P blocks).
PhaseReport naive_sparse_allgather(
    simnet::Cluster& cluster,
    const std::vector<compress::SparseTensor>& sparse, const RankData& data,
    size_t elems, size_t value_wire_bytes, double accumulate_seconds_per_rank,
    double start, double step_overhead = kFlatRingStepOverhead);

// Timing-only variant: every rank contributes exactly k elements.
PhaseReport naive_sparse_allgather_time(
    simnet::Cluster& cluster, size_t k, size_t value_wire_bytes,
    double accumulate_seconds_per_rank, double start,
    double step_overhead = kFlatRingStepOverhead);

}  // namespace hitopk::coll

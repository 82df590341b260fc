// Sharded parameter-server aggregation (Li et al. 2014, the paper's §1
// alternative to All-Reduce).
//
// One server per node, co-located with the workers; parameter shard s
// (d/m elements) lives on server s.  Each iteration: every worker pushes
// its gradient shard to every server (sums applied server-side), then
// pulls every aggregated shard back.  With co-located servers the
// bisection traffic matches ring All-Reduce, but every byte crosses the
// slow NIC twice and fans in/out of single endpoints — the congestion
// pattern that made PS architectures lose to All-Reduce on dense GPU
// clusters (§1).  Included as an aggregation baseline for the ablations.
#pragma once

#include "collectives/common.h"
#include "collectives/schedule.h"

namespace hitopk::coll {

// In-place dense aggregation over the whole cluster: after completion every
// rank's buffer holds the element-wise sum.  Timing-only when data is
// empty.  Phases: "push", "pull".
PhaseReport param_server_allreduce(simnet::Cluster& cluster,
                                   const RankData& data, size_t elems,
                                   WireDtype wire, double start);

}  // namespace hitopk::coll

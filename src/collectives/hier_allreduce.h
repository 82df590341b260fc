// Hierarchical leader-based All-Reduce (ablation baseline).
//
// The other classic two-level dense scheme (Goyal et al. 2017; Jia et al.
// 2018): reduce inside each node onto a leader GPU, ring All-Reduce among
// the m leaders over the NIC, then broadcast inside each node.  Unlike
// 2DTAR it uses only one inter-node stream per node but moves the *full*
// buffer across the NIC, so it loses to 2DTAR when n > 1 — the comparison
// bench_ablation_cluster quantifies this.  Works on uneven topologies
// (per-node GPU counts may differ): only the leader role matters, so it is
// the dense baseline for heterogeneous-cluster scenarios.
#pragma once

#include "collectives/common.h"
#include "collectives/schedule.h"

namespace hitopk::coll {

// Phases: "intra_reduce", "inter_allreduce" (closed twice: at the leaders'
// ring mid-point and at its end), "intra_broadcast".
PhaseReport hier_allreduce(simnet::Cluster& cluster, const RankData& data,
                           size_t elems, WireDtype wire, double start);

// Records the whole collective (leader fan-in, leaders' ring All-Reduce,
// leader broadcast, with collapse syncs at the phase boundaries) into a
// caller-owned schedule.  Works on uneven topologies.  Exposed for the
// planner (collectives/planner.h).
void build_hier_allreduce(Schedule& sched, const simnet::Topology& topo,
                          const RankData& data, size_t elems, WireDtype wire);

}  // namespace hitopk::coll

// Cluster topology: m nodes x n GPUs with a two-level interconnect.
//
// This is the substrate standing in for the paper's testbed (Table 1): GPUs
// inside a node are connected by NVLink (high bandwidth, low latency,
// dedicated peer links); nodes are connected by Ethernet through one NIC per
// node, which all of a node's GPUs share.  The shared NIC is the property
// that makes flat collectives slow on public clouds and is modelled
// explicitly (inter-node transfers serialize through per-node NIC ports).
//
// Two generalizations open the topology axis beyond the paper's uniform
// testbed:
//
//   uneven nodes — gpus-per-node may differ per node (the transient-server
//     / heterogeneous-fleet scenario: a cluster assembled from whatever
//     instance shapes the cloud had available).  Rank r maps to the node
//     whose half-open rank interval contains r; `gpus_per_node()` stays
//     valid only on uniform topologies (collectives that require a uniform
//     shard layout keep calling it and fail loudly on uneven clusters).
//
//   fat-tree oversubscription — public-cloud fabrics are rarely
//     non-blocking: the aggregation/core layer carries only 1/f of the sum
//     of the edge (NIC) bandwidths.  `oversubscription` (f >= 1) bounds the
//     aggregate inter-node service rate; f == 1 (default) is a non-blocking
//     fabric and leaves every existing timing bit-for-bit unchanged.  Two
//     fabric shapes, selected by `nodes_per_pod`:
//       0 (default) — one oversubscribed switch layer: every inter-node
//         transfer shares a single core port of capacity
//         nodes * nic_rate / f.
//       k in (0, nodes) — an edge/aggregation fat tree: nodes are grouped
//         into pods of k; transfers between nodes of one pod stay on the
//         (non-blocking) edge switch and see only the NIC ports, while
//         cross-pod transfers additionally pass their pods' uplinks, each
//         of capacity k * nic_rate / f.  Topology-aware schedules that
//         keep traffic inside a pod (BlueConnect stages) dodge the
//         oversubscribed layer; flat world-scale rings cannot.
#pragma once

#include <string>
#include <vector>

#include "core/check.h"

namespace hitopk::simnet {

// alpha-beta link: transferring b bytes costs alpha + b * beta seconds.
// For inter-node links beta is the *per-flow* rate: a single TCP stream on
// a cloud VPC reaches well under line rate; the NIC's aggregate line-rate
// capacity is a separate Topology parameter (nic_beta).  Schemes that open
// many concurrent flows per NIC (2DTAR, HiTopKComm) aggregate toward line
// rate; schemes with one or two flows per node (ring/tree Dense-SGD) are
// stuck at per-flow speed — the asymmetry behind Fig. 7.
struct LinkParams {
  double alpha = 0.0;  // latency per message, seconds
  double beta = 0.0;   // seconds per byte (1 / per-flow bandwidth)

  double transfer_seconds(size_t bytes) const {
    return alpha + beta * static_cast<double>(bytes);
  }
};

class Topology {
 public:
  // nic_beta: seconds/byte of a node NIC's aggregate capacity; <= 0 means
  // "same as the per-flow rate" (the NIC fully serializes transfers).
  // oversubscription: fat-tree oversubscription factor f >= 1 (see above);
  // nodes_per_pod: edge-pod size, 0 = single switch layer.  Throws
  // ConfigError for no nodes, a node without GPUs, f < 1 or a negative
  // pod size (the presets below included).
  Topology(int nodes, int gpus_per_node, LinkParams intra, LinkParams inter,
           double nic_beta = 0.0, double oversubscription = 1.0,
           int nodes_per_pod = 0);

  // Uneven variant: gpus[i] GPUs on node i (all > 0).
  Topology(std::vector<int> gpus, LinkParams intra, LinkParams inter,
           double nic_beta = 0.0, double oversubscription = 1.0,
           int nodes_per_pod = 0);

  // Presets matching Table 1 instances.  Intra-node: V100 NVLink ring
  // (~45 GB/s per hop, ~6 us).  Inter-node: the instance NIC with TCP/VPC
  // overhead (~80% of line rate, ~25 us).
  static Topology tencent_cloud(int nodes = 16, int gpus_per_node = 8);  // 25 GbE
  static Topology aws_p3(int nodes = 16, int gpus_per_node = 8);         // 25 GbE
  static Topology aliyun(int nodes = 16, int gpus_per_node = 8);         // 32 GbE
  // 100 Gbps InfiniBand cluster (DAWNBench competitors).
  static Topology infiniband_100g(int nodes = 16, int gpus_per_node = 8);

  int nodes() const { return static_cast<int>(gpus_.size()); }
  int world_size() const { return world_size_; }

  // Uniform-shape accessor: valid only when every node has the same GPU
  // count (fails loudly otherwise, so collectives that assume a uniform
  // shard layout cannot silently mis-map ranks on uneven clusters).
  int gpus_per_node() const {
    HITOPK_CHECK(uniform_gpus_ > 0)
        << "gpus_per_node() on an uneven topology; use gpus_on_node(node)";
    return uniform_gpus_;
  }
  bool uniform() const { return uniform_gpus_ > 0; }
  int gpus_on_node(int node) const {
    HITOPK_CHECK(node >= 0 && node < nodes());
    return gpus_[static_cast<size_t>(node)];
  }
  int max_gpus_per_node() const { return max_gpus_; }

  int node_of(int rank) const;
  int local_rank(int rank) const;
  int rank_of(int node, int local) const;
  bool same_node(int a, int b) const;

  const LinkParams& intra() const { return intra_; }
  const LinkParams& inter() const { return inter_; }
  const LinkParams& link_between(int a, int b) const;
  double nic_beta() const { return nic_beta_; }
  double oversubscription() const { return oversubscription_; }
  int nodes_per_pod() const { return nodes_per_pod_; }
  // Number of edge pods (1 when the fabric has a single switch layer).
  int pods() const;
  int pod_of(int node) const;
  bool same_pod(int node_a, int node_b) const {
    return pod_of(node_a) == pod_of(node_b);
  }

  std::string describe() const;

  // Structural hash of everything the timing model sees: the per-node GPU
  // vector, both link parameter pairs, the NIC capacity, the
  // oversubscription factor, and the pod tiling.  Two topologies with equal
  // fingerprints replay any schedule to the same clock, so planner caches
  // key on it.  Stable within a process run; not a persistence format.
  uint64_t fingerprint() const;

 private:
  std::vector<int> gpus_;        // GPUs per node
  std::vector<int> node_base_;   // first world rank of each node, + world end
  int world_size_ = 0;
  int uniform_gpus_ = 0;         // common GPU count, 0 when uneven
  int max_gpus_ = 0;
  LinkParams intra_;
  LinkParams inter_;
  double nic_beta_;
  double oversubscription_;
  int nodes_per_pod_;
};

}  // namespace hitopk::simnet

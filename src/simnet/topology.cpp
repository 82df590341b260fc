#include "simnet/topology.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace hitopk::simnet {
namespace {

// Gbps line rate -> seconds/byte at the given achievable efficiency.
// Aggregate TCP goodput across many competing flows on a cloud VPC reaches
// only ~55% of line rate (framing, congestion control, virtualization).
double ethernet_beta(double gbps, double efficiency = 0.55) {
  return 1.0 / (gbps / 8.0 * 1e9 * efficiency);
}

constexpr double kNvlinkHopBandwidth = 45e9;  // bytes/s per ring hop
constexpr double kNvlinkAlpha = 6e-6;
constexpr double kEthernetAlpha = 25e-6;  // VPC / TCP stack latency
constexpr double kInfinibandAlpha = 5e-6;
// A single tuned TCP flow on a cloud VPC (NCCL socket transport): ~9.6 Gbps
// regardless of the 25/32 GbE line rate.
constexpr double kTcpFlowBandwidth = 1.2e9;  // bytes/s

LinkParams nvlink() { return LinkParams{kNvlinkAlpha, 1.0 / kNvlinkHopBandwidth}; }

}  // namespace

Topology::Topology(int nodes, int gpus_per_node, LinkParams intra,
                   LinkParams inter, double nic_beta, double oversubscription,
                   int nodes_per_pod)
    : Topology(std::vector<int>(static_cast<size_t>(std::max(nodes, 0)),
                                gpus_per_node),
               intra, inter, nic_beta, oversubscription, nodes_per_pod) {
  // nodes <= 0 yields an empty vector, which the delegated constructor
  // rejects before this body runs.
}

Topology::Topology(std::vector<int> gpus, LinkParams intra, LinkParams inter,
                   double nic_beta, double oversubscription, int nodes_per_pod)
    : gpus_(std::move(gpus)), intra_(intra), inter_(inter),
      nic_beta_(nic_beta > 0.0 ? nic_beta : inter.beta),
      oversubscription_(oversubscription), nodes_per_pod_(nodes_per_pod) {
  HITOPK_VALIDATE(!gpus_.empty()) << "topology needs at least one node";
  HITOPK_VALIDATE(oversubscription_ >= 1.0)
      << "oversubscription" << oversubscription_ << "below 1";
  HITOPK_VALIDATE(nodes_per_pod_ >= 0)
      << "nodes_per_pod" << nodes_per_pod_ << "is negative";
  node_base_.reserve(gpus_.size() + 1);
  uniform_gpus_ = gpus_.front();
  for (int n : gpus_) {
    HITOPK_VALIDATE(n > 0) << "node with" << n << "GPUs";
    node_base_.push_back(world_size_);
    world_size_ += n;
    max_gpus_ = std::max(max_gpus_, n);
    if (n != uniform_gpus_) uniform_gpus_ = 0;
  }
  node_base_.push_back(world_size_);
}

Topology Topology::tencent_cloud(int nodes, int gpus_per_node) {
  return Topology(nodes, gpus_per_node, nvlink(),
                  LinkParams{kEthernetAlpha, 1.0 / kTcpFlowBandwidth},
                  ethernet_beta(25.0));
}

Topology Topology::aws_p3(int nodes, int gpus_per_node) {
  return Topology(nodes, gpus_per_node, nvlink(),
                  LinkParams{kEthernetAlpha, 1.0 / kTcpFlowBandwidth},
                  ethernet_beta(25.0));
}

Topology Topology::aliyun(int nodes, int gpus_per_node) {
  return Topology(nodes, gpus_per_node, nvlink(),
                  LinkParams{kEthernetAlpha, 1.0 / kTcpFlowBandwidth},
                  ethernet_beta(32.0));
}

Topology Topology::infiniband_100g(int nodes, int gpus_per_node) {
  // RDMA verbs: a single queue pair reaches near line rate.
  return Topology(nodes, gpus_per_node, nvlink(),
                  LinkParams{kInfinibandAlpha, ethernet_beta(100.0, 0.9)},
                  ethernet_beta(100.0, 0.9));
}

int Topology::node_of(int rank) const {
  HITOPK_CHECK(rank >= 0 && rank < world_size_);
  if (uniform_gpus_ > 0) return rank / uniform_gpus_;
  // First node whose base exceeds rank sits one past rank's node.
  const auto it =
      std::upper_bound(node_base_.begin(), node_base_.end(), rank);
  return static_cast<int>(it - node_base_.begin()) - 1;
}

int Topology::local_rank(int rank) const {
  HITOPK_CHECK(rank >= 0 && rank < world_size_);
  if (uniform_gpus_ > 0) return rank % uniform_gpus_;
  return rank - node_base_[static_cast<size_t>(node_of(rank))];
}

int Topology::rank_of(int node, int local) const {
  HITOPK_CHECK(node >= 0 && node < nodes());
  HITOPK_CHECK(local >= 0 && local < gpus_[static_cast<size_t>(node)]);
  return node_base_[static_cast<size_t>(node)] + local;
}

bool Topology::same_node(int a, int b) const { return node_of(a) == node_of(b); }

int Topology::pods() const {
  if (nodes_per_pod_ <= 0 || nodes_per_pod_ >= nodes()) return 1;
  return (nodes() + nodes_per_pod_ - 1) / nodes_per_pod_;
}

int Topology::pod_of(int node) const {
  HITOPK_CHECK(node >= 0 && node < nodes());
  if (nodes_per_pod_ <= 0 || nodes_per_pod_ >= nodes()) return 0;
  return node / nodes_per_pod_;
}

const LinkParams& Topology::link_between(int a, int b) const {
  return same_node(a, b) ? intra_ : inter_;
}

uint64_t Topology::fingerprint() const {
  // FNV-1a over the structural fields.  Doubles hash by bit pattern — the
  // cache this feeds only needs "same parameters -> same key", not
  // tolerance-based equality.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  auto mix_double = [&](double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<uint64_t>(gpus_.size()));
  for (int n : gpus_) mix(static_cast<uint64_t>(n));
  mix_double(intra_.alpha);
  mix_double(intra_.beta);
  mix_double(inter_.alpha);
  mix_double(inter_.beta);
  mix_double(nic_beta_);
  mix_double(oversubscription_);
  mix(static_cast<uint64_t>(nodes_per_pod_));
  return h;
}

std::string Topology::describe() const {
  std::ostringstream os;
  if (uniform_gpus_ > 0) {
    os << nodes() << " nodes x " << uniform_gpus_ << " GPUs";
  } else {
    os << nodes() << " nodes x {";
    for (size_t n = 0; n < gpus_.size(); ++n) {
      os << (n == 0 ? "" : ",") << gpus_[n];
    }
    os << "} GPUs";
  }
  os << " | intra " << 1.0 / intra_.beta / 1e9 << " GB/s, "
     << intra_.alpha * 1e6 << " us"
     << " | inter " << 1.0 / inter_.beta / 1e9 << " GB/s, "
     << inter_.alpha * 1e6 << " us";
  if (oversubscription_ > 1.0) {
    os << " | " << oversubscription_ << ":1 oversubscribed";
    if (pods() > 1) os << " (" << pods() << " pods)";
  }
  return os.str();
}

}  // namespace hitopk::simnet

#include "collectives/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>

#include "collectives/blueconnect.h"
#include "collectives/gtopk.h"
#include "collectives/halving_doubling.h"
#include "collectives/hier_allreduce.h"
#include "collectives/ring.h"
#include "collectives/torus2d.h"
#include "collectives/tree_allreduce.h"
#include "collectives/validator.h"

namespace hitopk::coll {
namespace {

// Cap on BlueConnect stage factorizations scored per plan; the pruning
// keeps the hierarchy-aligned splits ({gpus, nodes}, the pod-aligned
// three-stage split, then balanced divisor splits of the node count
// nearest sqrt(nodes)).
constexpr int kMaxBlueConnectCandidates = 6;

// Densities below this gate gTop-k into the candidate set; at or above it
// the message is dense and only exact-sum candidates run.
constexpr double kDenseDensity = 0.5;

// Statically validates a recorded candidate (ConfigError on a broken
// invariant); full coverage is the exact All-Reduce's "no partials left".
void validate(const Schedule& sched, int world_size, bool full_coverage) {
  ValidatorOptions vopts;
  vopts.world_size = world_size;
  vopts.require_full_coverage = full_coverage;
  ScheduleValidator(vopts).validate(sched);
}

// FNV-1a over the group membership (order matters: a ring over a permuted
// group is a different plan).
uint64_t group_hash(const Group& group) {
  uint64_t h = 1469598103934665603ull;
  for (int rank : group) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= static_cast<uint64_t>((static_cast<uint32_t>(rank) >> shift) & 0xff);
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Message sizes within a power of two score identically often enough that
// one plan per octave is the right cache grain.
int size_bucket(size_t elems) {
  return static_cast<int>(std::bit_width(elems));
}

// Dense requests share bucket 0; sparse densities bucket at half-decade
// grain (0.01 and 0.02 share a plan; 0.01 and 0.001 do not).
int density_bucket(double density) {
  if (density >= kDenseDensity) return 0;
  return static_cast<int>(std::floor(std::log10(density) * 2.0));
}

std::string cache_key(const simnet::Topology& topo, const Group& group,
                      size_t elems, double density) {
  return std::to_string(topo.fingerprint()) + ":" +
         std::to_string(group_hash(group)) + ":" +
         std::to_string(size_bucket(elems)) + ":" +
         std::to_string(density_bucket(density));
}

std::string factors_name(const std::vector<int>& factors) {
  std::string name = "blueconnect{";
  for (size_t i = 0; i < factors.size(); ++i) {
    if (i) name += ",";
    name += std::to_string(factors[i]);
  }
  return name + "}";
}

// True when `group` is the full world in rank order — the membership the
// whole-world hierarchical candidates and gTop-k are defined over.
bool is_world_order(const simnet::Topology& topo, const Group& group) {
  if (static_cast<int>(group.size()) != topo.world_size()) return false;
  for (size_t i = 0; i < group.size(); ++i) {
    if (group[i] != static_cast<int>(i)) return false;
  }
  return true;
}

// Reindexes group-position data into ring-order position data.
RankData permute_data(const Group& group, const Group& order,
                      const RankData& data) {
  if (data.empty() || order == group) return data;
  std::unordered_map<int, size_t> pos;
  pos.reserve(group.size());
  for (size_t i = 0; i < group.size(); ++i) pos[group[i]] = i;
  RankData permuted;
  permuted.reserve(order.size());
  for (int rank : order) permuted.push_back(data[pos.at(rank)]);
  return permuted;
}

}  // namespace

const char* plan_algorithm_name(PlanAlgorithm algorithm) {
  switch (algorithm) {
    case PlanAlgorithm::kFlatRing: return "ring";
    case PlanAlgorithm::kReorderedRing: return "ring+podsort";
    case PlanAlgorithm::kTreeAllReduce: return "tree";
    case PlanAlgorithm::kHierAllReduce: return "hier";
    case PlanAlgorithm::kTorus2d: return "torus2d";
    case PlanAlgorithm::kBlueConnect: return "blueconnect";
    case PlanAlgorithm::kHalvingDoubling: return "hd";
    case PlanAlgorithm::kGtopk: return "gtopk";
  }
  return "unknown";
}

std::vector<Planner::Candidate> Planner::enumerate(
    const simnet::Topology& topo, const Group& group, bool full_world,
    double density) const {
  std::vector<Candidate> cands;
  // The flat ring is always candidate 0: it is the baseline the planner
  // must never lose to, and scoring keeps ties on the earliest candidate.
  cands.push_back({PlanAlgorithm::kFlatRing, "ring", {}, group, true});

  const Group sorted = locality_sorted_group(topo, group);
  if (sorted != group) {
    cands.push_back(
        {PlanAlgorithm::kReorderedRing, "ring+podsort", {}, sorted, true});
  }
  cands.push_back({PlanAlgorithm::kHalvingDoubling, "hd", {}, group, true});
  if (sorted != group) {
    cands.push_back(
        {PlanAlgorithm::kHalvingDoubling, "hd+podsort", {}, sorted, true});
  }
  if (!full_world) return cands;

  // Whole-world hierarchical candidates.
  const int m = topo.nodes();
  const int n = topo.uniform() ? topo.gpus_per_node() : 0;
  if (topo.uniform() && topo.world_size() > 1) {
    cands.push_back({PlanAlgorithm::kTreeAllReduce, "tree", {}, group, true});
  }
  if (m > 1) {
    cands.push_back({PlanAlgorithm::kHierAllReduce, "hier", {}, group, true});
  }
  if (topo.uniform() && m > 1 && n > 1) {
    cands.push_back({PlanAlgorithm::kTorus2d, "torus2d", {}, group, true});
  }
  if (topo.uniform() && topo.world_size() > 1) {
    // BlueConnect stage factorizations, pruned to the hierarchy-aligned
    // splits: the node split, the pod-aligned three-stage split, then
    // balanced divisor splits of the node count (nearest sqrt(m) first).
    // All factors >= 2 — a size-1 stage ring is a no-op and a single-stage
    // factorization is the flat ring again.
    std::set<std::vector<int>> seen;
    std::vector<std::vector<int>> splits;
    auto add = [&](std::vector<int> f) {
      if (static_cast<int>(splits.size()) >= kMaxBlueConnectCandidates) return;
      for (int s : f) {
        if (s < 2) return;
      }
      if (f.size() < 2) return;
      if (seen.insert(f).second) splits.push_back(std::move(f));
    };
    // Every factorization must multiply to the world n * m; with n == 1
    // the intra stage is dropped rather than recorded as a size-1 ring.
    auto add_node_split = [&](int a, int b) {
      if (n > 1) {
        add({n, a, b});
      } else {
        add({a, b});
      }
    };
    add({n, m});
    const int npp = topo.nodes_per_pod();
    if (npp > 0 && npp < m && m % npp == 0) add_node_split(npp, m / npp);
    const int root = static_cast<int>(std::sqrt(static_cast<double>(m)));
    for (int d = root; d >= 2; --d) {
      if (m % d == 0) add_node_split(d, m / d);
    }
    for (std::vector<int>& f : splits) {
      cands.push_back({PlanAlgorithm::kBlueConnect, factors_name(f),
                       std::move(f), group, true});
    }
  }
  if (density < kDenseDensity && topo.world_size() > 1) {
    cands.push_back({PlanAlgorithm::kGtopk, "gtopk", {}, group, false});
  }
  return cands;
}

void Planner::build_candidate(Schedule& sched, const simnet::Topology& topo,
                              const Candidate& cand, const Group& group,
                              const RankData& data, size_t elems,
                              double density) const {
  const WireDtype wire = options_.wire;
  switch (cand.algorithm) {
    case PlanAlgorithm::kFlatRing:
    case PlanAlgorithm::kReorderedRing:
      // ring_allreduce's schedule over the candidate's membership order.
      build_ring_allreduce(sched, cand.ring_order,
                           permute_data(group, cand.ring_order, data), elems,
                           wire);
      return;
    case PlanAlgorithm::kHalvingDoubling:
      build_halving_doubling(sched, cand.ring_order,
                             permute_data(group, cand.ring_order, data), elems,
                             wire);
      return;
    case PlanAlgorithm::kTreeAllReduce: {
      TreeOptions tree;
      tree.wire = wire;
      build_tree_allreduce(sched, topo, data, elems, tree);
      return;
    }
    case PlanAlgorithm::kHierAllReduce:
      build_hier_allreduce(sched, topo, data, elems, wire);
      return;
    case PlanAlgorithm::kTorus2d:
      build_torus2d(sched, topo, data, elems, wire);
      return;
    case PlanAlgorithm::kBlueConnect: {
      BlueConnectOptions bc;
      bc.factors = cand.factors;
      bc.wire = wire;
      build_blueconnect(sched, topo, data, elems, bc);
      return;
    }
    case PlanAlgorithm::kGtopk: {
      GtopkOptions gt;
      gt.density = density;
      gt.value_wire_bytes = wire_elem_bytes(wire);
      build_gtopk(sched, topo, data, elems, gt);
      return;
    }
  }
}

double Planner::score(const simnet::Cluster& base, const Candidate& cand,
                      const Group& group, size_t elems, double density,
                      int job, double start) const {
  Schedule sched;
  build_candidate(sched, base.topology(), cand, group, {}, elems, density);
  validate(sched, base.world_size(), /*full_coverage=*/false);
  // What-if replay on a copy of the base cluster's reservation state: the
  // score is the candidate's duration amid the traffic other tenants
  // already hold (none on a fresh base).  Scoring must never observe
  // scripted faults (it is a hypothetical, not a fault replay), so the copy
  // drops the plan.
  simnet::Cluster replica = base;
  replica.set_fault_plan(nullptr);
  return sched.run_timing(replica, start, job).finish - start;
}

PlanChoice Planner::plan_group(const simnet::Cluster& cluster,
                               const Group& group, size_t elems,
                               double density, int job, double start) {
  const simnet::Topology& topo = cluster.topology();
  HITOPK_VALIDATE(density > 0.0 && density <= 1.0)
      << "density" << density << "outside (0, 1]";
  for (int rank : group) {
    HITOPK_VALIDATE(rank >= 0 && rank < topo.world_size())
        << "group rank" << rank << "outside world of" << topo.world_size();
  }

  PlanChoice choice;
  choice.ring_order = group;
  if (group.size() <= 1) {
    // Nothing to plan: a single rank (or empty group) already holds the sum.
    choice.name = "ring";
    choice.candidates_scored = 1;
    return choice;
  }

  auto fill = [&](const Candidate& winner, double predicted, double ring_t,
                  int scored, bool hit) {
    choice.algorithm = winner.algorithm;
    choice.name = winner.name;
    choice.factors = winner.factors;
    choice.ring_order = winner.ring_order;
    choice.predicted_seconds = predicted;
    choice.flat_ring_seconds = ring_t;
    choice.candidates_scored = scored;
    choice.cache_hit = hit;
    choice.exact_sum = winner.exact_sum;
  };
  auto score_at = [&](const Candidate& cand) {
    return score(cluster, cand, group, elems, density, job, start);
  };

  // An untouched cluster at start == 0 replays exactly like a fresh one, so
  // its winner is a topology property and may be cached.  Under load the
  // winner depends on transient state the topology-keyed cache must never
  // memoize.
  const bool cacheable = cluster.idle() && start == 0.0;
  std::string key;
  if (cacheable) {
    key = cache_key(topo, group, elems, density);
    if (auto it = cache_.find(key); it != cache_.end()) {
      ++cache_hits_;
      // The cache remembers the winning *configuration* for this bucket, but
      // the never-lose guarantee must hold at the requested size, not the
      // size that populated the bucket — so re-score the cached winner
      // against the flat ring here and take the min.
      const Candidate ring{PlanAlgorithm::kFlatRing, "ring", {}, group, true};
      const double ring_t = score_at(ring);
      const Candidate& cached = it->second;
      if (cached.algorithm == PlanAlgorithm::kFlatRing &&
          cached.ring_order == group) {
        fill(ring, ring_t, ring_t, 1, true);
        return choice;
      }
      const double cached_t = score_at(cached);
      if (cached_t < ring_t) {
        fill(cached, cached_t, ring_t, 2, true);
      } else {
        fill(ring, ring_t, ring_t, 2, true);
      }
      return choice;
    }
  }

  const std::vector<Candidate> cands =
      enumerate(topo, group, is_world_order(topo, group), density);
  double ring_t = 0.0;
  double best_t = std::numeric_limits<double>::infinity();
  size_t best = 0;
  for (size_t i = 0; i < cands.size(); ++i) {
    const double t = score_at(cands[i]);
    if (i == 0) ring_t = t;
    if (t < best_t) {  // strict: ties keep the earliest (the flat ring)
      best_t = t;
      best = i;
    }
  }
  if (cacheable) cache_.emplace(key, cands[best]);
  fill(cands[best], best_t, ring_t, static_cast<int>(cands.size()), false);
  return choice;
}

PlanChoice Planner::plan(const simnet::Topology& topo, size_t elems,
                         double density) {
  return plan_group(topo, world_group(topo), elems, density);
}

PlanChoice Planner::plan_group(const simnet::Topology& topo, const Group& group,
                               size_t elems, double density) {
  return plan_group(simnet::Cluster(topo), group, elems, density);
}

PlanChoice Planner::plan(const simnet::Cluster& cluster, size_t elems,
                         double density, int job, double start) {
  return plan_group(cluster, world_group(cluster.topology()), elems, density,
                    job, start);
}

double Planner::execute(simnet::Cluster& cluster, const RankData& data,
                        size_t elems, double density, double start) {
  return execute(cluster, world_group(cluster.topology()), data, elems,
                 density, start);
}

double Planner::execute(simnet::Cluster& cluster, const Group& group,
                        const RankData& data, size_t elems, double density,
                        double start) {
  const simnet::Topology& topo = cluster.topology();
  check_data(group, data, elems);
  if (group.size() <= 1) return start;

  const PlanChoice choice = plan_group(topo, group, elems, density);
  // The executed schedule is record-for-record the scored one (the builders
  // record identical sends with or without functional data), so on a fresh
  // cluster with start == 0 the finish below equals predicted_seconds.
  const Candidate cand{choice.algorithm, choice.name, choice.factors,
                       choice.ring_order, choice.exact_sum};
  Schedule sched;
  build_candidate(sched, topo, cand, group, data, elems, density);
  validate(sched, topo.world_size(), /*full_coverage=*/choice.exact_sum);
  return sched.run(cluster, start).finish;
}

}  // namespace hitopk::coll

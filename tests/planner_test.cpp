// Planner differential fuzz harness + targeted planner behavior tests.
//
// The fuzz loop samples random fabrics (node counts biased small, uneven
// GPU mixes, fat-tree oversubscription and pod tilings), message sizes
// across the latency->bandwidth range (with ragged tails), densities, and
// membership orders, then pins the planner's three contracts per sample:
//
//   never lose  — the winning plan's predicted clock <= the flat ring's,
//                 with the ring clock independently recomputed through
//                 ring_allreduce (so the planner's baseline candidate is
//                 held record-equivalent to the real ring, not just to its
//                 own idea of one);
//   honest cost — execute() on a fresh cluster finishes at exactly the
//                 predicted clock (the executed schedule is
//                 record-for-record the scored one);
//   correct data — exact plans leave every rank bitwise identical to the
//                 flat-ring oracle.  Inputs are integer-valued in [-512,
//                 512] with worlds <= ~128 ranks, so every partial sum is an
//                 exactly-representable integer and float addition is
//                 associative — any exact All-Reduce must match bitwise, no
//                 tolerance.  Approximate (gTop-k) plans instead must leave
//                 all ranks holding the *same* buffer.
//
// Reproducibility: every sample logs its seed and shape via SCOPED_TRACE;
// HITOPK_PLANNER_FUZZ_SEED / HITOPK_PLANNER_FUZZ_SAMPLES override the
// defaults (CI runs the suite under ASan/UBSan and TSan with the seed
// printed on failure — see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "collectives/gtopk.h"
#include "collectives/planner.h"
#include "collectives/ring.h"
#include "core/tensor.h"

namespace hitopk::coll {
namespace {

using simnet::Cluster;
using simnet::LinkParams;
using simnet::Topology;

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value ? std::strtoull(value, nullptr, 10) : fallback;
}

// ------------------------------------------------------------ fuzz inputs

struct Sample {
  Topology topo;
  Group group;
  size_t elems;
  double density;
  std::string describe;
};

Sample random_sample(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);

  // Node count 1..64, biased small (the expensive worlds stay rare so the
  // suite holds many samples); big worlds cap GPUs to bound rank counts.
  const int nodes =
      1 + static_cast<int>(std::floor(63.0 * std::pow(unif(rng), 2.5)));
  const int max_gpus = nodes > 16 ? 2 : 6;
  std::uniform_int_distribution<int> gpu_dist(1, max_gpus);
  std::vector<int> gpus;
  if (unif(rng) < 0.4) {  // uneven fleet
    for (int i = 0; i < nodes; ++i) gpus.push_back(gpu_dist(rng));
  } else {
    gpus.assign(static_cast<size_t>(nodes), gpu_dist(rng));
  }

  const LinkParams intra{1e-6, 1e-9};
  // Inter-node latency log-uniform across 1us..100us: both the
  // latency-bound and the bandwidth-bound regime appear.
  const LinkParams inter{1e-6 * std::pow(10.0, 2.0 * unif(rng)), 1e-8};
  std::uniform_int_distribution<int> flows(1, 4);
  const double nic_beta = inter.beta / flows(rng);
  const double oversubscription = unif(rng) < 0.5 ? 1.0 : 1.0 + 7.0 * unif(rng);
  int nodes_per_pod = 0;
  if (nodes >= 2 && unif(rng) < 0.5) {
    nodes_per_pod = std::uniform_int_distribution<int>(1, nodes - 1)(rng);
  }

  Topology topo(gpus, intra, inter, nic_beta, oversubscription, nodes_per_pod);

  std::uniform_int_distribution<int> log_elems(6, 13);
  std::uniform_int_distribution<size_t> ragged(0, 3);
  const size_t elems = (size_t{1} << log_elems(rng)) + ragged(rng);

  const double densities[] = {1.0, 1.0, 1.0, 0.01, 0.001};
  const double density =
      densities[std::uniform_int_distribution<int>(0, 4)(rng)];

  Group group = world_group(topo);
  std::string membership = "world";
  if (group.size() > 1 && unif(rng) < 0.2) {  // elastic survivor subset
    std::shuffle(group.begin(), group.end(), rng);
    const size_t keep = std::uniform_int_distribution<size_t>(
        1, group.size())(rng);
    group.resize(keep);
    membership = "subset(" + std::to_string(keep) + ")";
  } else if (group.size() > 1 && unif(rng) < 0.25) {  // shuffled placement
    std::shuffle(group.begin(), group.end(), rng);
    membership = "shuffled";
  }

  std::string describe = topo.describe() + " elems=" + std::to_string(elems) +
                         " density=" + std::to_string(density) +
                         " group=" + membership;
  return {std::move(topo), std::move(group), elems, density,
          std::move(describe)};
}

// Integer-valued buffers: every partial sum across <= ~128 ranks of values
// in [-512, 512] is an integer below 2^24, so float addition is exact and
// bitwise comparison across algorithms with different add orders is fair.
std::vector<Tensor> integer_buffers(size_t count, size_t elems,
                                    std::mt19937_64& rng) {
  std::uniform_int_distribution<int> values(-512, 512);
  std::vector<Tensor> buffers;
  for (size_t r = 0; r < count; ++r) {
    Tensor t(elems);
    for (float& x : t.span()) x = static_cast<float>(values(rng));
    buffers.push_back(std::move(t));
  }
  return buffers;
}

RankData spans_of(std::vector<Tensor>& buffers) {
  RankData spans;
  for (auto& b : buffers) spans.push_back(b.span());
  return spans;
}

// ------------------------------------------------------------- fuzz loop

TEST(PlannerFuzz, DifferentialAgainstFlatRingOracle) {
  const uint64_t seed = env_u64("HITOPK_PLANNER_FUZZ_SEED", 20260807);
  const uint64_t samples = env_u64("HITOPK_PLANNER_FUZZ_SAMPLES", 200);
  std::mt19937_64 rng(seed);
  Planner planner;

  for (uint64_t i = 0; i < samples; ++i) {
    const Sample s = random_sample(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " sample=" +
                 std::to_string(i) + " " + s.describe);

    const PlanChoice choice =
        planner.plan_group(s.topo, s.group, s.elems, s.density);

    // Never lose: the winner's clock is bounded by the flat ring's, and
    // the planner's ring baseline is the real ring_allreduce clock.
    EXPECT_LE(choice.predicted_seconds, choice.flat_ring_seconds);
    if (s.group.size() > 1) {
      Cluster ring_cluster(s.topo);
      const double ring_t =
          ring_allreduce(ring_cluster, s.group, {}, s.elems, WireDtype::kFp32, 0.0);
      EXPECT_DOUBLE_EQ(choice.flat_ring_seconds, ring_t);
    }

    // Honest cost + correct data.
    std::vector<Tensor> planned = integer_buffers(s.group.size(), s.elems, rng);
    std::vector<Tensor> oracle = planned;
    Cluster exec_cluster(s.topo);
    const double finish = planner.execute(exec_cluster, s.group,
                                          spans_of(planned), s.elems,
                                          s.density, 0.0);
    EXPECT_DOUBLE_EQ(finish, choice.predicted_seconds)
        << "executed finish diverges from the scored clock for plan "
        << choice.name;

    if (choice.exact_sum) {
      Cluster oracle_cluster(s.topo);
      ring_allreduce(oracle_cluster, s.group, spans_of(oracle), s.elems, WireDtype::kFp32, 0.0);
      for (size_t r = 0; r < s.group.size(); ++r) {
        ASSERT_EQ(std::memcmp(planned[r].data(), oracle[r].data(),
                              s.elems * sizeof(float)),
                  0)
            << "plan " << choice.name << " diverges from the ring oracle at "
            << "group position " << r;
      }
    } else {
      // Approximate plans must still agree across ranks.
      for (size_t r = 1; r < s.group.size(); ++r) {
        ASSERT_EQ(std::memcmp(planned[r].data(), planned[0].data(),
                              s.elems * sizeof(float)),
                  0)
            << "approximate plan " << choice.name
            << " leaves ranks disagreeing at group position " << r;
      }
    }
  }
}

// ------------------------------------------------------- targeted checks

Topology latency_fabric(int nodes, int gpus) {
  // 25us inter-node latency, fast wires: the regime where round count
  // dominates and halving-doubling's 2*log2(P) beats the ring's 2(P-1).
  return Topology(nodes, gpus, LinkParams{1e-6, 1e-9},
                  LinkParams{25e-6, 1e-9});
}

TEST(Planner, HalvingDoublingWinsSmallMessages) {
  Planner planner;
  const Topology topo = latency_fabric(4, 4);
  const PlanChoice choice = planner.plan(topo, /*elems=*/64);
  EXPECT_EQ(choice.algorithm, PlanAlgorithm::kHalvingDoubling) << choice.name;
  EXPECT_LT(choice.predicted_seconds, choice.flat_ring_seconds);
}

TEST(Planner, SparseDensityPicksGtopk) {
  Planner planner;
  const Topology topo = Topology::tencent_cloud(4, 2);
  const PlanChoice choice = planner.plan(topo, /*elems=*/1 << 20, 0.001);
  EXPECT_EQ(choice.algorithm, PlanAlgorithm::kGtopk) << choice.name;
  EXPECT_FALSE(choice.exact_sum);
  EXPECT_LT(choice.predicted_seconds, choice.flat_ring_seconds);
}

TEST(Planner, DensePlansNeverConsiderGtopk) {
  Planner planner;
  const Topology topo = Topology::tencent_cloud(4, 2);
  const PlanChoice choice = planner.plan(topo, 1 << 20, 1.0);
  EXPECT_TRUE(choice.exact_sum);
}

TEST(Planner, OversubscribedFatTreeBeatsFlatRing) {
  // 8 pods of 2 nodes behind 4:1-oversubscribed uplinks: the flat
  // world-scale ring hammers the core, the hierarchy-aligned plans don't.
  Planner planner;
  const Topology topo(16, 4, LinkParams{1e-6, 1e-9}, LinkParams{25e-6, 1e-8},
                      /*nic_beta=*/0.25e-8, /*oversubscription=*/4.0,
                      /*nodes_per_pod=*/2);
  const PlanChoice choice = planner.plan(topo, 1 << 20);
  EXPECT_LT(choice.predicted_seconds, choice.flat_ring_seconds);
  EXPECT_NE(choice.algorithm, PlanAlgorithm::kFlatRing) << choice.name;
}

TEST(Planner, CacheHitReusesWinnerAndStillNeverLoses) {
  Planner planner;
  const Topology topo = Topology::tencent_cloud(4, 2);
  const PlanChoice first = planner.plan(topo, 1 << 12);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(planner.cache_hits(), 0u);
  EXPECT_EQ(planner.cache_size(), 1u);

  const PlanChoice second = planner.plan(topo, 1 << 12);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(planner.cache_hits(), 1u);
  EXPECT_EQ(second.name, first.name);
  EXPECT_DOUBLE_EQ(second.predicted_seconds, first.predicted_seconds);

  // A different size in the same power-of-two bucket re-scores the cached
  // winner at *that* size and keeps the never-lose bound there too.
  const PlanChoice sibling = planner.plan(topo, (1 << 12) + 100);
  EXPECT_TRUE(sibling.cache_hit);
  EXPECT_LE(sibling.predicted_seconds, sibling.flat_ring_seconds);

  // A different octave is a different bucket.
  const PlanChoice other = planner.plan(topo, 1 << 20);
  EXPECT_FALSE(other.cache_hit);
  EXPECT_EQ(planner.cache_size(), 2u);
}

TEST(Planner, ShuffledGroupPrefersPodSortedMembership) {
  // A deliberately pod-hostile membership order on an oversubscribed
  // two-pod fabric: the locality-sorted ring crosses the core twice, the
  // given order crosses it every hop.
  Planner planner;
  const Topology topo(8, 2, LinkParams{1e-6, 1e-9}, LinkParams{25e-6, 1e-8},
                      /*nic_beta=*/0.5e-8, /*oversubscription=*/8.0,
                      /*nodes_per_pod=*/4);
  Group group = world_group(topo);
  // Interleave the pods: ranks of pod 0 and pod 1 alternate.
  Group interleaved;
  for (int i = 0; i < 8; ++i) {
    interleaved.push_back(group[static_cast<size_t>(i)]);
    interleaved.push_back(group[static_cast<size_t>(i + 8)]);
  }
  const PlanChoice choice = planner.plan_group(topo, interleaved, 1 << 18);
  EXPECT_LT(choice.predicted_seconds, choice.flat_ring_seconds);
  const Group sorted = locality_sorted_group(topo, interleaved);
  EXPECT_EQ(choice.ring_order, sorted) << choice.name;
}

TEST(Planner, SingleRankGroupIsTrivial) {
  Planner planner;
  const Topology topo = Topology::tencent_cloud(2, 2);
  const PlanChoice choice = planner.plan_group(topo, {2}, 1 << 10);
  EXPECT_EQ(choice.predicted_seconds, 0.0);
  Cluster cluster(topo);
  Tensor t(8);
  t.span()[0] = 3.0f;
  EXPECT_EQ(planner.execute(cluster, {2}, {t.span()}, 8, 1.0, 1.5), 1.5);
  EXPECT_EQ(t.span()[0], 3.0f);
}

// A 4x2 fabric behind a 16:1-oversubscribed single-switch core, loaded by
// one job-3 flow from node 0 to node 1.  The core serves those bytes four
// times slower than the flow's own link, so job 3's core lane stays
// reserved long after the flow has left the GPU ports: a later job-3 flow
// queues behind it, another job's flow shares the core with it instead.
Cluster loaded_by_job3() {
  const Topology topo(4, 2, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-9},
                      /*nic_beta=*/1e-9, /*oversubscription=*/16.0);
  Cluster cluster(topo);
  cluster.submit({3, topo.rank_of(0, 0), topo.rank_of(1, 0), 4 << 20, 0.0});
  return cluster;
}

// gTop-k's schedule at `density`, timing only.
Schedule gtopk_schedule(const Topology& topo, size_t elems, double density) {
  GtopkOptions options;
  options.density = density;
  Schedule sched;
  build_gtopk(sched, topo, {}, elems, options);
  return sched;
}

TEST(GtopkJob, FlowsLandOnTheCallersJob) {
  Cluster cluster = loaded_by_job3();
  const size_t job0_inter = cluster.inter_node_bytes(0);
  const size_t job0_intra = cluster.intra_node_bytes(0);
  const size_t total_inter = cluster.inter_node_bytes();
  gtopk_schedule(cluster.topology(), 1 << 20, 0.01)
      .run_timing(cluster, 0.0, /*job=*/5);
  EXPECT_GT(cluster.inter_node_bytes(5), 0u);
  EXPECT_EQ(cluster.inter_node_bytes(5),
            cluster.inter_node_bytes() - total_inter);
  EXPECT_EQ(cluster.inter_node_bytes(0), job0_inter);
  EXPECT_EQ(cluster.intra_node_bytes(0), job0_intra);
}

TEST(Planner, GtopkScoreReplaysUnderTheCallersJob) {
  // The planner's gTop-k score for job j is a build_gtopk replay under job
  // j on a copy of the same loaded cluster.  Job 3 queues behind its own
  // reservations while job 7 shares the ports with them, so the two
  // scores differ.
  const Cluster loaded = loaded_by_job3();
  const size_t elems = 1 << 20;
  const double density = 0.001;
  double scored[2] = {};
  const int jobs[2] = {3, 7};
  for (int i = 0; i < 2; ++i) {
    Planner planner;
    const PlanChoice choice = planner.plan(loaded, elems, density, jobs[i]);
    ASSERT_EQ(choice.algorithm, PlanAlgorithm::kGtopk) << choice.name;
    Cluster replica = loaded;
    const double direct = gtopk_schedule(loaded.topology(), elems, density)
                              .run_timing(replica, 0.0, jobs[i])
                              .total;
    EXPECT_EQ(choice.predicted_seconds, direct) << "job " << jobs[i];
    scored[i] = choice.predicted_seconds;
  }
  EXPECT_NE(scored[0], scored[1]);
}

TEST(Planner, RejectsBadInputs) {
  Planner planner;
  const Topology topo = Topology::tencent_cloud(2, 2);
  EXPECT_THROW(planner.plan(topo, 1024, 0.0), ConfigError);
  EXPECT_THROW(planner.plan(topo, 1024, 1.5), ConfigError);
  EXPECT_THROW(planner.plan_group(topo, {0, 99}, 1024), ConfigError);
}

}  // namespace
}  // namespace hitopk::coll

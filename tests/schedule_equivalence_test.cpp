// Every schedule-engine collective checked against oracles that share none
// of its code:
//
//   exact integer sums — integer-valued inputs whose partial sums stay far
//     below 2^24, so every reduction order is exact and the result must
//     equal a plain summation loop bit for bit;
//   frozen digests — FNV-1a (train::fnv1a64) over every rank's output bytes
//     for random-float inputs, pinning the reduction order and the wire
//     rounding bit for bit;
//   frozen clocks — finish and phase times stored as literals, checked for
//     the functional call and the timing-only call of the same shape.
//
// The digests and clocks were captured while the engine was still checked
// bitwise against the pre-engine inline loops.  Shapes include uneven
// chunk_range remainders, single-rank groups, and multi-chunk tree
// pipelining.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "collectives/blueconnect.h"
#include "collectives/elastic.h"
#include "collectives/gtopk.h"
#include "collectives/hier_allreduce.h"
#include "collectives/hitopkcomm.h"
#include "collectives/naive_allgather.h"
#include "collectives/param_server.h"
#include "collectives/ring.h"
#include "collectives/schedule.h"
#include "collectives/torus2d.h"
#include "collectives/tree_allreduce.h"
#include "compress/error_feedback.h"
#include "compress/exact_topk.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "simgpu/gpu_model.h"
#include "train/checkpoint.h"

namespace hitopk::coll {
namespace {

using simnet::Cluster;
using simnet::LinkParams;
using simnet::Topology;

Topology fabric(int nodes, int gpus) {
  return Topology(nodes, gpus, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

std::vector<Tensor> random_buffers(int world, size_t elems, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> buffers;
  for (int r = 0; r < world; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    buffers.push_back(std::move(t));
  }
  return buffers;
}

// Values in [-64, 64]: sums over <= 16 ranks stay below 2^11, exact in
// fp32 whatever the association and exact on an fp16 wire.
std::vector<Tensor> integer_buffers(int world, size_t elems, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> values(-64, 64);
  std::vector<Tensor> buffers;
  for (int r = 0; r < world; ++r) {
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

// The summation oracle: element-wise sum of the listed ranks' inputs.
std::vector<float> integer_sum(const std::vector<Tensor>& inputs,
                               const std::vector<int>& ranks) {
  std::vector<float> sum(inputs[0].size(), 0.0f);
  for (const int r : ranks) {
    for (size_t i = 0; i < sum.size(); ++i) {
      sum[i] += inputs[static_cast<size_t>(r)][i];
    }
  }
  return sum;
}

// Every listed rank's buffer must equal `expected` exactly.
void expect_holds(const std::vector<Tensor>& buffers,
                  const std::vector<int>& ranks,
                  const std::vector<float>& expected) {
  for (const int r : ranks) {
    const Tensor& b = buffers[static_cast<size_t>(r)];
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(b[i], expected[i]) << "rank " << r << " elem " << i;
    }
  }
}

uint64_t digest(const std::vector<Tensor>& buffers) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Tensor& t : buffers) {
    h = train::fnv1a64({reinterpret_cast<const uint8_t*>(t.data()),
                        t.size() * sizeof(float)},
                       h);
  }
  return h;
}

// Frozen-value checks.  On a mismatch the message carries the actual value
// in literal form, so an intended change is re-frozen by pasting it.
void expect_digest(const std::vector<Tensor>& buffers, uint64_t frozen,
                   const std::string& what) {
  const uint64_t actual = digest(buffers);
  EXPECT_EQ(actual, frozen) << "FROZEN " << what << " digest 0x" << std::hex
                            << actual;
}

void expect_clock(double actual, double frozen, const std::string& what) {
  EXPECT_DOUBLE_EQ(actual, frozen) << "FROZEN " << what << " clock "
                                   << std::setprecision(17) << actual;
}

// A digest plus the finish clock of one call (functional and timing-only
// calls share the clock).
struct Frozen {
  uint64_t digest;
  double finish;
};

template <typename Key>
const Frozen& frozen_at(const std::map<Key, Frozen>& table, const Key& key) {
  const auto it = table.find(key);
  if (it == table.end()) {
    static const Frozen kMissing{0, 0.0};
    ADD_FAILURE() << "no frozen entry for " << ::testing::PrintToString(key);
    return kMissing;
  }
  return it->second;
}

// Runs `fn(cluster, data)` on integer inputs (checked by `check`), on the
// seeded random inputs (digest and clock), and timing-only (clock).  fn
// returns the completion time.
template <typename Fn, typename Check>
void check_oracles(const Topology& topo, size_t elems, uint64_t seed,
                   const Frozen& frozen, const std::string& what, Fn&& fn,
                   Check&& check) {
  {
    const std::vector<Tensor> inputs =
        integer_buffers(topo.world_size(), elems, seed);
    std::vector<Tensor> buffers = inputs;
    Cluster cluster(topo);
    fn(cluster, spans_of(buffers));
    check(inputs, buffers);
  }
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, seed);
  {
    Cluster cluster(topo);
    expect_clock(fn(cluster, spans_of(buffers)), frozen.finish, what);
  }
  expect_digest(buffers, frozen.digest, what);
  Cluster cluster(topo);
  expect_clock(fn(cluster, RankData{}), frozen.finish, what + " timing-only");
}

// The check for an All-Reduce over the whole world.
auto world_sum(const Topology& topo) {
  return [topo](const std::vector<Tensor>& inputs,
                const std::vector<Tensor>& out) {
    expect_holds(out, world_group(topo), integer_sum(inputs, world_group(topo)));
  };
}

// ------------------------------------------------------------ ring legs
using RingShape = std::pair<int, size_t>;

class RingEquivalenceTest : public ::testing::TestWithParam<RingShape> {};

const std::map<RingShape, Frozen> kRingReduceScatter{
    {{1, 64}, {0x89467bf97f98458f, 0.5}},
    {{2, 67}, {0x82f1332e1b66a7ab, 0.50000113599999996}},
    {{3, 67}, {0x260b6d2553963f33, 0.50000218399999996}},
    {{4, 64}, {0x12a3bd6cd0ad3939, 0.50000319199999999}},
    {{5, 129}, {0xba02fb8b8f774a70, 0.5000044159999999}},
    {{8, 1000}, {0xb38b9af85e893242, 0.50001049999999991}},
    {{7, 3}, {0xcbb89e326cdb3e6a, 0.50000602400000016}},
};
const std::map<RingShape, Frozen> kRingAllGather{
    {{1, 64}, {0x81ceb8194ff74442, 0}},
    {{2, 67}, {0xb704650f9c7215aa, 1.068e-06}},
    {{3, 67}, {0x34c8333c103b6fc2, 2.092e-06}},
    {{4, 64}, {0xce1c896b2cd52544, 3.0960000000000001e-06}},
    {{5, 129}, {0x2f2b1024283586ff, 4.2080000000000002e-06}},
    {{8, 1000}, {0x942ca47d4ad5065e, 8.7499999999999992e-06}},
    {{7, 3}, {0x66cb31b23a829aff, 6.0119999999999994e-06}},
};
const std::map<RingShape, Frozen> kRingAllReduce{
    {{1, 64}, {0x3e9f81c973b7e4a3, 0}},
    {{2, 67}, {0x265e9c598ce60aed, 2.272e-06}},
    {{3, 67}, {0xfe66fecd43baf5cb, 4.3679999999999995e-06}},
    {{4, 64}, {0xbea32a8645b1fcb5, 6.3840000000000002e-06}},
    {{5, 129}, {0xcc11a0ae0d91004, 8.8319999999999995e-06}},
    {{8, 1000}, {0x9e5e34d187c44525, 2.0999999999999995e-05}},
    {{7, 3}, {0xb7c9009e390a5b, 1.2047999999999997e-05}},
};

TEST_P(RingEquivalenceTest, ReduceScatter) {
  const auto [g, elems] = GetParam();
  const Topology topo = fabric(1, g);
  check_oracles(
      topo, elems, 42, frozen_at(kRingReduceScatter, GetParam()), "ring RS",
      [&](Cluster& c, const RankData& data) {
        return ring_reduce_scatter(c, world_group(c.topology()), data, elems,
                                   WireDtype::kFp32, 0.5);
      },
      [&](const std::vector<Tensor>& inputs, const std::vector<Tensor>& out) {
        // Rank i owns chunk i fully reduced.
        const std::vector<float> sum = integer_sum(inputs, world_group(topo));
        for (int i = 0; i < g; ++i) {
          const ChunkRange range = chunk_range(
              elems, static_cast<size_t>(g), static_cast<size_t>(i));
          for (size_t e = range.begin; e < range.begin + range.count; ++e) {
            ASSERT_EQ(out[static_cast<size_t>(i)][e], sum[e])
                << "rank " << i << " elem " << e;
          }
        }
      });
}

TEST_P(RingEquivalenceTest, AllGather) {
  const auto [g, elems] = GetParam();
  const Topology topo = fabric(1, g);
  check_oracles(
      topo, elems, 43, frozen_at(kRingAllGather, GetParam()), "ring AG",
      [&](Cluster& c, const RankData& data) {
        return ring_allgather(c, world_group(c.topology()), data, elems,
                              WireDtype::kFp16, 0.0);
      },
      [&](const std::vector<Tensor>& inputs, const std::vector<Tensor>& out) {
        // Every rank holds owner c's chunk c (small integers survive fp16).
        for (int c = 0; c < g; ++c) {
          const ChunkRange range = chunk_range(
              elems, static_cast<size_t>(g), static_cast<size_t>(c));
          for (int r = 0; r < g; ++r) {
            for (size_t e = range.begin; e < range.begin + range.count; ++e) {
              ASSERT_EQ(out[static_cast<size_t>(r)][e],
                        inputs[static_cast<size_t>(c)][e])
                  << "rank " << r << " elem " << e;
            }
          }
        }
      });
}

TEST_P(RingEquivalenceTest, AllReduce) {
  const auto [g, elems] = GetParam();
  const Topology topo = fabric(1, g);
  check_oracles(topo, elems, 44, frozen_at(kRingAllReduce, GetParam()),
                "ring AR",
                [&](Cluster& c, const RankData& data) {
                  return ring_allreduce(c, world_group(c.topology()), data,
                                        elems, WireDtype::kFp32, 0.0);
                },
                world_sum(topo));
}

// Group sizes x element counts with ragged remainders (67 % g != 0 for most
// g) and the degenerate single-rank group.
INSTANTIATE_TEST_SUITE_P(
    Shapes, RingEquivalenceTest,
    ::testing::Values(std::pair{1, size_t{64}}, std::pair{2, size_t{67}},
                      std::pair{3, size_t{67}}, std::pair{4, size_t{64}},
                      std::pair{5, size_t{129}}, std::pair{8, size_t{1000}},
                      std::pair{7, size_t{3}}));

TEST(RingEquivalence, AllReduceMultiTwoCrossNodeStreams) {
  const Topology topo = fabric(3, 2);
  const size_t elems = 101;
  const std::vector<Group> groups{cross_node_group(topo, 0),
                                  cross_node_group(topo, 1)};
  auto run = [&](Cluster& cluster, std::vector<Tensor>* buffers) {
    std::vector<RankData> data;
    if (buffers != nullptr) {
      data.resize(groups.size());
      for (size_t q = 0; q < groups.size(); ++q) {
        for (int rank : groups[q]) {
          data[q].push_back((*buffers)[static_cast<size_t>(rank)].span());
        }
      }
    }
    // Both rings in one schedule, with no sync: each group's gather
    // chains off its own reduce-scatter slots.
    Schedule sched;
    const RingGrid grid = ring_grid(sched, groups, data, WireDtype::kFp32);
    build_ring_reduce_scatter(sched, groups, grid, elems, WireDtype::kFp32);
    build_ring_allgather(sched, groups, grid, elems, WireDtype::kFp32);
    return sched.run(cluster, 0.25).finish;
  };
  const Frozen frozen{0xb40dac3ace2c64d5, 0.25004680000000007};
  {
    const std::vector<Tensor> inputs =
        integer_buffers(topo.world_size(), elems, 7);
    std::vector<Tensor> buffers = inputs;
    Cluster cluster(topo);
    run(cluster, &buffers);
    for (const Group& group : groups) {
      expect_holds(buffers, group, integer_sum(inputs, group));
    }
  }
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 7);
  Cluster functional(topo), timing_only(topo);
  expect_clock(run(functional, &buffers), frozen.finish, "multi");
  expect_digest(buffers, frozen.digest, "multi");
  expect_clock(run(timing_only, nullptr), frozen.finish, "multi timing-only");
}

TEST(RingEquivalence, AllGatherBytesVariablePayloads) {
  const Topology topo = fabric(2, 3);
  Cluster cluster(topo);
  expect_clock(ring_allgather_bytes(cluster, world_group(topo),
                                    {100, 2000, 5, 40, 999, 1}, 0.0, 1e-5),
               0.00013105000000000001, "allgather bytes");
}

// ------------------------------------------------ ring_allgather_bytes guards
// Regression tests for the g == 0 / g == 1 guards: zero-size groups and
// single-rank groups carry no steps and must return the start time instead
// of indexing payload_bytes[q][origin] with origin computed modulo zero.
TEST(RingAllGatherBytes, SingleRankGroupIsFree) {
  const Topology topo = fabric(1, 1);
  Cluster cluster(topo);
  EXPECT_DOUBLE_EQ(
      ring_allgather_bytes(cluster, {0}, {1000000}, 1.5, 1e-3), 1.5);
}

TEST(RingAllGatherBytes, EmptyGroupsAndPayloadsAreFree) {
  const Topology topo = fabric(2, 2);
  Cluster cluster(topo);
  const std::vector<Group> groups{{}, {}};
  const std::vector<std::vector<size_t>> payloads{{}, {}};
  EXPECT_DOUBLE_EQ(
      ring_allgather_bytes_multi(cluster, groups, payloads, 2.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(ring_allgather_bytes(cluster, {}, {}, 3.0, 0.0), 3.0);
}

// ------------------------------------------------------------ tree
using NodeShape = std::pair<int, int>;

class TreeEquivalenceTest : public ::testing::TestWithParam<NodeShape> {};

const std::map<NodeShape, Frozen> kTree{
    {{1, 2}, {0xff0e6cc7e1930db1, 1.102e-05}},
    {{2, 1}, {0xff0e6cc7e1930db1, 0.00011020000000000001}},
    {{2, 4}, {0x66c5bfb485d61a95, 0.00013114400000000003}},
    {{3, 3}, {0xf4e5cfb4d3b80b57, 0.000238032}},
    {{5, 2}, {0x277408cd2af60115, 0.00038895999999999988}},
    {{4, 4}, {0xdef828f1f53be925, 0.00028534399999999998}},
};

TEST_P(TreeEquivalenceTest, AllReduce) {
  const auto [m, n] = GetParam();
  const Topology topo = fabric(m, n);
  const size_t elems = 203;  // odd: the two tree halves differ in size
  TreeOptions options;
  options.chunk_bytes = 128;  // force multi-chunk pipelining
  check_oracles(topo, elems, 50, frozen_at(kTree, GetParam()), "tree",
                [&](Cluster& c, const RankData& data) {
                  return tree_allreduce(c, world_group(c.topology()), data,
                                        elems, options, 0.0);
                },
                world_sum(topo));
}

INSTANTIATE_TEST_SUITE_P(Shapes, TreeEquivalenceTest,
                         ::testing::Values(std::pair{1, 2}, std::pair{2, 1},
                                           std::pair{2, 4}, std::pair{3, 3},
                                           std::pair{5, 2}, std::pair{4, 4}));

// ------------------------------------------------------------ hier
TEST(HierEquivalence, BreakdownAndBuffers) {
  const Topology topo = fabric(3, 4);
  const size_t elems = 77;
  PhaseReport b;
  const Frozen frozen{0x361eb5c23729a3ed, 5.2007999999992283e-05};
  check_oracles(topo, elems, 60, frozen, "hier",
                [&](Cluster& c, const RankData& data) {
                  b = hier_allreduce(c, data, elems, WireDtype::kFp32, 0.125);
                  return b.total;
                },
                world_sum(topo));
  expect_clock(b.seconds("intra_reduce"), 3.9240000000162478e-06,
               "hier intra_reduce");
  expect_clock(b.seconds("inter_allreduce"), 4.4159999999959787e-05,
               "hier inter_allreduce");
  expect_clock(b.seconds("intra_broadcast"), 3.9240000000162478e-06,
               "hier intra_broadcast");
}

// ------------------------------------------------------------ torus2d
using FabricElems = std::pair<NodeShape, size_t>;

class TorusEquivalenceTest : public ::testing::TestWithParam<FabricElems> {};

// Digest and total, then the reduce_scatter / inter_allreduce /
// intra_allgather phase clocks.
struct FrozenTorus {
  Frozen total;
  double phases[3];
};

const std::map<FabricElems, FrozenTorus> kTorus{
    {{{2, 4}, 96},
     {{0xe8558b5192575365, 2.8976000000000005e-05},
      {3.2879999999999997e-06, 2.2400000000000002e-05,
       3.2880000000000031e-06}}},
    {{{2, 4}, 97},
     {{0x201820327275325, 2.9080000000000003e-05},
      {3.3000000000000002e-06, 2.2480000000000005e-05,
       3.2999999999999989e-06}}},
    {{{3, 3}, 97},
     {{0x766ae20c716e4b09, 4.716800000000002e-05},
      {2.2639999999999998e-06, 4.2640000000000019e-05,
       2.2640000000000041e-06}}},
    {{{4, 2}, 64},
     {{0x4c115be6c9e4d1a5, 6.4496000000000014e-05},
      {1.128e-06, 6.224e-05, 1.1280000000000068e-06}}},
    {{{1, 4}, 97},
     {{0xbdab061718c9c945, 6.5999999999999995e-06},
      {3.3000000000000002e-06, 0, 3.2999999999999993e-06}}},
};

TEST_P(TorusEquivalenceTest, BreakdownAndBuffers) {
  const auto [shape, elems] = GetParam();
  const auto [m, n] = shape;
  const Topology topo = fabric(m, n);
  const auto it = kTorus.find(GetParam());
  ASSERT_NE(it, kTorus.end());
  const FrozenTorus& frozen = it->second;
  PhaseReport functional, timing_only;
  check_oracles(topo, elems, 70 + elems, frozen.total, "torus",
                [&](Cluster& c, const RankData& data) {
                  const PhaseReport r =
                      torus2d_allreduce(c, data, elems, WireDtype::kFp32, 0.0);
                  (data.empty() ? timing_only : functional) = r;
                  return r.total;
                },
                world_sum(topo));
  const char* labels[] = {"reduce_scatter", "inter_allreduce",
                          "intra_allgather"};
  for (int p = 0; p < 3; ++p) {
    expect_clock(functional.seconds(labels[p]), frozen.phases[p],
                 std::string("torus ") + labels[p]);
    // Data or no data, the collective replays one schedule.
    EXPECT_EQ(timing_only.seconds(labels[p]), functional.seconds(labels[p]))
        << labels[p];
  }
  EXPECT_EQ(timing_only.finish, functional.finish);

  // Independent bound for ragged sizes: the clock is monotone in elems, so
  // it lies between the clocks at the nearest multiples of n around it.
  auto clock_at = [&](size_t count) {
    Cluster c(topo);
    return torus2d_allreduce(c, {}, count, WireDtype::kFp32, 0.0).finish;
  };
  const size_t below = elems / static_cast<size_t>(n) * static_cast<size_t>(n);
  const size_t above = below + (elems % static_cast<size_t>(n) != 0
                                    ? static_cast<size_t>(n)
                                    : 0);
  EXPECT_LE(clock_at(below), functional.finish);
  EXPECT_GE(clock_at(above), functional.finish);
}

// 96 and 64 divide evenly by every n here; 97 gives the streams ragged
// shards of different sizes.
INSTANTIATE_TEST_SUITE_P(
    Shapes, TorusEquivalenceTest,
    ::testing::Values(std::pair{std::pair{2, 4}, size_t{96}},
                      std::pair{std::pair{2, 4}, size_t{97}},
                      std::pair{std::pair{3, 3}, size_t{97}},
                      std::pair{std::pair{4, 2}, size_t{64}},
                      std::pair{std::pair{1, 4}, size_t{97}}));

// ------------------------------------------------------------ param server
TEST(ParamServerEquivalence, BreakdownAndBuffers) {
  const Topology topo = fabric(3, 2);
  const size_t elems = 101;
  PhaseReport b;
  const Frozen frozen{0x57a33b9b4345d601, 0.00011858800000000001};
  check_oracles(topo, elems, 80, frozen, "ps",
                [&](Cluster& c, const RankData& data) {
                  b = param_server_allreduce(c, data, elems, WireDtype::kFp32,
                                             0.0);
                  return b.total;
                },
                world_sum(topo));
  expect_clock(b.seconds("push"), 6.0428000000000005e-05, "ps push");
  expect_clock(b.seconds("pull"), 5.8160000000000006e-05, "ps pull");
}

// ------------------------------------------------------------ HiTopKComm
// Sum of every residual entry across all EF keys.
double residual_total(const compress::ErrorFeedback& ef) {
  double total = 0.0;
  for (const std::string& key : ef.keys()) {
    for (const float v : ef.residual(key)) total += v;
  }
  return total;
}

TEST(HiTopKEquivalence, FunctionalWithErrorFeedback) {
  const Topology topo = fabric(2, 4);
  const size_t elems = 250;  // ragged shards (250 % 4 != 0)
  auto run = [&](Cluster& cluster, const RankData& data,
                 compress::ErrorFeedback* ef) {
    HiTopKOptions options;
    options.density = 0.05;
    options.seed = 99;
    options.error_feedback = ef;
    return hitopk_comm(cluster, data, elems, options, 0.0);
  };
  // Conservation on integer inputs: what was aggregated plus what error
  // feedback kept back is exactly the mass that went in.
  {
    const std::vector<Tensor> inputs =
        integer_buffers(topo.world_size(), elems, 90);
    std::vector<Tensor> buffers = inputs;
    compress::ErrorFeedback ef;
    Cluster cluster(topo);
    run(cluster, spans_of(buffers), &ef);
    double in = 0.0, out = 0.0;
    for (const Tensor& t : inputs) {
      for (size_t i = 0; i < elems; ++i) in += t[i];
    }
    for (size_t i = 0; i < elems; ++i) out += buffers[0][i];
    EXPECT_EQ(out + residual_total(ef), in);
    expect_holds(buffers, world_group(topo),
                 std::vector<float>(buffers[0].data(),
                                    buffers[0].data() + elems));
  }
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 90);
  compress::ErrorFeedback ef;
  Cluster cluster(topo);
  const PhaseReport b = run(cluster, spans_of(buffers), &ef);
  expect_digest(buffers, 0xae516efc7f17dd25, "hitopk");
  expect_clock(b.seconds("reduce_scatter"), 3.7560000000000001e-06,
               "hitopk reduce_scatter");
  expect_clock(b.seconds("inter_allgather"), 1.096e-05,
               "hitopk inter_allgather");
  expect_clock(b.seconds("intra_allgather"), 3.1440000000000007e-06,
               "hitopk intra_allgather");
  expect_clock(b.total, 1.7860000000000002e-05, "hitopk total");
  expect_clock(ef.residual_sq_norm(), 1492.256882309176,
               "hitopk residual_sq_norm");
  Cluster timing_only(topo);
  expect_clock(run(timing_only, {}, nullptr).total, 1.7860000000000002e-05,
               "hitopk total timing-only");
}

// An {8, 8, 4, 4} spot fleet: shards are dealt round-robin to the small
// nodes' GPUs, step 1 is the direct fan-in, and the EF keys carry the
// shard.  Pinned per value wire: digest, the four phase clocks (a device
// model makes MSTopK non-zero), the EF residual norm, and the timing-only
// total.
struct FrozenHiTopK {
  WireDtype wire;
  uint64_t digest;
  double phases[4];  // reduce_scatter, mstopk, inter/intra_allgather
  double residual_sq_norm;
  double timing_only_total;
  size_t intra_node_bytes;  // of the functional call
  size_t inter_node_bytes;
};

TEST(HiTopKEquivalence, UnevenFleetWithErrorFeedback) {
  const Topology topo(std::vector<int>{8, 8, 4, 4}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  const size_t elems = 1001;  // ragged: 1001 % 8 != 0
  const simgpu::GpuCostModel gpu;
  const FrozenHiTopK kFrozen[] = {
      {WireDtype::kFp32,
       0xdd8f20a3a01f4105,
       {1.9527999999999993e-05, 0.00018002483333333334,
        6.9322666666666747e-05, 1.336533333333342e-05},
       17977.885097934894,
       0.0002822408333333335,
       107760,
       4608},
      {WireDtype::kFp16,
       0x508bef17e2a29465,
       {1.6263999999999999e-05, 0.00018002483333333334,
        6.824266666666671e-05, 1.3029333333333443e-05},
       17977.812186605646,
       0.00027756083333333348,
       60800,
       3456},
  };
  for (const FrozenHiTopK& frozen : kFrozen) {
    const std::string what =
        std::string("hitopk uneven ") + wire_dtype_name(frozen.wire);
    auto run = [&](Cluster& cluster, const RankData& data,
                   compress::ErrorFeedback* ef) {
      HiTopKOptions options;
      options.density = 0.05;
      options.seed = 7;
      options.value_wire = frozen.wire;
      options.gpu = &gpu;
      options.error_feedback = ef;
      return hitopk_comm(cluster, data, elems, options, 0.0);
    };
    std::vector<Tensor> buffers =
        random_buffers(topo.world_size(), elems, 110);
    compress::ErrorFeedback ef;
    Cluster cluster(topo);
    const auto b = run(cluster, spans_of(buffers), &ef);
    expect_digest(buffers, frozen.digest, what);
    // The bytes see every leg, including the small nodes' step-4 rings
    // that the big nodes' clocks hide.
    EXPECT_EQ(cluster.intra_node_bytes(), frozen.intra_node_bytes)
        << "FROZEN " << what << " intra_node_bytes "
        << cluster.intra_node_bytes();
    EXPECT_EQ(cluster.inter_node_bytes(), frozen.inter_node_bytes)
        << "FROZEN " << what << " inter_node_bytes "
        << cluster.inter_node_bytes();
    expect_clock(b.seconds("reduce_scatter"), frozen.phases[0],
                 what + " reduce_scatter");
    expect_clock(b.seconds("mstopk"), frozen.phases[1], what + " mstopk");
    expect_clock(b.seconds("inter_allgather"), frozen.phases[2],
                 what + " inter_allgather");
    expect_clock(b.seconds("intra_allgather"), frozen.phases[3],
                 what + " intra_allgather");
    expect_clock(ef.residual_sq_norm(), frozen.residual_sq_norm,
                 what + " residual_sq_norm");
    expect_holds(
        buffers, world_group(topo),
        std::vector<float>(buffers[0].data(), buffers[0].data() + elems));
    Cluster timing_only(topo);
    expect_clock(run(timing_only, {}, nullptr).total, frozen.timing_only_total,
                 what + " timing-only total");
  }
}

// ------------------------------------------------------------ gTop-k
// Power-of-two and folded (non-power-of-two) worlds, with error-feedback
// state carried across two successive calls.
class GtopkEquivalenceTest : public ::testing::TestWithParam<FabricElems> {};

// Digest, the two calls' finish clocks, and the EF residual norm.
struct FrozenGtopk {
  uint64_t digest;
  double first;
  double second;
  double residual_sq_norm;
};

const std::map<FabricElems, FrozenGtopk> kGtopk{
    {{{2, 2}, 200},
     {0xd9fdf6eedfdaf3a5, 1.2344000000000001e-05, 1.2344000000000004e-05,
      577.06228112078043}},
    {{{2, 4}, 257},
     {0x92fccf90a0c2b485, 1.5360000000000002e-05, 1.5360000000000002e-05,
      1531.2037868561547}},
    {{{3, 1}, 100},
     {0x7aede7e4f3489f41, 3.0960000000000002e-05, 3.0960000000000002e-05,
      258.40024714916672}},
    {{{3, 2}, 331},
     {0x9ab0819216f4a8ad, 3.6304000000000003e-05, 3.6304000000000003e-05,
      1387.1014349386869}},
    {{{3, 4}, 97},
     {0x60a3c8d034c1a645, 3.4944000000000003e-05, 3.4943999999999989e-05,
      875.31236530312799}},
};

TEST_P(GtopkEquivalenceTest, TwoCallsWithErrorFeedback) {
  const auto [shape, elems] = GetParam();
  const auto [m, n] = shape;
  const Topology topo = fabric(m, n);
  const auto it = kGtopk.find(GetParam());
  ASSERT_NE(it, kGtopk.end());
  const FrozenGtopk& frozen = it->second;
  auto run = [&](const RankData& data, compress::ErrorFeedback* ef) {
    Cluster cluster(topo);
    GtopkOptions options;
    options.density = 0.04;
    options.error_feedback = ef;
    const auto first = coll::gtopk_comm(cluster, data, elems, options, 0.0);
    // Second call continues from the first's residuals (functional mode).
    const auto second =
        coll::gtopk_comm(cluster, data, elems, options, first.total);
    return std::pair{first, second};
  };
  std::vector<Tensor> buffers =
      random_buffers(topo.world_size(), elems, 300 + elems);
  compress::ErrorFeedback ef;
  const auto [first, second] = run(spans_of(buffers), &ef);
  expect_digest(buffers, frozen.digest, "gtopk");
  expect_clock(first.total, frozen.first, "gtopk first");
  expect_clock(second.total, frozen.second, "gtopk second");
  expect_clock(ef.residual_sq_norm(), frozen.residual_sq_norm,
               "gtopk residual_sq_norm");
  // Every rank ends on the same aggregate.
  expect_holds(
      buffers, world_group(topo),
      std::vector<float>(buffers[0].data(), buffers[0].data() + elems));
  const auto [first_t, second_t] = run({}, nullptr);
  expect_clock(first_t.total, frozen.first, "gtopk first timing-only");
  expect_clock(second_t.total, frozen.second, "gtopk second timing-only");
  // One phase per exchange round, the same with and without data.
  ASSERT_EQ(first.phases.size(), first_t.phases.size());
  for (size_t i = 0; i < first.phases.size(); ++i) {
    EXPECT_STREQ(first.phases[i].label, first_t.phases[i].label);
    EXPECT_EQ(first.phases[i].seconds, first_t.phases[i].seconds);
  }
}

// Power-of-two (2x2, 2x4), folded worlds (3x1, 3x2, 3x4), an uneven ragged
// element count, and a folded world on an *uneven* node topology below.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GtopkEquivalenceTest,
    ::testing::Values(std::pair{std::pair{2, 2}, size_t{200}},
                      std::pair{std::pair{2, 4}, size_t{257}},
                      std::pair{std::pair{3, 1}, size_t{100}},
                      std::pair{std::pair{3, 2}, size_t{331}},
                      std::pair{std::pair{3, 4}, size_t{97}}));

TEST(GtopkEquivalence, UnevenNodeTopology) {
  // 3 + 1 + 2 GPUs: world size 6 folds (q = 4, rem = 2) and the NIC port
  // layout is asymmetric across nodes.
  const Topology topo(std::vector<int>{3, 1, 2}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  const size_t elems = 150;
  auto run = [&](const RankData& data) {
    Cluster cluster(topo);
    GtopkOptions options;
    options.density = 0.05;
    return coll::gtopk_comm(cluster, data, elems, options, 0.25);
  };
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 44);
  const auto s = run(spans_of(buffers));
  // q = 4: fold + 2 hypercube rounds + unfold.
  ASSERT_EQ(s.phases.size(), 4u);
  EXPECT_STREQ(s.phases[0].label, "fold");
  EXPECT_STREQ(s.phases[1].label, "hypercube");
  EXPECT_STREQ(s.phases[2].label, "hypercube");
  EXPECT_STREQ(s.phases[3].label, "unfold");
  expect_digest(buffers, 0x6481d64c6d250d25, "gtopk uneven");
  expect_clock(s.total, 3.3624000000009868e-05, "gtopk uneven");
  expect_clock(run({}).total, 3.3624000000009868e-05,
               "gtopk uneven timing-only");
}

// ------------------------------------------------------------ NaiveAG
TEST(NaiveAgEquivalence, RaggedSparsePayloads) {
  const Topology topo = fabric(3, 2);
  const size_t elems = 211;
  // Per-rank top-k with *different* k so the ring payloads are ragged.
  auto select = [&](const std::vector<Tensor>& grads) {
    std::vector<compress::SparseTensor> sparse;
    for (size_t r = 0; r < grads.size(); ++r) {
      sparse.push_back(compress::exact_topk(grads[r].span(), 3 + 5 * r));
    }
    return sparse;
  };
  auto run = [&](const std::vector<compress::SparseTensor>& sparse,
                 const RankData& data) {
    Cluster cluster(topo);
    return coll::naive_sparse_allgather(cluster, sparse, data, elems, 2, 1e-4,
                                        0.5);
  };
  {
    // Every rank ends on the scatter-added sum of all selections.
    const auto sparse = select(integer_buffers(topo.world_size(), elems, 91));
    std::vector<float> expected(elems, 0.0f);
    for (const auto& s : sparse) {
      for (size_t j = 0; j < s.nnz(); ++j) {
        expected[s.indices[j]] += s.values[j];
      }
    }
    std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 92);
    run(sparse, spans_of(buffers));
    expect_holds(buffers, world_group(topo), expected);
  }
  const auto sparse = select(random_buffers(topo.world_size(), elems, 91));
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 92);
  const auto s = run(sparse, spans_of(buffers));
  expect_digest(buffers, 0x87bc67cd82b284d5, "naive");
  expect_clock(s.total, 0.0051554000000000322, "naive total");
  expect_clock(s.seconds("allgather"), 0.0050554000000000432,
               "naive allgather");
  expect_clock(s.seconds("accumulate"), 9.9999999999988987e-05,
               "naive accumulate");
  expect_clock(run(sparse, {}).total, 0.0051554000000000322,
               "naive total timing-only");
}

TEST(NaiveAgEquivalence, UnevenNodeTopologyTimingParity) {
  const Topology topo(std::vector<int>{2, 4, 1}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  Cluster cluster(topo);
  expect_clock(
      coll::naive_sparse_allgather_time(cluster, 64, 2, 1e-4, 0.0).total,
      0.0061830400000000008, "naive uneven");
}

// Guard class from PR 4's ring_allgather_bytes_multi g == 0 fix: degenerate
// NaiveAG inputs must not crash and must cost only the local accumulate.
TEST(NaiveAgGuards, SingleRankWorldIsGatherFree) {
  const Topology topo = fabric(1, 1);
  Cluster cluster(topo);
  Tensor grad(50);
  grad.fill(2.0f);
  std::vector<compress::SparseTensor> sparse{
      compress::exact_topk(grad.span(), 5)};
  Tensor out(50);
  RankData data{out.span()};
  const auto r =
      coll::naive_sparse_allgather(cluster, sparse, data, 50, 4, 1e-3, 0.0);
  EXPECT_DOUBLE_EQ(r.seconds("allgather"), 0.0);  // no ring steps for one rank
  EXPECT_DOUBLE_EQ(r.seconds("accumulate"), 1e-3);
  EXPECT_DOUBLE_EQ(r.total, 1e-3);
  float sum = 0.0f;
  for (size_t i = 0; i < 50; ++i) sum += out[i];
  EXPECT_FLOAT_EQ(sum, 10.0f);  // the rank's own top-5 of a constant tensor
  EXPECT_DOUBLE_EQ(
      coll::naive_sparse_allgather_time(cluster, 100, 4, 0.0, 2.0).total, 0.0);
}

TEST(NaiveAgGuards, EmptySelectionsRideAsLatencyOnlyMessages) {
  const Topology topo = fabric(2, 2);
  const size_t elems = 40;
  // k == 0 everywhere: zero payload bytes, but the ring steps still pay
  // alpha, so the gather costs 3 latency-only hops.
  std::vector<compress::SparseTensor> sparse(4);
  for (auto& s : sparse) s.dense_size = elems;
  std::vector<Tensor> buffers = random_buffers(4, elems, 7);
  Cluster cluster(topo);
  const auto s = coll::naive_sparse_allgather(cluster, sparse,
                                              spans_of(buffers), elems, 4, 0.0,
                                              0.0);
  EXPECT_GT(s.seconds("allgather"), 0.0);  // alpha per step survives
  expect_clock(s.total, 0.0030300000000000001, "naive empty");
  for (const auto& t : buffers) {
    for (size_t i = 0; i < elems; ++i) ASSERT_EQ(t[i], 0.0f);  // empty sum
  }
}

TEST(NaiveAgGuards, EmptyRankDataIsTimingOnly) {
  const Topology topo = fabric(2, 2);
  Cluster cluster(topo);
  std::vector<compress::SparseTensor> sparse(4);
  for (auto& s : sparse) s.dense_size = 16;
  const auto r =
      coll::naive_sparse_allgather(cluster, sparse, RankData{}, 16, 4, 0.0,
                                   0.0);
  EXPECT_GT(r.total, 0.0);  // clocks advance, no data is touched
}

// ------------------------------------------------------------ BlueConnect
// With factors = {P} BlueConnect's recorded schedule must be *identical* to
// ring_allreduce's (clock and bitwise), which the oracles above pin — that
// chain anchors the whole decomposition.
TEST(BlueConnect, SingleStageIsExactlyFlatRing) {
  const Topology topo = fabric(3, 2);
  const size_t elems = 151;
  std::vector<Tensor> buf_bc = random_buffers(topo.world_size(), elems, 120);
  std::vector<Tensor> buf_ring = buf_bc;
  Cluster c_bc(topo), c_ring(topo);
  BlueConnectOptions options;
  options.factors = {6};
  options.wire = WireDtype::kFp32;
  const auto bc =
      blueconnect_allreduce(c_bc, spans_of(buf_bc), elems, options, 0.75);
  const double ring = ring_allreduce(c_ring, world_group(topo),
                                     spans_of(buf_ring), elems,
                                     WireDtype::kFp32, 0.75);
  // Same expression shape on both sides (finish - start), so the doubles
  // must be identical, not merely close.
  EXPECT_DOUBLE_EQ(bc.total, ring - 0.75);
  EXPECT_EQ(digest(buf_bc), digest(buf_ring));
  // Timing-only too.
  Cluster c_bc2(topo), c_ring2(topo);
  EXPECT_DOUBLE_EQ(
      blueconnect_allreduce(c_bc2, {}, elems, options, 0.0).total,
      ring_allreduce(c_ring2, world_group(topo), {}, elems,
                     WireDtype::kFp32, 0.0));
}

class BlueConnectShapeTest
    : public ::testing::TestWithParam<
          std::pair<std::vector<int>, std::pair<std::pair<int, int>, size_t>>> {
};

TEST_P(BlueConnectShapeTest, AllRanksConvergeToTheSum) {
  const auto [factors, rest] = GetParam();
  const auto [shape, elems] = rest;
  const auto [m, n] = shape;
  const Topology topo = fabric(m, n);
  std::vector<Tensor> buffers =
      random_buffers(topo.world_size(), elems, 130 + elems);
  std::vector<double> expected(elems, 0.0);
  for (const auto& b : buffers) {
    for (size_t i = 0; i < elems; ++i) expected[i] += b[i];
  }
  Cluster cluster(topo);
  BlueConnectOptions options;
  options.factors = factors;
  const auto r =
      blueconnect_allreduce(cluster, spans_of(buffers), elems, options, 0.0);
  // One "reduce_scatter" and one "allgather" phase per stage.
  const size_t stages = options.factors.empty()
                            ? (m == 1 || n == 1 ? 1u : 2u)
                            : options.factors.size();
  for (const char* label : {"reduce_scatter", "allgather"}) {
    EXPECT_EQ(std::count_if(r.phases.begin(), r.phases.end(),
                            [&](const PhaseReport::Phase& p) {
                              return std::string(p.label) == label;
                            }),
              static_cast<std::ptrdiff_t>(stages))
        << label;
  }
  EXPECT_EQ(r.phases.size(), 2 * stages);
  EXPECT_GT(r.total, 0.0);
  EXPECT_DOUBLE_EQ(r.total,
                   r.seconds("reduce_scatter") + r.seconds("allgather"));
  for (size_t rank = 0; rank < buffers.size(); ++rank) {
    for (size_t i = 0; i < elems; ++i) {
      ASSERT_EQ(buffers[rank][i], buffers[0][i]) << rank << "," << i;
      ASSERT_NEAR(buffers[rank][i], expected[i],
                  1e-4 * std::max(1.0, std::abs(expected[i])));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlueConnectShapeTest,
    ::testing::Values(
        // Auto-derived {n, m} on a ragged element count.
        std::pair{std::vector<int>{}, std::pair{std::pair{3, 2}, size_t{157}}},
        std::pair{std::vector<int>{}, std::pair{std::pair{4, 4}, size_t{96}}},
        // Explicit three-stage rack-aware factorization {n, pod, pods}.
        std::pair{std::vector<int>{2, 2, 2},
                  std::pair{std::pair{4, 2}, size_t{203}}},
        std::pair{std::vector<int>{4, 2, 2},
                  std::pair{std::pair{4, 4}, size_t{129}}},
        // Factor-1 stages are legal no-ops.
        std::pair{std::vector<int>{1, 6, 1},
                  std::pair{std::pair{3, 2}, size_t{64}}}));

TEST(BlueConnect, RejectsFactorizationMismatch) {
  const Topology topo = fabric(2, 2);
  Cluster cluster(topo);
  BlueConnectOptions options;
  options.factors = {3};
  // A bad factorization is a recoverable runtime configuration, not a
  // broken invariant: the elastic layer catches ConfigError and re-derives.
  EXPECT_THROW(blueconnect_allreduce(cluster, {}, 10, options, 0.0),
               ConfigError);
}


// ------------------------------------------------------- engine unit tests
TEST(Schedule, SyncCollapseAndMarks) {
  const Topology topo = fabric(1, 2);
  Cluster cluster(topo);
  Schedule sched;
  const uint32_t slots = sched.add_slots(2);
  sched.send(0, 1, 1000, slots, slots + 1);
  sched.end_step();
  sched.sync(/*collapse=*/false, "a");  // mark only: slot 0 still at start
  sched.send(1, 0, 1000, slots + 1, slots);
  sched.end_step();
  sched.sync(/*collapse=*/true, "b");
  sched.send(0, 1, 1000, slots, slots + 1);
  const PhaseReport timing = sched.run_timing(cluster, 1.0);
  // Two closed phases plus the unlabelled tail after the last sync.
  ASSERT_EQ(timing.phases.size(), 3u);
  EXPECT_STREQ(timing.phases[0].label, "a");
  EXPECT_STREQ(timing.phases[1].label, "b");
  EXPECT_STREQ(timing.phases[2].label, "");
  // First hop: 1e-6 latency + 1000 * 1e-9 s/B.
  const double hop = 1e-6 + 1000e-9;
  EXPECT_DOUBLE_EQ(timing.start + timing.seconds("a"), 1.0 + hop);
  EXPECT_DOUBLE_EQ(timing.start + timing.seconds("a") + timing.seconds("b"),
                   1.0 + 2 * hop);
  EXPECT_DOUBLE_EQ(timing.finish, 1.0 + 3 * hop);
  EXPECT_DOUBLE_EQ(timing.total, timing.finish - 1.0);
}

TEST(Schedule, ReportSumsRepeatedLabels) {
  PhaseReport report(2.0);
  report.close("x", 3.0);
  report.close("y", 3.5);
  report.close("x", 5.0);
  EXPECT_DOUBLE_EQ(report.seconds("x"), 2.5);
  EXPECT_DOUBLE_EQ(report.seconds("y"), 0.5);
  EXPECT_DOUBLE_EQ(report.seconds("z"), 0.0);
  EXPECT_DOUBLE_EQ(report.finish, 5.0);
  EXPECT_DOUBLE_EQ(report.total, 3.0);
}

TEST(Schedule, DataPassKeepsPerDestinationOrder) {
  // Three reduces into one destination must apply in recorded order;
  // float addition is not associative, so order shows in the bits.
  Tensor a(1), b(1), c(1), dst(1);
  a[0] = 1e30f;
  b[0] = -1e30f;
  c[0] = 1.0f;
  dst[0] = 0.0f;
  Schedule sched;
  const uint32_t ba = sched.add_buffer(a.span());
  const uint32_t bb = sched.add_buffer(b.span());
  const uint32_t bc = sched.add_buffer(c.span());
  const uint32_t bd = sched.add_buffer(dst.span());
  sched.reduce(ba, bd, 0, 1);
  sched.reduce(bb, bd, 0, 1);
  sched.reduce(bc, bd, 0, 1);
  sched.run_data();
  // ((0 + 1e30) - 1e30) + 1 == 1; any other order collapses to 0.
  EXPECT_EQ(dst[0], 1.0f);
}

TEST(Schedule, CallableStepsRunAfterTheirStepsMovesInRecordOrder) {
  const Topology topo = fabric(1, 2);
  Tensor a(1), b(1);
  a[0] = 1.0f;
  b[0] = 0.0f;
  Schedule sched;
  const uint32_t slots = sched.add_slots(2);
  const uint32_t ba = sched.add_buffer(a.span());
  const uint32_t bb = sched.add_buffer(b.span());
  // Each callable logs its id and what it sees in b.
  std::vector<std::pair<int, float>> log;
  auto logger = [&](int id) {
    return [&log, &b, id] { log.push_back({id, b[0]}); };
  };
  sched.send(0, 1, 1000, slots, slots + 1);
  sched.call(logger(0));  // recorded before the step's move, runs after it
  sched.copy(ba, bb, 0, 1);
  sched.call(logger(1));
  sched.end_step();
  sched.send(1, 0, 1000, slots + 1, slots);
  sched.reduce(ba, bb, 0, 1);
  sched.call(logger(2));
  sched.end_step();
  sched.call(logger(3));  // a step with neither sends nor moves
  EXPECT_FALSE(sched.empty());

  // The timing passes never run a callable, completed or aborted.
  Cluster cluster(topo);
  sched.run_timing(cluster, 0.0);
  simnet::FaultPlan plan;
  plan.preempt(1, 0.0);
  Cluster faulty(topo);
  faulty.set_fault_plan(&plan);
  EXPECT_TRUE(sched.run_timing_abortable(faulty, 0.0).aborted());
  EXPECT_TRUE(log.empty());

  const std::vector<std::pair<int, float>> once{
      {0, 1.0f}, {1, 1.0f}, {2, 2.0f}, {3, 2.0f}};
  sched.run_data();
  EXPECT_EQ(log, once);
  // Once per run_data: a second pass replays the moves and the callables.
  b[0] = 0.0f;
  sched.run_data();
  std::vector<std::pair<int, float>> twice = once;
  twice.insert(twice.end(), once.begin(), once.end());
  EXPECT_EQ(log, twice);
}

// --------------------------------------------------- elastic fault rescale
// The acceptance sweep: a preemption injected at *every* step index of the
// replayed schedule must never crash — it surfaces as a structured abort,
// and the elastic retry completes on the surviving world with buffers
// bitwise identical to a fresh run at that world (aborted attempts never
// run the data pass, so the retry consumes pristine inputs).  The sweep
// drives preemption times over a dense grid spanning the fault-free replay
// and asserts the observed abort steps cover the schedule gaplessly.
namespace elastic_sweep {

constexpr int kDeadRank = 1;
constexpr int kGridPoints = 120;

// Fresh-run oracle at the surviving world, mirroring the elastic layer's
// per-algorithm rebuild (ring; BlueConnect with re-derived factors;
// gTop-k).
void run_fresh(ElasticAlgorithm algorithm, const Topology& topo,
               const RankData& data, size_t elems) {
  Cluster cluster(topo);
  switch (algorithm) {
    case ElasticAlgorithm::kRing:
      ring_allreduce(cluster, world_group(topo), data, elems, coll::WireDtype::kFp32, 0.0);
      break;
    case ElasticAlgorithm::kBlueConnect: {
      BlueConnectOptions options;
      if (!topo.uniform()) options.factors = {topo.world_size()};
      blueconnect_allreduce(cluster, data, elems, options, 0.0);
      break;
    }
    case ElasticAlgorithm::kGtopk: {
      GtopkOptions options;
      options.density = 0.05;
      gtopk_comm(cluster, data, elems, options, 0.0);
      break;
    }
  }
}

// Runs the sweep for one algorithm; fills the set of abort steps seen.
// (void return: gtest's fatal ASSERT_* macros require it.)
void sweep(ElasticAlgorithm algorithm, const Topology& topo, size_t elems,
           std::vector<int>* abort_steps_out) {
  const int world = topo.world_size();
  ElasticOptions options;
  options.algorithm = algorithm;
  options.gtopk.density = 0.05;
  options.reschedule_seconds = 0.5;

  // Fault-free pass pins the sweep window and the baseline behavior.
  const simnet::FaultPlan no_faults;
  const auto clean = elastic_allreduce(topo, no_faults, {}, elems, options,
                                       0.0);
  EXPECT_TRUE(clean.completed);
  EXPECT_EQ(clean.surviving_world, world);
  EXPECT_EQ(clean.rescales, 0);
  const double finish = clean.finish;
  EXPECT_GT(finish, 0.0);

  // Dead at start (t = 0): the initial survivor filter excludes the rank
  // before any send, so the single attempt runs at p - 1 and its buffers
  // match the fresh shrunk-world oracle bitwise.
  {
    simnet::FaultPlan plan;
    plan.preempt(kDeadRank, 0.0);
    std::vector<Tensor> buffers = random_buffers(world, elems, 499);
    const auto result =
        elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.surviving_world, world - 1);
    EXPECT_EQ(result.attempts.size(), 1u);
    EXPECT_EQ(result.rescales, 0);
    const SurvivorWorld survivor = shrink_topology(topo, {kDeadRank});
    std::vector<Tensor> fresh = random_buffers(world, elems, 499);
    RankData fresh_data;
    for (const int old_rank : survivor.old_rank) {
      fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
    }
    run_fresh(algorithm, survivor.topology, fresh_data, elems);
    for (const int old_rank : survivor.old_rank) {
      const auto r = static_cast<size_t>(old_rank);
      ASSERT_EQ(std::memcmp(buffers[r].data(), fresh[r].data(),
                            elems * sizeof(float)),
                0)
          << "dead-at-start survivor (old rank " << old_rank << ")";
    }
  }

  std::vector<int> abort_steps;
  for (int i = 0; i < kGridPoints; ++i) {
    const double t =
        finish * (static_cast<double>(i) + 0.5) / kGridPoints;
    simnet::FaultPlan plan;
    plan.preempt(kDeadRank, t);
    plan.set_detection_timeout(0.1);

    std::vector<Tensor> buffers =
        random_buffers(world, elems, 500 + static_cast<uint64_t>(i));
    const auto result =
        elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
    ASSERT_TRUE(result.completed);
    if (result.attempts.front().outcome.aborted()) {
      // Preemption hit mid-schedule: structured abort, then a completed
      // retry on the surviving world.
      abort_steps.push_back(result.attempts.front().outcome.abort_step);
      ASSERT_EQ(result.surviving_world, world - 1);
      ASSERT_EQ(result.rescales, 1);
      ASSERT_EQ(result.attempts.size(), 2u);
      ASSERT_TRUE(result.attempts.back().outcome.completed());
      ASSERT_GE(result.attempts.front().outcome.abort_step, 0);
      // The abort charged the detection timeout before the rebuild.
      ASSERT_GE(result.attempts.back().outcome.finish, t + 0.1 + 0.5);

      // Bitwise oracle: fresh buffers, fresh cluster, shrunk world.
      const SurvivorWorld survivor =
          shrink_topology(topo, {kDeadRank});
      std::vector<Tensor> fresh =
          random_buffers(world, elems, 500 + static_cast<uint64_t>(i));
      RankData fresh_data;
      for (const int old_rank : survivor.old_rank) {
        fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
      }
      run_fresh(algorithm, survivor.topology, fresh_data, elems);
      for (const int old_rank : survivor.old_rank) {
        const auto r = static_cast<size_t>(old_rank);
        ASSERT_EQ(std::memcmp(buffers[r].data(), fresh[r].data(),
                              elems * sizeof(float)),
                  0)
            << "survivor (old rank " << old_rank
            << ") differs from the fresh shrunk-world run at t=" << t;
      }
      // The dead rank's buffer is untouched: the aborted attempt never
      // ran its data pass, and the retry does not include the rank.
      std::vector<Tensor> inputs =
          random_buffers(world, elems, 500 + static_cast<uint64_t>(i));
      const auto dead = static_cast<size_t>(kDeadRank);
      ASSERT_EQ(std::memcmp(buffers[dead].data(), inputs[dead].data(),
                            elems * sizeof(float)),
                0);
    } else {
      // The preemption landed after the last send started: the full-world
      // attempt completed before anyone observed the failure.
      ASSERT_EQ(result.surviving_world, world);
    }
  }
  std::sort(abort_steps.begin(), abort_steps.end());
  abort_steps.erase(std::unique(abort_steps.begin(), abort_steps.end()),
                    abort_steps.end());
  *abort_steps_out = abort_steps;
}

void expect_gapless(const std::vector<int>& steps, int expected_first,
                    int expected_last) {
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.front(), expected_first);
  EXPECT_EQ(steps.back(), expected_last);
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i], expected_first + static_cast<int>(i))
        << "abort-step coverage gap";
  }
}

// A preemption is observable only by a send starting at or after it; every
// step-0 send of a dense All-Reduce starts exactly at the attempt's start
// time, so a "step 0" death is indistinguishable from dead-at-start and is
// handled by the survivor filter (asserted inside sweep()).  Hence the
// mid-schedule sweeps cover steps 1..last.
TEST(ElasticRescale, RingEveryStepIndex) {
  // p = 6: 2(p-1) = 10 ring steps, indices 0..9.
  std::vector<int> steps;
  sweep(ElasticAlgorithm::kRing, fabric(3, 2), 48, &steps);
  expect_gapless(steps, 1, 9);
}

TEST(ElasticRescale, BlueConnectEveryStepIndex) {
  const Topology topo = fabric(3, 2);
  // Auto-derived factors {2, 3} on 3x2: RS 1+2 steps descending, then
  // AG 2+1 ascending = 6 steps, indices 0..5.
  std::vector<int> steps;
  sweep(ElasticAlgorithm::kBlueConnect, topo, 48, &steps);
  expect_gapless(steps, 1, 5);
}

TEST(ElasticRescale, GtopkEveryStepIndex) {
  // p = 6 folds to q = 4: fold + 2 exchange rounds + unfold.  The two fold
  // sends leave node 2 through one NIC, so the second starts after the
  // first and even step 0 is killable mid-schedule here.
  std::vector<int> steps;
  sweep(ElasticAlgorithm::kGtopk, fabric(3, 2), 64, &steps);
  expect_gapless(steps, 0, static_cast<int>(steps.size()) - 1);
  EXPECT_GE(steps.size(), 3u);
}

TEST(ElasticRescale, GtopkAbortLeavesErrorFeedbackUntouched) {
  // 3x2 fabric, EF residuals warmed by one full-world call, then rank 5
  // dies just after the next call starts: attempt 1 aborts and the retry
  // runs on the five survivors.  The aborted attempt must touch neither
  // the buffers nor the residuals, so the survivors end exactly where a
  // fresh five-rank call from the same residuals ends.
  const Topology topo = fabric(3, 2);
  const int world = topo.world_size();
  const size_t elems = 64;
  const int dead = 5;
  GtopkOptions gtopk;
  gtopk.density = 0.05;

  compress::ErrorFeedback ef;
  {
    std::vector<Tensor> warm = random_buffers(world, elems, 700);
    Cluster cluster(topo);
    gtopk.error_feedback = &ef;
    gtopk_comm(cluster, spans_of(warm), elems, gtopk, 0.0);
  }
  compress::ErrorFeedback fresh_ef = ef;

  ElasticOptions options;
  options.algorithm = ElasticAlgorithm::kGtopk;
  options.gtopk = gtopk;
  options.gtopk.error_feedback = &ef;
  options.reschedule_seconds = 0.5;
  simnet::FaultPlan plan;
  plan.preempt(dead, 1e-9);
  std::vector<Tensor> buffers = random_buffers(world, elems, 701);
  const auto result =
      elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.attempts.size(), 2u);
  ASSERT_TRUE(result.attempts.front().outcome.aborted());
  ASSERT_EQ(result.surviving_world, world - 1);

  const SurvivorWorld survivor = shrink_topology(topo, {dead});
  std::vector<Tensor> fresh = random_buffers(world, elems, 701);
  RankData fresh_data;
  for (const int old_rank : survivor.old_rank) {
    fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
  }
  Cluster cluster(survivor.topology);
  gtopk.error_feedback = &fresh_ef;
  gtopk_comm(cluster, fresh_data, elems, gtopk, 0.0);
  for (const int old_rank : survivor.old_rank) {
    const auto r = static_cast<size_t>(old_rank);
    EXPECT_EQ(std::memcmp(buffers[r].data(), fresh[r].data(),
                          elems * sizeof(float)),
              0)
        << "survivor (old rank " << old_rank << ")";
  }
  EXPECT_EQ(ef.residual_sq_norm(), fresh_ef.residual_sq_norm());
  const auto d = static_cast<size_t>(dead);
  EXPECT_EQ(std::memcmp(buffers[d].data(), fresh[d].data(),
                        elems * sizeof(float)),
            0)
      << "the dead rank's buffer";
}

TEST(ElasticRescale, SecondPreemptionShrinksTwice) {
  const Topology topo = fabric(3, 2);
  const size_t elems = 48;
  ElasticOptions options;
  options.reschedule_seconds = 0.5;

  // Probe: learn when the retry starts after rank 1 dies early.
  simnet::FaultPlan probe;
  probe.preempt(1, 1e-9);
  probe.set_detection_timeout(0.1);
  const auto first =
      elastic_allreduce(topo, probe, {}, elems, options, 0.0);
  ASSERT_TRUE(first.completed);
  ASSERT_EQ(first.surviving_world, 5);
  const double retry_start = first.attempts.front().outcome.finish + 0.5;

  // Kill rank 4 a hair after the retry begins — late enough that the
  // rescale's liveness check still sees it alive (so attempt 2 runs and
  // aborts mid-schedule), early enough to hit attempt 2's first steps.
  simnet::FaultPlan plan;
  plan.preempt(1, 1e-9);
  plan.preempt(4, retry_start + 1e-9);
  plan.set_detection_timeout(0.1);
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 901);
  const auto result =
      elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.surviving_world, 4);
  EXPECT_EQ(result.rescales, 2);
  EXPECT_EQ(result.survivors, (std::vector<int>{0, 2, 3, 5}));

  const SurvivorWorld survivor = shrink_topology(topo, {1, 4});
  std::vector<Tensor> fresh = random_buffers(topo.world_size(), elems, 901);
  RankData fresh_data;
  for (const int old_rank : survivor.old_rank) {
    fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
  }
  run_fresh(ElasticAlgorithm::kRing, survivor.topology, fresh_data, elems);
  for (const int old_rank : survivor.old_rank) {
    const auto r = static_cast<size_t>(old_rank);
    ASSERT_EQ(
        std::memcmp(buffers[r].data(), fresh[r].data(), elems * sizeof(float)),
        0)
        << "old rank " << old_rank;
  }
}

TEST(ElasticRescale, SingleSurvivorCompletesTrivially) {
  // All but one rank dead at start: the All-Reduce of one contribution is
  // the identity, so the attempt completes instantly — no schedule, no
  // traffic, no time, and the survivor's buffer is bit-untouched.
  const Topology topo = fabric(3, 2);
  const size_t elems = 48;
  for (const auto algorithm :
       {ElasticAlgorithm::kRing, ElasticAlgorithm::kBlueConnect,
        ElasticAlgorithm::kGtopk}) {
    simnet::FaultPlan plan;
    for (int r = 1; r < topo.world_size(); ++r) plan.preempt(r, 0.0);
    ElasticOptions options;
    options.algorithm = algorithm;
    options.gtopk.density = 0.05;
    std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 77);
    const std::vector<Tensor> inputs =
        random_buffers(topo.world_size(), elems, 77);
    const auto result =
        elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.surviving_world, 1);
    EXPECT_EQ(result.survivors, (std::vector<int>{0}));
    ASSERT_EQ(result.attempts.size(), 1u);
    EXPECT_EQ(result.finish, 0.0);
    EXPECT_EQ(result.rescales, 0);
    EXPECT_EQ(result.regrows, 0);
    EXPECT_EQ(std::memcmp(buffers[0].data(), inputs[0].data(),
                          elems * sizeof(float)),
              0);
  }
}

TEST(ElasticRescale, AllSurvivorsOnOneNodeRunHierarchyFree) {
  // Two whole nodes die, leaving both survivors on node 0: the rebuilt
  // world has no inter-node links, so every algorithm must run a flat,
  // hierarchy-free schedule — and match the fresh single-node oracle
  // bitwise.  (BlueConnect's auto factor derivation on one node already
  // yields the flat {p} ring; the elastic re-derivation must agree.)
  const Topology topo = fabric(3, 2);
  const size_t elems = 48;
  for (const auto algorithm :
       {ElasticAlgorithm::kRing, ElasticAlgorithm::kBlueConnect,
        ElasticAlgorithm::kGtopk}) {
    simnet::FaultPlan plan;
    for (int r = 2; r < topo.world_size(); ++r) plan.preempt(r, 0.0);
    ElasticOptions options;
    options.algorithm = algorithm;
    options.gtopk.density = 0.05;
    std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 78);
    const auto result =
        elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.surviving_world, 2);
    ASSERT_EQ(result.attempts.size(), 1u);

    const SurvivorWorld survivor = shrink_topology(topo, {2, 3, 4, 5});
    EXPECT_EQ(survivor.topology.nodes(), 1);
    std::vector<Tensor> fresh = random_buffers(topo.world_size(), elems, 78);
    RankData fresh_data;
    for (const int old_rank : survivor.old_rank) {
      fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
    }
    run_fresh(algorithm, survivor.topology, fresh_data, elems);
    for (const int old_rank : survivor.old_rank) {
      const auto r = static_cast<size_t>(old_rank);
      ASSERT_EQ(std::memcmp(buffers[r].data(), fresh[r].data(),
                            elems * sizeof(float)),
                0)
          << "old rank " << old_rank;
    }
  }
}

TEST(ElasticRescale, RecoveredRankRejoinsTheRetry) {
  // Grow path: rank 1 dies during attempt 1 and recovers while attempt 2
  // (which excluded it) is still running; when rank 4's death aborts
  // attempt 2, the third attempt re-derives membership from the full-world
  // plan and rank 1 rejoins.  The completed world is {0,1,2,3,5} and the
  // result matches a fresh run with only rank 4 removed.
  const Topology topo = fabric(3, 2);
  const size_t elems = 48;
  ElasticOptions options;
  options.reschedule_seconds = 0.5;

  // Probe 1: when does attempt 2 start after rank 1 dies immediately?
  simnet::FaultPlan probe1;
  probe1.preempt(1, 1e-9);
  probe1.set_detection_timeout(0.1);
  const auto first = elastic_allreduce(topo, probe1, {}, elems, options, 0.0);
  ASSERT_TRUE(first.completed);
  const double retry_start = first.attempts.front().outcome.finish + 0.5;

  // Probe 2: when does attempt 2 abort after rank 4 dies just past its
  // start?  Attempt 3 then begins at that finish plus the reschedule cost.
  simnet::FaultPlan probe2;
  probe2.preempt(1, 1e-9);
  probe2.preempt(4, retry_start + 1e-9);
  probe2.set_detection_timeout(0.1);
  const auto second = elastic_allreduce(topo, probe2, {}, elems, options, 0.0);
  ASSERT_TRUE(second.completed);
  ASSERT_EQ(second.attempts.size(), 3u);
  const double abort_finish = second.attempts[1].outcome.finish;
  ASSERT_GT(abort_finish, retry_start);

  // Real plan: rank 1's outage window is [1e-9, abort_finish) — it is dead
  // for all of attempt 2 but alive again when attempt 3 re-derives.
  simnet::FaultPlan plan;
  plan.preempt(1, 1e-9, abort_finish);
  plan.preempt(4, retry_start + 1e-9);
  plan.set_detection_timeout(0.1);
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 902);
  const auto result =
      elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.attempts.size(), 3u);
  EXPECT_EQ(result.surviving_world, 5);
  EXPECT_EQ(result.survivors, (std::vector<int>{0, 1, 2, 3, 5}));
  EXPECT_EQ(result.rescales, 2);  // attempt 2 dropped 1; attempt 3 dropped 4
  EXPECT_EQ(result.regrows, 1);   // ... and regained 1
  EXPECT_GE(result.finish, abort_finish);

  // Aborted attempts never run the data pass, so the rejoined rank's input
  // is pristine and the final buffers match a fresh run without rank 4.
  const SurvivorWorld survivor = shrink_topology(topo, {4});
  std::vector<Tensor> fresh = random_buffers(topo.world_size(), elems, 902);
  RankData fresh_data;
  for (const int old_rank : survivor.old_rank) {
    fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
  }
  run_fresh(ElasticAlgorithm::kRing, survivor.topology, fresh_data, elems);
  for (const int old_rank : survivor.old_rank) {
    const auto r = static_cast<size_t>(old_rank);
    ASSERT_EQ(
        std::memcmp(buffers[r].data(), fresh[r].data(), elems * sizeof(float)),
        0)
        << "old rank " << old_rank;
  }
}

TEST(ElasticRescale, ShrinkTopologyMapsSurvivorsDensely) {
  const Topology topo = fabric(3, 2);  // ranks {0,1} {2,3} {4,5}
  const SurvivorWorld w = shrink_topology(topo, {1, 4});
  EXPECT_EQ(w.topology.world_size(), 4);
  EXPECT_EQ(w.topology.nodes(), 3);  // every node kept at least one GPU
  EXPECT_EQ(w.old_rank, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(w.old_node, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(w.topology.uniform());  // 1 + 2 + 1 GPUs

  // A whole node dying removes it from the node list too.
  const SurvivorWorld gone = shrink_topology(topo, {2, 3});
  EXPECT_EQ(gone.topology.nodes(), 2);
  EXPECT_EQ(gone.old_node, (std::vector<int>{0, 2}));
  EXPECT_TRUE(gone.topology.uniform());

  EXPECT_THROW(shrink_topology(fabric(1, 2), {0, 1}), ConfigError);
}

}  // namespace elastic_sweep

// ---------------------------------------------------------------------------
// Multi-tenant backward compatibility: a single job on an idle cluster must
// replay to the exact pre-refactor clocks whatever its job id — across the
// same seven cluster shapes the builder-validation suite sweeps.
// ---------------------------------------------------------------------------
namespace job_invariance {

class JobIdInvarianceTest
    : public ::testing::TestWithParam<std::tuple<int, int, size_t>> {};

TEST_P(JobIdInvarianceTest, SingleJobClocksIndependentOfJobId) {
  const auto [m, n, elems] = GetParam();
  const Topology topo = fabric(m, n);
  Schedule sched;
  build_ring_allreduce(sched, world_group(topo), {}, elems,
                       coll::WireDtype::kFp32);

  Cluster as_default(topo);
  Cluster as_tenant(topo);
  const auto a = sched.run_timing(as_default, 0.25);
  const auto b = sched.run_timing(as_tenant, 0.25, /*job=*/9);
  EXPECT_DOUBLE_EQ(a.finish, b.finish);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_STREQ(a.phases[i].label, b.phases[i].label);
    EXPECT_DOUBLE_EQ(a.phases[i].seconds, b.phases[i].seconds);
  }
  EXPECT_DOUBLE_EQ(as_default.quiescent_time(), as_tenant.quiescent_time());
  EXPECT_EQ(as_default.inter_node_bytes(), as_tenant.inter_node_bytes());
  EXPECT_EQ(as_default.intra_node_bytes(), as_tenant.intra_node_bytes());

  // The abortable replay takes the same arithmetic path fault-free.
  Cluster abortable(topo);
  const ScheduleOutcome out = sched.run_timing_abortable(abortable, 0.25, 9);
  EXPECT_EQ(out.status, ScheduleStatus::kCompleted);
  EXPECT_DOUBLE_EQ(out.finish, a.finish);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JobIdInvarianceTest,
    ::testing::Values(std::tuple<int, int, size_t>{1, 1, 16},
                      std::tuple<int, int, size_t>{1, 4, 64},
                      std::tuple<int, int, size_t>{2, 2, 37},
                      std::tuple<int, int, size_t>{3, 2, 96},
                      std::tuple<int, int, size_t>{2, 3, 41},
                      std::tuple<int, int, size_t>{4, 4, 256},
                      std::tuple<int, int, size_t>{5, 3, 128}));

}  // namespace job_invariance

}  // namespace
}  // namespace hitopk::coll

// Tests for the parameter-server aggregation baseline.
#include <gtest/gtest.h>

#include "collectives/param_server.h"
#include "collectives/torus2d.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace hitopk::coll {
namespace {

using simnet::Cluster;
using simnet::LinkParams;
using simnet::Topology;

Topology fabric(int nodes, int gpus) {
  return Topology(nodes, gpus, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

class ParamServerShapeTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ParamServerShapeTest, MatchesDenseReference) {
  const auto [m, n] = GetParam();
  Topology topo = fabric(m, n);
  Cluster cluster(topo);
  const size_t elems = 111;  // ragged shards
  std::vector<Tensor> grads;
  Tensor reference(elems);
  Rng rng(static_cast<uint64_t>(m * 10 + n));
  for (int r = 0; r < m * n; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    reference += t;
    grads.push_back(std::move(t));
  }
  RankData spans;
  for (auto& g : grads) spans.push_back(g.span());
  param_server_allreduce(cluster, spans, elems, WireDtype::kFp32, 0.0);
  for (const auto& g : grads) {
    for (size_t i = 0; i < elems; ++i) {
      ASSERT_NEAR(g[i], reference[i], 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParamServerShapeTest,
                         ::testing::Values(std::pair{1, 4}, std::pair{2, 2},
                                           std::pair{3, 4}, std::pair{4, 8}));

TEST(ParamServer, BreakdownSumsToTotal) {
  Cluster cluster(Topology::tencent_cloud(16, 8));
  const auto r = param_server_allreduce(cluster, {}, 1u << 20, WireDtype::kFp16, 0.0);
  EXPECT_NEAR(r.seconds("push") + r.seconds("pull"), r.total, 1e-12);
  EXPECT_GT(r.seconds("push"), 0.0);
  EXPECT_GT(r.seconds("pull"), 0.0);
}

TEST(ParamServer, SlowerThanTorusOnCloudCluster) {
  // The fan-in congestion at server NICs makes co-located PS lose to the
  // topology-aware 2DTAR (the §1 argument for All-Reduce).
  const size_t elems = 25u << 20;
  Cluster c_ps(Topology::tencent_cloud(16, 8));
  const double ps = param_server_allreduce(c_ps, {}, elems, WireDtype::kFp16, 0.0).total;
  Cluster c_torus(Topology::tencent_cloud(16, 8));
  const double torus = torus2d_allreduce(c_torus, {}, elems, WireDtype::kFp16, 0.0).total;
  EXPECT_GT(ps, torus);
}

TEST(ParamServer, TimingOnlyMatchesFunctional) {
  Topology topo = fabric(2, 2);
  const size_t elems = 64;
  Cluster ca(topo), cb(topo);
  std::vector<Tensor> grads(4, Tensor(elems));
  RankData spans;
  for (auto& g : grads) spans.push_back(g.span());
  const double functional =
      param_server_allreduce(ca, spans, elems, WireDtype::kFp32, 0.0).total;
  const double timing = param_server_allreduce(cb, {}, elems, WireDtype::kFp32, 0.0).total;
  EXPECT_DOUBLE_EQ(functional, timing);
}

}  // namespace
}  // namespace hitopk::coll

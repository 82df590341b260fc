// Typed transfer payloads: wire-codec contract pins, the fp16-halves-bytes
// acceptance pins (simulated transfer bytes AND per-job accounted bytes),
// quantized error-feedback composition, the {8,8,4,4} uneven-fleet
// HiTopKComm regression, and the quantized engine-vs-legacy differential
// fuzz (CI runs this suite under ASan/UBSan and TSan with the seed pinned;
// HITOPK_WIRE_FUZZ_SEED / HITOPK_WIRE_FUZZ_SAMPLES override).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "collectives/hier_allreduce.h"
#include "collectives/hitopkcomm.h"
#include "collectives/ring.h"
#include "collectives/schedule.h"
#include "collectives/tree_allreduce.h"
#include "compress/error_feedback.h"
#include "compress/wire_codec.h"
#include "core/half.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "simnet/job_scheduler.h"
#include "train/checkpoint.h"
#include "train/tenant.h"

namespace hitopk {
namespace {

using coll::Group;
using coll::RankData;
using coll::WireDtype;
using compress::wire_payload_bytes;
using compress::wire_round_trip;
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

// Integer-valued buffers make float addition exact (sums stay far below
// 2^24), so cross-algorithm comparisons can demand equality, not closeness.
std::vector<Tensor> integer_buffers(int world, size_t elems, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> values(-512, 512);
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

void expect_bitwise_equal(const std::vector<Tensor>& a,
                          const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    ASSERT_EQ(
        std::memcmp(a[r].data(), b[r].data(), a[r].size() * sizeof(float)), 0)
        << "buffers of rank " << r << " differ";
  }
}

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value ? std::strtoull(value, nullptr, 10) : fallback;
}

// ----------------------------------------------------- codec contract

TEST(WireCodec, PayloadBytes) {
  EXPECT_EQ(wire_payload_bytes(WireDtype::kFp32, 1000), 4000u);
  EXPECT_EQ(wire_payload_bytes(WireDtype::kFp16, 1000), 2000u);
  // int8: one byte per element plus the 4-byte per-shard scale record.
  EXPECT_EQ(wire_payload_bytes(WireDtype::kInt8, 1000), 1004u);
  EXPECT_EQ(compress::wire_elem_bytes(WireDtype::kFp16), 2u);
  EXPECT_STREQ(compress::wire_dtype_name(WireDtype::kInt8), "int8");
}

TEST(WireCodec, Fp32IsBitwiseIdentity) {
  std::vector<float> values = {1.0f, -0.0f, 1e-30f,
                               std::numeric_limits<float>::quiet_NaN(),
                               std::numeric_limits<float>::infinity()};
  std::vector<float> before = values;
  wire_round_trip(WireDtype::kFp32, values);
  EXPECT_EQ(std::memcmp(values.data(), before.data(),
                        values.size() * sizeof(float)),
            0);
}

TEST(WireCodec, Fp16MatchesHalfRoundTrip) {
  Tensor a(257), b(257);
  Rng rng(5);
  a.fill_normal(rng, 0.0f, 3.0f);
  std::memcpy(b.data(), a.data(), a.size() * sizeof(float));
  wire_round_trip(WireDtype::kFp16, a.span());
  fp16_round_trip(b.span());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(WireCodec, Int8ScaleIsPowerOfTwoAndErrorBounded) {
  Tensor t(1000);
  Rng rng(7);
  t.fill_normal(rng, 0.0f, 2.0f);
  Tensor orig(1000);
  std::memcpy(orig.data(), t.data(), t.size() * sizeof(float));

  const float scale = compress::int8_wire_scale(t.span());
  ASSERT_GT(scale, 0.0f);
  int exp = 0;
  EXPECT_EQ(std::frexp(scale, &exp), 0.5f) << "scale must be a power of two";

  wire_round_trip(WireDtype::kInt8, t.span());
  for (size_t i = 0; i < t.size(); ++i) {
    // Every decoded value is q*scale for an integer q in [-127, 127], and
    // round-half-away keeps the error within scale/2.
    const float q = t[i] / scale;
    EXPECT_EQ(q, std::nearbyint(q)) << i;
    EXPECT_LE(std::fabs(q), 127.0f) << i;
    EXPECT_LE(std::fabs(t[i] - orig[i]), scale * 0.5f + 1e-12f) << i;
  }
}

TEST(WireCodec, RoundTripsAreIdempotent) {
  for (const WireDtype wire : {WireDtype::kFp16, WireDtype::kInt8}) {
    Tensor t(777);
    Rng rng(11);
    t.fill_normal(rng, 0.0f, 1.0f);
    wire_round_trip(wire, t.span());
    Tensor once(777);
    std::memcpy(once.data(), t.data(), t.size() * sizeof(float));
    wire_round_trip(wire, t.span());
    EXPECT_EQ(std::memcmp(t.data(), once.data(), t.size() * sizeof(float)), 0)
        << compress::wire_dtype_name(wire);
  }
}

TEST(WireCodec, Int8NonFiniteAndZeroShardsPassThrough) {
  std::vector<float> weird = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::quiet_NaN(), 1.5f,
                              0.0f};
  std::vector<float> before = weird;
  wire_round_trip(WireDtype::kInt8, weird);
  EXPECT_TRUE(std::isinf(weird[0]));
  EXPECT_TRUE(std::isnan(weird[1]));
  // The finite value still quantizes against the finite max magnitude.
  EXPECT_NEAR(weird[2], 1.5f, compress::int8_wire_scale(before) * 0.5f);

  std::vector<float> zeros(16, 0.0f);
  zeros[3] = -0.0f;
  std::vector<float> zeros_before = zeros;
  EXPECT_EQ(compress::int8_wire_scale(zeros), 0.0f);
  wire_round_trip(WireDtype::kInt8, zeros);
  EXPECT_EQ(std::memcmp(zeros.data(), zeros_before.data(),
                        zeros.size() * sizeof(float)),
            0);
}

// ------------------------------------------- fp16 halves bytes (pinned)

TEST(Fp16HalvesBytes, SimulatedTransferBytes) {
  // Acceptance pin: the fp16 wire halves the simulated transfer bytes of a
  // dense All-Reduce exactly — Send.bytes derives from the wire dtype.
  const Topology topo = fabric(3, 2);
  const size_t elems = 4096;
  Cluster fp32(topo), fp16(topo);
  coll::ring_allreduce(fp32, coll::world_group(topo), {}, elems,
                       WireDtype::kFp32, 0.0);
  coll::ring_allreduce(fp16, coll::world_group(topo), {}, elems,
                       WireDtype::kFp16, 0.0);
  EXPECT_GT(fp32.inter_node_bytes(), 0u);
  EXPECT_EQ(fp16.inter_node_bytes() * 2, fp32.inter_node_bytes());
  EXPECT_EQ(fp16.intra_node_bytes() * 2, fp32.intra_node_bytes());
  // And the timing pass sees the cheaper wire: fp16 finishes earlier.
  Cluster again32(topo), again16(topo);
  const double t32 = coll::ring_allreduce(again32, coll::world_group(topo), {},
                                          elems, WireDtype::kFp32, 0.0);
  const double t16 = coll::ring_allreduce(again16, coll::world_group(topo), {},
                                          elems, WireDtype::kFp16, 0.0);
  EXPECT_LT(t16, t32);
}

TEST(Fp16HalvesBytes, RecordedSendBytesHalve) {
  // The same pin at the schedule-record level: every recorded Send of the
  // fp16 build carries exactly half the bytes of its fp32 twin.
  const Topology topo = fabric(2, 2);
  const Group world = coll::world_group(topo);
  const size_t elems = 1024;
  auto record = [&](WireDtype wire) {
    coll::Schedule sched;
    std::vector<Group> groups{world};
    std::vector<RankData> group_data{{}};
    const coll::RingGrid grid =
        coll::ring_grid(sched, groups, group_data, wire);
    coll::build_ring_reduce_scatter(sched, groups, grid, elems, wire,
                                    /*fused_chains=*/true);
    sched.sync(/*collapse=*/true, "reduce_scatter");
    coll::build_ring_allgather(sched, groups, grid, elems, wire);
    return sched;
  };
  const coll::Schedule a = record(WireDtype::kFp32);
  const coll::Schedule b = record(WireDtype::kFp16);
  ASSERT_EQ(a.sends().size(), b.sends().size());
  ASSERT_FALSE(a.sends().empty());
  for (size_t i = 0; i < a.sends().size(); ++i) {
    EXPECT_EQ(b.sends()[i].bytes * 2, a.sends()[i].bytes) << "send " << i;
  }
}

TEST(Fp16HalvesBytes, PerJobAccountedBytes) {
  // Acceptance pin: per-job byte accounting reflects the wire dtype — a
  // fp16 tenant places exactly half the bytes of an identical fp32 tenant.
  const Topology topo = fabric(2, 2);
  auto run = [&](WireDtype wire) {
    Cluster cluster(topo);
    simnet::JobScheduler sched(cluster, {});
    train::TenantWorkload workload;
    workload.resolution = 96;
    workload.wire = wire;
    std::vector<simnet::JobSpec> jobs(1);
    jobs[0] = {/*id=*/7, /*arrival=*/0.0, /*gpus=*/4, /*iterations=*/2,
               /*bytes=*/size_t{1} << 20, /*isolated_seconds=*/0.0};
    sched.run(jobs, train::make_tenant_body(workload));
    return std::pair<size_t, size_t>{cluster.inter_node_bytes(7),
                                     cluster.intra_node_bytes(7)};
  };
  const auto [inter32, intra32] = run(WireDtype::kFp32);
  const auto [inter16, intra16] = run(WireDtype::kFp16);
  EXPECT_GT(inter32, 0u);
  EXPECT_EQ(inter16 * 2, inter32);
  EXPECT_EQ(intra16 * 2, intra32);
}

// ------------------------------------------ quantized error feedback

TEST(QuantizedEf, ResidualAbsorbsQuantizationError) {
  // EF with a lossy wire: the residual at a sent coordinate is exactly the
  // quantization error (gradient minus the decoded wire value), and +0.0
  // where the send was exact.
  compress::ErrorFeedback ef;
  Tensor grad(64);
  Rng rng(3);
  grad.fill_normal(rng, 0.0f, 1.0f);
  Tensor acc(64);
  std::memcpy(acc.data(), grad.data(), 64 * sizeof(float));

  ef.apply_priming("g", grad.span());  // zero residual: grad unchanged
  compress::SparseTensor sent;
  sent.dense_size = 64;
  for (uint32_t i = 0; i < 64; i += 4) {
    sent.indices.push_back(i);
    sent.values.push_back(grad[i]);
  }
  wire_round_trip(WireDtype::kInt8, sent.values);
  ef.absorb_primed("g", sent);

  const auto residual = ef.residual("g");
  for (size_t i = 0; i < 64; ++i) {
    if (i % 4 == 0) {
      EXPECT_EQ(residual[i], acc[i] - sent.values[i / 4]) << i;
    } else {
      EXPECT_EQ(residual[i], acc[i]) << i;
    }
  }
}

TEST(QuantizedEf, HitopkQuantizedRunsAreBitwiseDeterministic) {
  // The quantized HiTopKComm pipeline under parallel_for: two identical
  // runs produce bitwise-identical buffers and residuals.
  const Topology topo = fabric(2, 3);
  for (const WireDtype wire : {WireDtype::kFp16, WireDtype::kInt8}) {
    std::vector<Tensor> a = random_buffers(topo.world_size(), 515, 21);
    std::vector<Tensor> b = a;
    compress::ErrorFeedback ef_a, ef_b;
    coll::HiTopKOptions options;
    options.density = 0.05;
    options.value_wire = wire;
    options.error_feedback = &ef_a;
    Cluster ca(topo);
    coll::hitopk_comm(ca, spans_of(a), 515, options, 0.0);
    options.error_feedback = &ef_b;
    Cluster cb(topo);
    coll::hitopk_comm(cb, spans_of(b), 515, options, 0.0);
    expect_bitwise_equal(a, b);
    EXPECT_EQ(ef_a.residual_sq_norm(), ef_b.residual_sq_norm());
    EXPECT_GT(ef_a.residual_sq_norm(), 0.0);  // lossy wire leaves residual
    for (const std::string& key : ef_a.keys()) {
      ASSERT_TRUE(ef_b.has(key));
      const auto ra = ef_a.residual(key);
      const auto rb = ef_b.residual(key);
      ASSERT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)),
                0)
          << key;
    }
  }
}

TEST(QuantizedEf, RestoreAndContinueIdentity) {
  // Checkpoint the quantized EF state after step 1, restore it into a fresh
  // ErrorFeedback, and run step 2 on both: bitwise-identical trajectories.
  const Topology topo = fabric(2, 2);
  const size_t elems = 300;
  coll::HiTopKOptions options;
  options.density = 0.08;
  options.value_wire = WireDtype::kInt8;

  std::vector<Tensor> step1 = random_buffers(topo.world_size(), elems, 31);
  compress::ErrorFeedback live;
  options.error_feedback = &live;
  Cluster c1(topo);
  coll::hitopk_comm(c1, spans_of(step1), elems, options, 0.0);

  // Snapshot (keys + residuals), restore into a fresh instance.
  compress::ErrorFeedback restored;
  for (const std::string& key : live.keys()) {
    restored.set(key, live.residual(key));
  }

  std::vector<Tensor> next_live = random_buffers(topo.world_size(), elems, 32);
  std::vector<Tensor> next_restored = next_live;
  Cluster c2(topo);
  coll::hitopk_comm(c2, spans_of(next_live), elems, options, 0.0);
  options.error_feedback = &restored;
  Cluster c3(topo);
  coll::hitopk_comm(c3, spans_of(next_restored), elems, options, 0.0);

  expect_bitwise_equal(next_live, next_restored);
  EXPECT_EQ(live.residual_sq_norm(), restored.residual_sq_norm());
}

// --------------------------------------- uneven fleets ({8,8,4,4} pin)

TEST(HiTopKUneven, Fleet8844DenseSumExact) {
  // The ISSUE's regression fleet: two 8-GPU and two 4-GPU nodes.  With
  // density 1.0 every coordinate is selected, so the aggregated gradient
  // must equal the dense sum — exactly, on integer-valued inputs.
  const Topology topo(std::vector<int>{8, 8, 4, 4}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  const size_t elems = 4099;  // ragged against L = 8 shards
  std::vector<Tensor> grads = integer_buffers(topo.world_size(), elems, 41);
  Tensor reference(elems);
  for (const auto& g : grads) {
    for (size_t i = 0; i < elems; ++i) reference.span()[i] += g[i];
  }
  coll::HiTopKOptions options;
  options.density = 1.0;
  Cluster cluster(topo);
  coll::hitopk_comm(cluster, spans_of(grads), elems, options, 0.0);
  for (size_t r = 0; r < grads.size(); ++r) {
    for (size_t i = 0; i < elems; ++i) {
      ASSERT_EQ(grads[r][i], reference[i]) << "rank " << r << " elem " << i;
    }
  }
}

TEST(HiTopKUneven, Fleet8844SparseConsistentAndShardKeyedEf) {
  const Topology topo(std::vector<int>{8, 8, 4, 4}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  const size_t elems = 2051;
  std::vector<Tensor> grads = random_buffers(topo.world_size(), elems, 43);
  compress::ErrorFeedback ef;
  coll::HiTopKOptions options;
  options.density = 0.02;
  options.value_wire = WireDtype::kFp16;
  options.error_feedback = &ef;
  Cluster cluster(topo);
  coll::hitopk_comm(cluster, spans_of(grads), elems, options, 0.0);
  // All ranks converge to one buffer.
  for (size_t r = 1; r < grads.size(); ++r) {
    ASSERT_EQ(std::memcmp(grads[r].data(), grads[0].data(),
                          elems * sizeof(float)),
              0)
        << "rank " << r;
  }
  // A GPU on a 4-GPU node owns L/g = 2 of the 8 shards; EF keys are
  // per-(rank, shard).
  EXPECT_TRUE(ef.has("grad:0:s0"));   // GPU 0 of node 0 owns shard 0
  EXPECT_TRUE(ef.has("grad:16:s0"));  // GPU 0 of node 2 owns shards 0 and 4
  EXPECT_TRUE(ef.has("grad:16:s4"));
  EXPECT_FALSE(ef.has("grad:0:s1"));
}

TEST(HiTopKUneven, TimingOnlyAdvancesClocksAndBytes) {
  const Topology topo(std::vector<int>{8, 8, 4, 4}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  coll::HiTopKOptions options;
  options.density = 0.01;
  Cluster cluster(topo);
  const auto breakdown =
      coll::hitopk_comm(cluster, {}, 1u << 18, options, 0.0);
  EXPECT_GT(breakdown.total, 0.0);
  EXPECT_GT(breakdown.seconds("reduce_scatter"), 0.0);
  EXPECT_GT(breakdown.seconds("inter_allgather"), 0.0);
  EXPECT_GT(cluster.inter_node_bytes(), 0u);
  EXPECT_LT(cluster.inter_node_bytes(), cluster.intra_node_bytes());
}

// --------------------------------------------- quantized wire fuzz corpus

// One corpus sample: a random fabric, element count, lossy wire and
// collective (0 ring, 1 tree, 2 hierarchical All-Reduce).
struct FuzzCase {
  int nodes = 1;
  int gpus = 1;
  size_t elems = 0;
  WireDtype wire = WireDtype::kFp16;
  int kind = 0;
  uint64_t data_seed = 0;

  std::string label() const {
    return "nodes=" + std::to_string(nodes) + " gpus=" + std::to_string(gpus) +
           " elems=" + std::to_string(elems) + " wire=" +
           compress::wire_dtype_name(wire) + " kind=" + std::to_string(kind);
  }
};

std::vector<FuzzCase> fuzz_corpus(uint64_t seed, uint64_t samples) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> nodes_dist(1, 4);
  std::uniform_int_distribution<int> gpus_dist(1, 3);
  std::uniform_int_distribution<int> log_elems(4, 11);
  std::uniform_int_distribution<size_t> ragged(0, 5);
  std::uniform_int_distribution<int> wire_dist(0, 1);
  std::uniform_int_distribution<int> kind_dist(0, 2);
  std::vector<FuzzCase> corpus;
  for (uint64_t i = 0; i < samples; ++i) {
    FuzzCase c;
    c.nodes = nodes_dist(rng);
    c.gpus = gpus_dist(rng);
    c.elems = (size_t{1} << log_elems(rng)) + ragged(rng);
    c.wire = wire_dist(rng) == 0 ? WireDtype::kFp16 : WireDtype::kInt8;
    c.kind = kind_dist(rng);
    if (c.nodes * c.gpus == 1 || (c.kind == 2 && c.nodes == 1)) c.kind = 0;
    c.data_seed = seed ^ (i * 0x9e3779b97f4a7c15ull);
    corpus.push_back(c);
  }
  return corpus;
}

// The corpus the CI legs pin; HITOPK_WIRE_FUZZ_SEED / _SAMPLES override it.
std::vector<FuzzCase> env_corpus() {
  return fuzz_corpus(env_u64("HITOPK_WIRE_FUZZ_SEED", 20260807),
                     env_u64("HITOPK_WIRE_FUZZ_SAMPLES", 60));
}

// Runs the sample's collective on `data` (empty: timing-only), returns the
// finish clock.
double run_case(const FuzzCase& c, const RankData& data) {
  const Topology topo = fabric(c.nodes, c.gpus);
  Cluster cluster(topo);
  switch (c.kind) {
    case 0:
      return coll::ring_allreduce(cluster, coll::world_group(topo), data,
                                  c.elems, c.wire, 0.0);
    case 1: {
      coll::TreeOptions tree;
      tree.wire = c.wire;
      return coll::tree_allreduce(cluster, coll::world_group(topo), data,
                                  c.elems, tree, 0.0);
    }
    default:
      return coll::hier_allreduce(cluster, data, c.elems, c.wire, 0.0).total;
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

TEST(WireFuzz, QuantizedDigestSliceIsFrozen) {
  // The first samples of the pinned corpus, with the seed fixed here (the
  // env override does not apply): FNV-1a digests of every rank's output and
  // the finish clocks, frozen while the engine was still checked bitwise
  // against the hop-by-hop loops.
  struct Frozen {
    uint64_t digest;
    double finish;
  };
  const Frozen frozen[] = {
      {0x868b93cf9a3bcf83, 0.00015787199999999998},
      {0x927279bb87e9a577, 0.00013119600000000001},
      {0x1804cfe4e555fb96, 0.00010100000000000002},
      {0x6c84aac93865cb34, 5.7896000000000003e-05},
      {0xa065e37d28601583, 4.6170000000000007e-05},
      {0xc7188469f853e032, 0.00010108000000000003},
      {0xf51479b5da0270c8, 2.8284000000000002e-05},
      {0xf8c6bd83b1ab63f0, 0.00010700000000000001},
      {0xa79134bc19cb021b, 6.3960000000000004e-05},
      {0x85a473ddfffe71e1, 6.7520000000000004e-05},
      {0x23b92ddad005e72f, 0.00012192},
      {0x877225c22e85c3d9, 6.0840000000000007e-05},
  };
  const std::vector<FuzzCase> corpus =
      fuzz_corpus(20260807, std::size(frozen));
  for (size_t i = 0; i < corpus.size(); ++i) {
    const FuzzCase& c = corpus[i];
    SCOPED_TRACE("sample=" + std::to_string(i) + " " + c.label());
    std::vector<Tensor> buffers =
        random_buffers(c.nodes * c.gpus, c.elems, c.data_seed);
    const double finish = run_case(c, spans_of(buffers));
    const uint64_t actual = digest(buffers);
    EXPECT_EQ(actual, frozen[i].digest) << "FROZEN digest 0x" << std::hex
                                        << actual;
    EXPECT_DOUBLE_EQ(finish, frozen[i].finish)
        << "FROZEN clock " << std::setprecision(17) << finish;
    EXPECT_DOUBLE_EQ(run_case(c, {}), frozen[i].finish);
  }
}

TEST(WireFuzz, QuantizedRoundingErrorWithinPerHopBound) {
  // Against the exact fp64 sum: every element of every rank is within H
  // codec roundings of it.  H counts the roundings one element can collect:
  // p - 1 reduction edges (ring chain, tree edges, or intra chain plus
  // leader ring), then one rounded delivery of the final sum — two for the
  // hierarchical path, whose leader gather and intra-node broadcast encode
  // the value over different shard ranges.  One rounding moves a value of
  // magnitude <= M by at most 2^-11 M (+2^-25 subnormal spacing) on fp16
  // and by at most M/127 on int8 (power-of-two scale over the shard's max,
  // bounded by the buffer-wide M), where M bounds |partial sum| by
  // sum_r |x_r| plus the error already collected.  fp32 adds contribute
  // p * 2^-24 M on top.
  for (const FuzzCase& c : env_corpus()) {
    SCOPED_TRACE(c.label());
    const int p = c.nodes * c.gpus;
    const std::vector<Tensor> inputs = random_buffers(p, c.elems, c.data_seed);
    std::vector<Tensor> buffers = inputs;
    run_case(c, spans_of(buffers));

    const double hops = p + (c.kind == 2 ? 1 : 0);
    std::vector<double> exact(c.elems, 0.0), abs_sum(c.elems, 0.0);
    double abs_max = 0.0;
    for (const Tensor& x : inputs) {
      for (size_t e = 0; e < c.elems; ++e) {
        exact[e] += x[e];
        abs_sum[e] += std::fabs(x[e]);
      }
    }
    for (const double s : abs_sum) abs_max = std::max(abs_max, s);
    const bool fp16 = c.wire == WireDtype::kFp16;
    const double u = fp16 ? std::ldexp(1.0, -11) : 1.0 / 127.0;
    const double growth = 1.0 + hops * u;  // partials exceed sum|x| by <= this
    for (int r = 0; r < p; ++r) {
      for (size_t e = 0; e < c.elems; ++e) {
        const double m = abs_sum[e] * growth;
        const double per_hop =
            fp16 ? u * m + std::ldexp(1.0, -25) : u * abs_max * growth;
        const double bound = hops * per_hop + p * std::ldexp(m, -24);
        ASSERT_LE(std::fabs(buffers[static_cast<size_t>(r)][e] - exact[e]),
                  bound)
            << "rank " << r << " elem " << e;
      }
    }
  }
}

TEST(WireFuzz, QuantizedThreadCountDeterminism) {
  // The data pass partitions buckets over the pool; the result must not
  // depend on how many workers run them.
  const int saved = parallel_threads();
  for (const FuzzCase& c : env_corpus()) {
    SCOPED_TRACE(c.label());
    std::vector<Tensor> serial =
        random_buffers(c.nodes * c.gpus, c.elems, c.data_seed);
    std::vector<Tensor> pooled = serial;
    set_parallel_threads(1);
    const double t_serial = run_case(c, spans_of(serial));
    set_parallel_threads(4);
    const double t_pooled = run_case(c, spans_of(pooled));
    EXPECT_EQ(t_serial, t_pooled);
    expect_bitwise_equal(serial, pooled);
  }
  set_parallel_threads(saved);
}

}  // namespace
}  // namespace hitopk

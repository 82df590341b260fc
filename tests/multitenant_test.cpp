// Multi-tenant conformance suite: the per-flow reservation API, cross-job
// processor sharing, per-job accounting, gang placement policies, the job
// scheduler event loop, FaultPlan interplay, the contention-aware planner
// entry point, and the Poisson trace-replay harness.
//
// The two contracts everything here leans on:
//
//   backward compatibility — a single job on an idle cluster takes the
//     exact single-tenant arithmetic path: any job id reproduces the
//     default job's clocks bit for bit;
//   processor sharing — flows of different jobs overlapping on a NIC
//     split its rate: with matched per-flow and aggregate rates, two jobs
//     alternating transfers through one NIC finish their n-th transfers at
//     exactly (2n-1)*T and 2n*T (each job ~2x its isolated pace).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "collectives/planner.h"
#include "core/check.h"
#include "core/rng.h"
#include "simnet/cluster.h"
#include "simnet/fault.h"
#include "simnet/job_scheduler.h"
#include "train/tenant.h"

namespace hitopk::simnet {
namespace {

Topology tiny() {
  return Topology(2, 2, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

// 4 nodes x 4 GPUs in two 2-node pods over a 2:1 oversubscribed tree.
Topology podded() {
  return Topology(4, 4, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8},
                  /*nic_beta=*/0.0, /*oversubscription=*/2.0,
                  /*nodes_per_pod=*/2);
}

// ------------------------------------------------- single-tenant identity

TEST(FlowApi, JobIdInvariantOnIdleCluster) {
  // A lone tenant's clocks must not depend on its job id: job 7 on a fresh
  // cluster replays the default-job arithmetic exactly.
  Cluster a(tiny());
  Cluster b(tiny());
  const std::vector<Flow> flows = {
      {kDefaultJob, 0, 2, 4096, 0.0, 0.0}, {kDefaultJob, 2, 0, 512, 0.0, 0.0},
      {kDefaultJob, 0, 1, 100, 1e-5, 0.0}, {kDefaultJob, 1, 3, 2048, 0.0, 1e-6},
      {kDefaultJob, 3, 2, 4096, 2e-4, 0.0},
  };
  for (const Flow& f : flows) {
    Flow tagged = f;
    tagged.job = 7;
    const FlowOutcome oa = a.submit(f);
    const FlowOutcome ob = b.submit(tagged);
    EXPECT_EQ(oa.time, ob.time);
    EXPECT_EQ(oa.start, ob.start);
    EXPECT_EQ(oa.share, ob.share);
  }
  EXPECT_EQ(a.quiescent_time(), b.quiescent_time());
}

// ------------------------------------------------- processor sharing

TEST(ProcessorSharing, TwoJobsAlternatingOneNicExactTwoX) {
  // Matched per-flow and aggregate NIC rates, zero latency: one flow of B
  // bytes takes T = beta*B alone.  Jobs 1 and 2 send disjoint GPU pairs
  // across the same node pair, alternating, each flow ready when the job's
  // previous flow finished.  The reservation algebra gives exactly
  //   job1: T, 3T, 5T     job2: 2T, 4T, 6T
  // (each job's n-th flow at ~2x its isolated pace nT, the
  // processor-sharing invariant; the first submission is the unstretched
  // first-comer).
  const double beta = 1e-8;
  const size_t bytes = 1 << 20;
  const double T = beta * static_cast<double>(bytes);
  Topology topo(2, 2, LinkParams{1e-6, 1e-9}, LinkParams{0.0, beta});
  Cluster cluster(topo);

  double a = 0.0, b = 0.0;
  FlowOutcome oa, ob;
  for (int n = 1; n <= 3; ++n) {
    oa = cluster.submit({1, 0, 2, bytes, a, 0.0});
    a = oa.time;
    ob = cluster.submit({2, 1, 3, bytes, b, 0.0});
    b = ob.time;
    EXPECT_DOUBLE_EQ(a, (2.0 * n - 1.0) * T) << "job1 flow " << n;
    EXPECT_DOUBLE_EQ(b, 2.0 * n * T) << "job2 flow " << n;
  }
  EXPECT_DOUBLE_EQ(oa.share, 2.0);
  EXPECT_DOUBLE_EQ(ob.share, 2.0);

  // Isolated reference: the same three flows alone finish at 3T — the
  // shared run is within [1.67x, 2x] of isolated, converging to 2x.
  Cluster alone(topo);
  double iso = 0.0;
  for (int n = 0; n < 3; ++n) iso = alone.submit({1, 0, 2, bytes, iso}).time;
  EXPECT_DOUBLE_EQ(iso, 3.0 * T);
  EXPECT_NEAR(a / iso, 2.0, 0.35);
  EXPECT_NEAR(b / iso, 2.0, 0.01);
}

TEST(ProcessorSharing, ThreeJobsShareAtOneThird) {
  const double beta = 1e-8;
  const size_t bytes = 1 << 20;
  const double T = beta * static_cast<double>(bytes);
  Topology topo(2, 3, LinkParams{1e-6, 1e-9}, LinkParams{0.0, beta});
  Cluster cluster(topo);
  // Jobs 1..3 each start one flow at t=0 over disjoint GPU pairs; the
  // second and third see 1 and 2 earlier reservations respectively.
  EXPECT_DOUBLE_EQ(cluster.submit({1, 0, 3, bytes, 0.0}).time, T);
  EXPECT_DOUBLE_EQ(cluster.submit({2, 1, 4, bytes, 0.0}).time, 2.0 * T);
  const FlowOutcome third = cluster.submit({3, 2, 5, bytes, 0.0});
  EXPECT_DOUBLE_EQ(third.share, 3.0);
  EXPECT_DOUBLE_EQ(third.time, 3.0 * T);
}

TEST(ProcessorSharing, IntraNodeFlowsNeverShare) {
  // NVLink peer ports are tenant-exclusive per rank; two jobs moving data
  // inside a node see no share factor.
  Cluster cluster(tiny());
  const FlowOutcome a = cluster.submit({1, 0, 1, 1 << 20, 0.0});
  const FlowOutcome b = cluster.submit({2, 1, 0, 1 << 20, 0.0});
  EXPECT_DOUBLE_EQ(a.share, 1.0);
  EXPECT_DOUBLE_EQ(b.share, 1.0);
  EXPECT_FALSE(a.inter_node);
}

// ------------------------------------------------- per-job accounting

TEST(Accounting, PerJobBytesSumToTotals) {
  Cluster cluster(tiny());
  cluster.submit({1, 0, 2, 1000, 0.0});  // inter
  cluster.submit({1, 0, 1, 500, 0.0});   // intra
  cluster.submit({2, 1, 3, 300, 0.0});   // inter
  cluster.submit({kDefaultJob, 2, 3, 50, 0.0});  // intra, default lane
  EXPECT_EQ(cluster.inter_node_bytes(), 1300u);
  EXPECT_EQ(cluster.intra_node_bytes(), 550u);
  EXPECT_EQ(cluster.inter_node_bytes(1), 1000u);
  EXPECT_EQ(cluster.intra_node_bytes(1), 500u);
  EXPECT_EQ(cluster.inter_node_bytes(2), 300u);
  EXPECT_EQ(cluster.inter_node_bytes(kDefaultJob), 0u);
  EXPECT_EQ(cluster.intra_node_bytes(kDefaultJob), 50u);
  EXPECT_EQ(cluster.traffic_jobs(), (std::vector<int>{0, 1, 2}));

  size_t inter_sum = 0, intra_sum = 0;
  for (int job : cluster.traffic_jobs()) {
    inter_sum += cluster.inter_node_bytes(job);
    intra_sum += cluster.intra_node_bytes(job);
  }
  EXPECT_EQ(inter_sum, cluster.inter_node_bytes());
  EXPECT_EQ(intra_sum, cluster.intra_node_bytes());
}

TEST(Accounting, ChromeTraceGetsPerJobTracks) {
  Cluster cluster(tiny());
  cluster.enable_tracing();
  cluster.submit({1, 0, 2, 1000, 0.0});
  cluster.submit({2, 1, 3, 2000, 0.0});
  std::ostringstream os;
  cluster.write_chrome_trace(os, "mt");
  const std::string json = os.str();
  EXPECT_NE(json.find("mt/job1"), std::string::npos);
  EXPECT_NE(json.find("mt/job2"), std::string::npos);
  EXPECT_NE(json.find("\"share\""), std::string::npos);
  // Balanced braces/brackets (same check as the tracing test).
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // Single-tenant traces keep the original one-process layout.
  Cluster solo(tiny());
  solo.enable_tracing();
  solo.submit({kDefaultJob, 0, 2, 1000, 0.0});
  std::ostringstream os2;
  solo.write_chrome_trace(os2, "mt");
  EXPECT_EQ(os2.str().find("/job"), std::string::npos);
}

// ------------------------------------------------- port history retirement

// Brute-force reference for PortTimeline::sharers: every reservation ever
// made, never merged and never forgotten.
struct TimelineOracle {
  struct Reservation {
    int job;
    double begin;
    double end;
  };
  std::vector<Reservation> all;

  int sharers(int job, double begin, double end) const {
    std::set<int> jobs;
    for (const Reservation& r : all) {
      if (r.job != job && r.begin < end && begin < r.end) jobs.insert(r.job);
    }
    return static_cast<int>(jobs.size());
  }
};

TEST(PortTimelineRetirement, SeventyDisjointReservationsKeepTheFirst) {
  // A per-lane interval cap would drop job 1's oldest reservation [0, 0.5)
  // and miss the overlap; the timeline keeps every interval until a
  // watermark retires it.
  PortTimeline port;
  for (int i = 0; i < 70; ++i) port.reserve(1, i, i + 0.5);
  EXPECT_EQ(port.sharers(2, 0.25, 0.75), 1);
}

TEST(PortTimelineRetirement, RandomReservationsMatchBruteForceOracle) {
  // Random reservations by several jobs on a quarter-second grid (so
  // back-to-back merges and windows starting exactly at the watermark are
  // common) under a rising watermark.  Every query window starting at or
  // after the watermark must see exactly what the full history shows.
  constexpr int kJobs = 6;
  constexpr double kQ = 0.25;
  Rng rng(20261017);
  PortTimeline port;
  TimelineOracle oracle;
  std::vector<double> clock(kJobs, 0.0);  // each job's own free-at clock
  double watermark = 0.0;
  int queries = 0;
  size_t max_lanes = 0;
  size_t min_lanes_after_retire = kJobs;
  for (int step = 0; step < 4000; ++step) {
    const int job = static_cast<int>(rng.uniform_index(kJobs));
    const double u = rng.uniform();
    if (u < 0.5) {
      const double begin = std::max(clock[job], watermark) +
                           kQ * static_cast<double>(rng.uniform_index(3));
      const double end =
          begin + kQ * static_cast<double>(1 + rng.uniform_index(8));
      port.reserve(job, begin, end);
      oracle.all.push_back({job, begin, end});
      clock[job] = end;
      max_lanes = std::max(max_lanes, port.lanes());
    } else if (u < 0.6) {
      watermark += kQ * static_cast<double>(rng.uniform_index(9));
      const double quiescent = port.max_free();
      port.retire_before(watermark);
      EXPECT_EQ(port.max_free(), quiescent) << "step " << step;
      min_lanes_after_retire = std::min(min_lanes_after_retire, port.lanes());
    } else {
      const double begin =
          watermark + kQ * static_cast<double>(rng.uniform_index(17));
      const double end =
          begin + kQ * static_cast<double>(1 + rng.uniform_index(8));
      ASSERT_EQ(port.sharers(job, begin, end),
                oracle.sharers(job, begin, end))
          << "step " << step << " job " << job << " [" << begin << ", "
          << end << ") watermark " << watermark;
      // A retired clock is <= the watermark, so a later start (>= the
      // watermark) sees the same bound.
      EXPECT_EQ(std::max(watermark, port.free_at(job)),
                std::max(watermark, clock[job]));
      ++queries;
    }
  }
  EXPECT_GT(queries, 1000);
  // Retirement took effect: some watermark emptied lanes out.
  EXPECT_EQ(max_lanes, static_cast<size_t>(kJobs));
  EXPECT_LT(min_lanes_after_retire, static_cast<size_t>(kJobs));
  // Retiring at the last clock drops every lane; quiescence remembers it.
  const double quiescent = port.max_free();
  EXPECT_EQ(quiescent, *std::max_element(clock.begin(), clock.end()));
  port.retire_before(quiescent);
  EXPECT_EQ(port.lanes(), 0u);
  EXPECT_EQ(port.max_free(), quiescent);
}

TEST(ClusterRetirement, RetiredClusterMatchesFullHistory) {
  // Two clusters take the same multi-job flow sequence on an
  // oversubscribed pod fabric; one retires at a rising watermark that
  // never passes the next flow's ready time.  Every outcome matches the
  // cluster that keeps its full history, bit for bit.
  Cluster full(podded());
  Cluster retired(podded());
  Rng rng(7);
  double ready = 0.0;
  int shared_flows = 0;
  for (int i = 0; i < 3000; ++i) {
    ready += 2e-5 * rng.uniform();
    if (i % 7 == 0) retired.retire_before(ready);
    Flow flow;
    flow.job = 1 + static_cast<int>(rng.uniform_index(5));
    flow.src = static_cast<int>(rng.uniform_index(16));
    flow.dst = static_cast<int>(rng.uniform_index(15));
    if (flow.dst >= flow.src) ++flow.dst;
    flow.bytes = 1024 * (1 + rng.uniform_index(256));
    flow.ready = ready;
    const FlowOutcome a = full.submit(flow);
    const FlowOutcome b = retired.submit(flow);
    ASSERT_EQ(a.start, b.start) << "flow " << i;
    ASSERT_EQ(a.time, b.time) << "flow " << i;
    ASSERT_EQ(a.share, b.share) << "flow " << i;
    if (a.share > 1.0) ++shared_flows;
  }
  EXPECT_GT(shared_flows, 100);  // the fabric really was contended
  EXPECT_EQ(full.quiescent_time(), retired.quiescent_time());
}

TEST(ClusterRetirement, QuiescenceSurvivesAndWatermarkIsEnforced) {
  Cluster cluster(podded());
  cluster.submit({1, 0, 4, 1 << 20, 0.0});
  cluster.submit({2, 8, 12, 1 << 22, 0.0});
  const double quiescent = cluster.quiescent_time();
  ASSERT_GT(quiescent, 0.0);
  // Retiring past every reservation drops every lane, but quiescence
  // remembers the largest retired clock.
  cluster.retire_before(quiescent * 0.5);
  EXPECT_EQ(cluster.quiescent_time(), quiescent);
  cluster.retire_before(quiescent + 1.0);
  EXPECT_EQ(cluster.quiescent_time(), quiescent);
  // The watermark only rises, and flows may not start before it.
  cluster.retire_before(0.0);
  EXPECT_THROW(cluster.submit({1, 0, 4, 1024, quiescent}), CheckError);
  EXPECT_NO_THROW(cluster.submit({1, 0, 4, 1024, quiescent + 1.0}));
  // reset() forgets the watermark with the rest of the history.
  cluster.reset();
  EXPECT_EQ(cluster.quiescent_time(), 0.0);
  EXPECT_NO_THROW(cluster.submit({1, 0, 4, 1024, 0.0}));
}

// ------------------------------------------------- placement policies

// Occupancy of a world with every GPU free.
std::vector<char> all_free(const Topology& topo) {
  return std::vector<char>(static_cast<size_t>(topo.world_size()), 0);
}

TEST(Placement, LocalityAwarePrefersOneNodeThenOnePod) {
  const Topology topo = podded();
  const PlacementPolicy policy = PlacementPolicy::kLocalityAware;
  const std::vector<int> gang4 = place_gang(topo, policy, all_free(topo), 4);
  ASSERT_EQ(gang4.size(), 4u);
  for (int r : gang4) EXPECT_TRUE(topo.same_node(gang4[0], r));
  const std::vector<int> gang8 = place_gang(topo, policy, all_free(topo), 8);
  ASSERT_EQ(gang8.size(), 8u);
  for (int r : gang8) {
    EXPECT_TRUE(topo.same_pod(topo.node_of(gang8[0]), topo.node_of(r)));
  }
}

TEST(Placement, SpreadMaximizesNodeFanout) {
  const Topology topo = podded();
  const std::vector<int> gang4 =
      place_gang(topo, PlacementPolicy::kSpread, all_free(topo), 4);
  ASSERT_EQ(gang4.size(), 4u);
  for (size_t i = 0; i < gang4.size(); ++i) {
    for (size_t j = i + 1; j < gang4.size(); ++j) {
      EXPECT_FALSE(topo.same_node(gang4[i], gang4[j]));
    }
  }
}

TEST(Placement, PackByPodStaysInsideOnePod) {
  const Topology topo = podded();
  const std::vector<int> gang8 =
      place_gang(topo, PlacementPolicy::kPackByPod, all_free(topo), 8);
  ASSERT_EQ(gang8.size(), 8u);
  for (int r : gang8) {
    EXPECT_TRUE(topo.same_pod(topo.node_of(gang8[0]), topo.node_of(r)));
  }
}

TEST(Placement, ReturnsEmptyWhenFullAndThrowsWhenImpossible) {
  const Topology topo = tiny();
  const PlacementPolicy policy = PlacementPolicy::kPackByPod;
  EXPECT_EQ(place_gang(topo, policy, all_free(topo), 4).size(), 4u);
  const std::vector<char> full(4, 1);
  EXPECT_TRUE(place_gang(topo, policy, full, 1).empty());
  EXPECT_THROW(place_gang(topo, policy, all_free(topo), 5), CheckError);
  // The scheduler rejects such a gang up front instead of queueing it.
  Cluster cluster(topo);
  const JobBody body = [](Cluster&, const JobSpec&, const std::vector<int>&,
                          double start) { return JobIteration{start, false}; };
  EXPECT_THROW(JobScheduler(cluster, {}).run({{1, 0.0, 5, 1, 0, 0.0}}, body),
               CheckError);
}

TEST(Placement, GangFitsExactlyWhenEnoughGpusAreFree) {
  // The scheduler admits on the free-GPU count alone, which is sound only
  // if every policy places a gang exactly when enough GPUs are free.
  const Topology topos[] = {
      tiny(), podded(),
      Topology({8, 8, 4, 4, 2}, LinkParams{1e-6, 1e-9},
               LinkParams{1e-5, 1e-8}, 0.0, 2.0, /*nodes_per_pod=*/2)};
  const PlacementPolicy policies[] = {PlacementPolicy::kPackByPod,
                                      PlacementPolicy::kSpread,
                                      PlacementPolicy::kLocalityAware};
  Rng rng(424242);
  for (const Topology& topo : topos) {
    const int world = topo.world_size();
    for (int trial = 0; trial < 40; ++trial) {
      const double p_busy = rng.uniform();
      std::vector<char> busy(static_cast<size_t>(world));
      int free = 0;
      for (char& b : busy) {
        b = rng.uniform() < p_busy ? 1 : 0;
        free += b == 0 ? 1 : 0;
      }
      for (const PlacementPolicy policy : policies) {
        for (int g = 1; g <= world; ++g) {
          const std::vector<int> gang = place_gang(topo, policy, busy, g);
          ASSERT_EQ(gang.empty(), free < g)
              << placement_policy_name(policy) << " g=" << g
              << " free=" << free << " world=" << world;
          if (gang.empty()) continue;
          ASSERT_EQ(gang.size(), static_cast<size_t>(g));
          EXPECT_TRUE(std::is_sorted(gang.begin(), gang.end()));
          EXPECT_EQ(std::adjacent_find(gang.begin(), gang.end()), gang.end());
          for (int r : gang) EXPECT_FALSE(busy[static_cast<size_t>(r)]);
        }
      }
    }
  }
}

// ------------------------------------------------- scheduler event loop

JobBody unit_iteration_body() {
  // One second per iteration, no flows — isolates the queueing logic.
  return [](Cluster&, const JobSpec&, const std::vector<int>&, double start) {
    return JobIteration{start + 1.0, false};
  };
}

TEST(Scheduler, SerializesFullWorldGangs) {
  Cluster cluster(tiny());
  JobScheduler sched(cluster, {});
  std::vector<JobSpec> jobs(2);
  jobs[0] = {1, 0.0, 4, 2, 0, 0.0};
  jobs[1] = {2, 0.5, 4, 3, 0, 0.0};
  const auto records = sched.run(jobs, unit_iteration_body());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].start, 0.0);
  EXPECT_DOUBLE_EQ(records[0].finish, 2.0);
  EXPECT_EQ(records[0].iterations_done, 2);
  // Job 2 queues behind job 1's full-world gang.
  EXPECT_DOUBLE_EQ(records[1].start, 2.0);
  EXPECT_DOUBLE_EQ(records[1].finish, 5.0);
  EXPECT_DOUBLE_EQ(records[1].queued_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(records[1].jct(), 4.5);
}

TEST(Scheduler, BackfillLetsSmallJobsPassBlockedHead) {
  std::vector<JobSpec> jobs(3);
  jobs[0] = {1, 0.0, 2, 2, 0, 0.0};   // half the world, runs [0, 2)
  jobs[1] = {2, 0.1, 4, 1, 0, 0.0};   // full world: blocked until job 1 ends
  jobs[2] = {3, 0.2, 2, 1, 0, 0.0};   // fits beside job 1

  Cluster with(tiny());
  const auto backfilled =
      JobScheduler(with, {PlacementPolicy::kPackByPod, true})
          .run(jobs, unit_iteration_body());
  EXPECT_DOUBLE_EQ(backfilled[2].start, 0.2);   // jumped the blocked head
  EXPECT_DOUBLE_EQ(backfilled[1].start, 2.0);

  Cluster without(tiny());
  const auto fifo = JobScheduler(without, {PlacementPolicy::kPackByPod, false})
                        .run(jobs, unit_iteration_body());
  EXPECT_DOUBLE_EQ(fifo[1].start, 2.0);
  EXPECT_GE(fifo[2].start, fifo[1].start);  // strict FIFO: waits its turn
}

TEST(Scheduler, FaultAbortsOnlyJobsPlacedOnDeadRank) {
  // Rank 3 is preempted from the start.  Two 2-GPU jobs under locality
  // placement land on node 0 (ranks 0,1) and node 1 (ranks 2,3); only the
  // job holding rank 3 aborts, and its gang frees for the next arrival.
  FaultPlan plan;
  plan.preempt(3, 0.0);
  Cluster cluster(tiny());
  cluster.set_fault_plan(&plan);
  JobScheduler sched(cluster, {PlacementPolicy::kLocalityAware, true});

  const JobBody body = [](Cluster& c, const JobSpec& spec,
                          const std::vector<int>& ranks, double start) {
    const FlowOutcome out =
        c.submit({spec.id, ranks[0], ranks[1], 1 << 16, start});
    return JobIteration{out.time, !out.delivered};
  };
  std::vector<JobSpec> jobs(3);
  jobs[0] = {1, 0.0, 2, 2, 0, 0.0};
  jobs[1] = {2, 0.0, 2, 2, 0, 0.0};
  jobs[2] = {3, 1.0, 2, 1, 0, 0.0};  // arrives late, reuses a freed gang
  const auto records = sched.run(jobs, body);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(records[0].aborted);
  EXPECT_EQ(records[0].iterations_done, 2);
  EXPECT_TRUE(records[1].aborted);
  EXPECT_EQ(records[1].iterations_done, 0);
  ASSERT_EQ(records[1].ranks.size(), 2u);
  EXPECT_EQ(records[1].ranks[1], 3);
  EXPECT_FALSE(records[2].aborted);
}

// ------------------------------------------------- trace generation/replay

TEST(TraceReplay, GeneratorIsSeedDeterministic) {
  TraceOptions options;
  options.jobs = 40;
  options.seed = 77;
  const auto a = generate_trace(options);
  const auto b = generate_trace(options);
  ASSERT_EQ(a.size(), 40u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].gpus, b[i].gpus);
    EXPECT_EQ(a[i].iterations, b[i].iterations);
    EXPECT_GE(a[i].id, 1);  // tenant ids never alias kDefaultJob
  }
  options.seed = 78;
  const auto c = generate_trace(options);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].arrival != c[i].arrival || a[i].gpus != c[i].gpus;
  }
  EXPECT_TRUE(differs);
}

TEST(TraceReplay, SmokeReplayUnderPinnedSeed) {
  // The CI legs pin HITOPK_FIG12_SEED; this smoke replay follows the same
  // seed so release and sanitizer builds replay one identical trace.
  uint64_t seed = 20260807ull;
  if (const char* env = std::getenv("HITOPK_FIG12_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  TraceOptions options;
  options.jobs = 16;
  options.seed = seed;
  options.gang_sizes = {2, 4, 8};
  options.bytes_per_gpu = 4 << 20;
  options.mean_interarrival_seconds = 0.02;
  const auto trace = generate_trace(options);

  train::TenantWorkload workload;
  workload.resolution = 96;
  const JobBody body = train::make_tenant_body(workload);
  const Topology topo = podded();
  const ReplayMetrics metrics =
      replay_trace(topo, trace, body, PlacementPolicy::kLocalityAware);
  ASSERT_EQ(metrics.records.size(), trace.size());
  EXPECT_GT(metrics.makespan, 0.0);
  EXPECT_GT(metrics.goodput, 0.0);
  EXPECT_GE(metrics.mean_slowdown, 1.0);  // queueing + contention only slow
  EXPECT_GE(metrics.p99_jct, metrics.p95_jct);
  EXPECT_GE(metrics.p95_jct, metrics.p50_jct);
  for (const JobRecord& rec : metrics.records) {
    EXPECT_FALSE(rec.aborted);
    EXPECT_EQ(rec.iterations_done, rec.spec.iterations);
    EXPECT_GT(rec.spec.isolated_seconds, 0.0);
    EXPECT_GE(rec.jct(), 0.0);
  }

  // Same trace, same policy: the replay itself is deterministic.
  const ReplayMetrics again =
      replay_trace(topo, trace, body, PlacementPolicy::kLocalityAware);
  EXPECT_EQ(metrics.makespan, again.makespan);
  EXPECT_EQ(metrics.mean_slowdown, again.mean_slowdown);
  EXPECT_EQ(metrics.p99_jct, again.p99_jct);
}

// ------------------------------------------------- contention-aware planner

TEST(LivePlanner, IdleClusterPinnedToTopologyWinners) {
  const Topology topo = podded();
  coll::Planner by_topo;
  coll::Planner by_cluster;
  const coll::PlanChoice a = by_topo.plan(topo, 1 << 18);
  Cluster idle(topo);
  const coll::PlanChoice b = by_cluster.plan(idle, 1 << 18);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.ring_order, b.ring_order);
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
  EXPECT_EQ(a.flat_ring_seconds, b.flat_ring_seconds);
  // The delegated call populates the same cache as the topology path.
  const coll::PlanChoice c = by_cluster.plan(idle, 1 << 18);
  EXPECT_TRUE(c.cache_hit);
}

TEST(LivePlanner, LoadSlowsTheRingAndNeverLosesToIt) {
  const Topology topo = podded();
  coll::Planner planner;
  const coll::PlanChoice idle = planner.plan(topo, 1 << 18);

  Cluster loaded(topo);
  // A background tenant holds long reservations on every NIC lane.
  for (int node = 0; node + 1 < topo.nodes(); ++node) {
    loaded.submit({1, topo.rank_of(node, 0), topo.rank_of(node + 1, 0),
                   32 << 20, 0.0});
  }
  const coll::PlanChoice live =
      planner.plan(loaded, 1 << 18, 1.0, /*job=*/2, /*start=*/0.0);
  EXPECT_FALSE(live.cache_hit);
  EXPECT_LE(live.predicted_seconds, live.flat_ring_seconds);
  EXPECT_GE(live.flat_ring_seconds, idle.flat_ring_seconds);
  // Scoring is what-if only: the live cluster's state is untouched, so a
  // fresh idle plan from the same planner still matches the pinned one.
  EXPECT_EQ(planner.plan(topo, 1 << 18).predicted_seconds,
            idle.predicted_seconds);
}

}  // namespace
}  // namespace hitopk::simnet

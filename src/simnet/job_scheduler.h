// Multi-tenant gang scheduler over a shared Cluster.
//
// The paper's setting is a public cloud cluster: many independent training
// jobs arrive over time, each needs a *gang* of GPUs for its whole lifetime
// (synchronous data-parallel training cannot run on a partial allocation),
// and they contend for the shared NIC/uplink/core fabric that the Cluster's
// reservation timelines model (see cluster.h).  This is the operating model
// of IBM's Deep Learning Service and the motivation for placement-aware
// bandwidth partitioning in MiCS (see PAPERS.md).
//
// The scheduler is an event-driven simulation in one OS thread:
//
//   - Jobs arrive at scripted instants (JobSpec::arrival) and queue FIFO.
//   - Admission scans the queue in arrival order whenever GPUs free up; a
//     job fits exactly when enough GPUs are free (see place_gang).  With
//     backfill enabled (default) a later job that fits may jump a blocked
//     head-of-line job, otherwise admission is strict FIFO.
//   - Placement maps a job to a concrete rank set via one of three gang
//     policies (kPackByPod / kSpread / kLocalityAware, below).
//   - Running jobs advance ONE training iteration per event, cheapest-clock
//     first (ties break on job id).  Interleaving iterations of concurrent
//     jobs is what makes their flows overlap on the port timelines, so
//     cross-job contention emerges from the Cluster model rather than being
//     assumed here.
//
// The actual per-iteration work is a caller-supplied JobBody callback, so
// simnet stays independent of the collectives layer; train/scenario.h
// provides a body that runs a real ring All-Reduce schedule plus a
// PerfModel compute phase (see make_tenant_body).
//
// Everything is deterministic: scripted arrivals, ordered tie-breaks, and
// an explicitly seeded Rng for the Poisson trace generator.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simnet/cluster.h"

namespace hitopk::simnet {

// Gang placement policies.
//
//   kPackByPod      — best-fit: prefer the pod, then the node, with the
//                     least free capacity that still fits the job.  Keeps
//                     jobs dense so big arrivals find contiguous room, at
//                     the price of stacking tenants onto the same uplinks.
//   kSpread         — round-robin one GPU at a time across the nodes with
//                     the most free GPUs.  Maximizes per-job NIC count
//                     (each rank gets its own NIC share) but forces almost
//                     all traffic inter-node.
//   kLocalityAware  — smallest single node that fits, else smallest single
//                     pod that fits, else fall back to pack-by-pod.  The
//                     paper's hierarchy argument applied to placement:
//                     NVLink first, one uplink domain second.
enum class PlacementPolicy : uint8_t { kPackByPod, kSpread, kLocalityAware };

const char* placement_policy_name(PlacementPolicy policy);

// Places a gang of `gpus` on the ranks with busy[rank] == 0 under `policy`
// and returns the rank set, sorted ascending.  The result is empty exactly
// when fewer than `gpus` ranks are free: spread takes one GPU at a time,
// and the other two policies fall back to packing across the whole world.
// Throws CheckError when `gpus` is outside [1, world size].
std::vector<int> place_gang(const Topology& topo, PlacementPolicy policy,
                            const std::vector<char>& busy, int gpus);

// One job of a replay trace.  `isolated_seconds`, when > 0, is the job's
// runtime on an otherwise-idle cluster (filled in by replay_trace for
// slowdown reporting); generators may leave it 0.
struct JobSpec {
  int id = 0;
  double arrival = 0.0;
  int gpus = 1;           // gang size (whole allocation or nothing)
  int iterations = 1;     // training iterations to run
  size_t bytes = 0;       // gradient payload per iteration (body-defined)
  double isolated_seconds = 0.0;
};

// What a JobBody reports back for one iteration.
struct JobIteration {
  double finish = 0.0;   // cluster time the iteration completed
  bool aborted = false;  // a fault killed the job (scheduler frees its gang)
};

// Runs one training iteration of `spec` on `ranks` starting at `start`,
// submitting flows under job id spec.id.  Must be deterministic.
using JobBody = std::function<JobIteration(
    Cluster& cluster, const JobSpec& spec, const std::vector<int>& ranks,
    double start)>;

// Per-job outcome of a scheduler run.
struct JobRecord {
  JobSpec spec;
  std::vector<int> ranks;     // the placed gang (empty if never admitted)
  double start = 0.0;         // admission instant
  double finish = 0.0;        // last iteration (or abort) instant
  int iterations_done = 0;
  bool aborted = false;
  double queued_seconds() const { return start - spec.arrival; }
  double jct() const { return finish - spec.arrival; }
  double slowdown() const {
    return spec.isolated_seconds > 0.0 ? jct() / spec.isolated_seconds : 0.0;
  }
};

struct JobSchedulerOptions {
  PlacementPolicy policy = PlacementPolicy::kPackByPod;
  // Allow a queued job to be admitted ahead of a blocked earlier one.
  bool backfill = true;
};

class JobScheduler {
 public:
  JobScheduler(Cluster& cluster, JobSchedulerOptions options = {});

  // Runs every job to completion (or abort) and returns one record per
  // job, in job-id order.  Jobs need not arrive sorted.  Before each
  // iteration it retires the cluster's port history at the clock of the
  // job it advances (Cluster::retire_before), so flows scan only live
  // jobs; reset() the cluster before running a trace that starts earlier.
  std::vector<JobRecord> run(const std::vector<JobSpec>& jobs,
                             const JobBody& body);

 private:
  struct Running {
    size_t job = 0;        // index into records_
    double clock = 0.0;    // finish time of the job's last iteration
    int remaining = 0;     // iterations left
  };

  void admit_from_queue(double now);

  Cluster& cluster_;
  JobSchedulerOptions options_;
  std::vector<char> busy_;          // per world rank
  std::vector<JobRecord> records_;
  std::vector<Running> running_;
  std::vector<size_t> queue_;       // record indices, arrival order
};

// ---- trace generation & replay --------------------------------------------

// Poisson-arrival mixed-size workload generator.  Fully determined by the
// seed: gang sizes draw from `gang_sizes` with `gang_weights` (uniform when
// weights are empty), iteration counts uniform in [min_iterations,
// max_iterations], inter-arrival gaps exponential with mean
// `mean_interarrival_seconds`.  Throws ConfigError for negative jobs, a
// negative or non-finite mean gap, no gang sizes or a non-positive one,
// weights that do not match the sizes or are negative, and an empty
// iteration range.
struct TraceOptions {
  int jobs = 120;
  double mean_interarrival_seconds = 0.05;
  uint64_t seed = 1;
  std::vector<int> gang_sizes = {4, 8, 16, 32};
  std::vector<double> gang_weights = {};  // empty = uniform
  int min_iterations = 2;
  int max_iterations = 6;
  size_t bytes_per_gpu = 100 << 20;  // gradient payload per iteration
};

std::vector<JobSpec> generate_trace(const TraceOptions& options);

// Aggregate metrics of one replay (see bench_fig12_multitenant).
struct ReplayMetrics {
  double makespan = 0.0;        // last finish - first arrival
  double goodput = 0.0;         // sum(isolated) / makespan (jobs "worth" run)
  double mean_slowdown = 0.0;   // mean over completed jobs
  double p50_jct = 0.0;
  double p95_jct = 0.0;
  double p99_jct = 0.0;
  std::vector<JobRecord> records;
};

// Replays `jobs` on a fresh clone of `topology` under `policy`, then runs
// each job alone on another fresh cluster to fill isolated_seconds, and
// reports per-job slowdown plus cluster-level metrics.  Deterministic.
ReplayMetrics replay_trace(const Topology& topology,
                           const std::vector<JobSpec>& jobs,
                           const JobBody& body, PlacementPolicy policy,
                           bool backfill = true);

}  // namespace hitopk::simnet

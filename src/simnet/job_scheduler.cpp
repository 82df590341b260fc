#include "simnet/job_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "core/rng.h"

namespace hitopk::simnet {

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kPackByPod:
      return "pack-by-pod";
    case PlacementPolicy::kSpread:
      return "spread";
    case PlacementPolicy::kLocalityAware:
      return "locality-aware";
  }
  return "?";
}

JobScheduler::JobScheduler(Cluster& cluster, JobSchedulerOptions options)
    : cluster_(cluster),
      options_(options),
      busy_(static_cast<size_t>(cluster.world_size()), 0) {}

namespace {

int free_on_node(const Topology& topo, const std::vector<char>& busy,
                 int node) {
  int free = 0;
  for (int local = 0; local < topo.gpus_on_node(node); ++local) {
    if (!busy[static_cast<size_t>(topo.rank_of(node, local))]) ++free;
  }
  return free;
}

// Takes up to `want` free ranks from `node` (lowest local rank first),
// marking them busy so repeated takes from one node within a single
// placement never hand out the same rank twice.
int take_from_node(const Topology& topo, std::vector<char>& busy, int node,
                   int want, std::vector<int>& out) {
  int taken = 0;
  for (int local = 0; local < topo.gpus_on_node(node) && taken < want;
       ++local) {
    const int rank = topo.rank_of(node, local);
    if (!busy[static_cast<size_t>(rank)]) {
      busy[static_cast<size_t>(rank)] = 1;
      out.push_back(rank);
      ++taken;
    }
  }
  return taken;
}

}  // namespace

std::vector<int> place_gang(const Topology& topo, PlacementPolicy policy,
                            const std::vector<char>& busy, int gpus) {
  HITOPK_CHECK(gpus >= 1 && gpus <= topo.world_size())
      << "gang of " << gpus << " GPUs can never fit a world of "
      << topo.world_size();
  HITOPK_CHECK_EQ(busy.size(), static_cast<size_t>(topo.world_size()));

  std::vector<int> node_free(static_cast<size_t>(topo.nodes()));
  int total_free = 0;
  for (int n = 0; n < topo.nodes(); ++n) {
    node_free[static_cast<size_t>(n)] = free_on_node(topo, busy, n);
    total_free += node_free[static_cast<size_t>(n)];
  }
  if (total_free < gpus) return {};

  std::vector<int> ranks;
  ranks.reserve(static_cast<size_t>(gpus));
  // Scratch occupancy: taken ranks are marked here so one placement never
  // hands a rank out twice; the caller's map is updated on admission.
  std::vector<char> scratch = busy;

  // Fills `want` GPUs from the nodes of `pod` (pod < 0: every node),
  // fragments first (best-fit: least free GPUs, ties on node id).
  auto fill_packed = [&](int pod, int want) {
    std::vector<int> order;
    for (int n = 0; n < topo.nodes(); ++n) {
      if (node_free[static_cast<size_t>(n)] > 0 &&
          (pod < 0 || topo.pod_of(n) == pod)) {
        order.push_back(n);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return node_free[static_cast<size_t>(a)] <
             node_free[static_cast<size_t>(b)];
    });
    for (int n : order) {
      if (want == 0) break;
      want -= take_from_node(topo, scratch, n, want, ranks);
    }
  };

  switch (policy) {
    case PlacementPolicy::kSpread: {
      // One GPU at a time from the node with the most free GPUs.
      int want = gpus;
      while (want > 0) {
        int best = -1;
        for (int n = 0; n < topo.nodes(); ++n) {
          if (node_free[static_cast<size_t>(n)] >
              (best < 0 ? 0 : node_free[static_cast<size_t>(best)])) {
            best = n;
          }
        }
        HITOPK_CHECK(best >= 0);
        take_from_node(topo, scratch, best, 1, ranks);
        --node_free[static_cast<size_t>(best)];
        --want;
      }
      break;
    }
    case PlacementPolicy::kLocalityAware: {
      // Smallest single node that fits, else smallest single pod, else pack.
      int best_node = -1;
      for (int n = 0; n < topo.nodes(); ++n) {
        const int free = node_free[static_cast<size_t>(n)];
        if (free >= gpus &&
            (best_node < 0 ||
             free < node_free[static_cast<size_t>(best_node)])) {
          best_node = n;
        }
      }
      if (best_node >= 0) {
        take_from_node(topo, scratch, best_node, gpus, ranks);
        break;
      }
      std::vector<int> pod_free(static_cast<size_t>(topo.pods()), 0);
      for (int n = 0; n < topo.nodes(); ++n) {
        pod_free[static_cast<size_t>(topo.pod_of(n))] +=
            node_free[static_cast<size_t>(n)];
      }
      int best_pod = -1;
      for (int p = 0; p < topo.pods(); ++p) {
        const int free = pod_free[static_cast<size_t>(p)];
        if (free >= gpus &&
            (best_pod < 0 || free < pod_free[static_cast<size_t>(best_pod)])) {
          best_pod = p;
        }
      }
      fill_packed(best_pod, gpus);  // -1 falls through to global packing
      break;
    }
    case PlacementPolicy::kPackByPod: {
      // Best-fit pod (least free capacity that still fits), else span pods.
      std::vector<int> pod_free(static_cast<size_t>(topo.pods()), 0);
      for (int n = 0; n < topo.nodes(); ++n) {
        pod_free[static_cast<size_t>(topo.pod_of(n))] +=
            node_free[static_cast<size_t>(n)];
      }
      int best_pod = -1;
      for (int p = 0; p < topo.pods(); ++p) {
        const int free = pod_free[static_cast<size_t>(p)];
        if (free >= gpus &&
            (best_pod < 0 || free < pod_free[static_cast<size_t>(best_pod)])) {
          best_pod = p;
        }
      }
      fill_packed(best_pod, gpus);
      break;
    }
  }

  HITOPK_CHECK_EQ(ranks.size(), static_cast<size_t>(gpus));
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

void JobScheduler::admit_from_queue(double now) {
  // Every policy places a gang exactly when enough GPUs are free (spread
  // takes one GPU at a time; the others fall back to global packing), so
  // the free count decides admission and placement runs only for admitted
  // jobs.  Kept jobs compact to the front of the queue in arrival order.
  int free = static_cast<int>(std::count(busy_.begin(), busy_.end(), 0));
  bool blocked = false;
  size_t kept = 0;
  for (const size_t job : queue_) {
    JobRecord& rec = records_[job];
    if (blocked || rec.spec.gpus > free) {
      blocked = !options_.backfill;  // strict FIFO: blocked head blocks all
      queue_[kept++] = job;
      continue;
    }
    rec.ranks =
        place_gang(cluster_.topology(), options_.policy, busy_, rec.spec.gpus);
    for (int r : rec.ranks) busy_[static_cast<size_t>(r)] = 1;
    free -= rec.spec.gpus;
    rec.start = now;
    running_.push_back(Running{job, now, rec.spec.iterations});
  }
  queue_.resize(kept);
}

std::vector<JobRecord> JobScheduler::run(const std::vector<JobSpec>& jobs,
                                         const JobBody& body) {
  records_.clear();
  running_.clear();
  queue_.clear();
  std::fill(busy_.begin(), busy_.end(), 0);

  records_.reserve(jobs.size());
  for (const JobSpec& spec : jobs) {
    HITOPK_CHECK(spec.iterations >= 1);
    HITOPK_CHECK(spec.gpus >= 1 && spec.gpus <= cluster_.world_size())
        << "gang of " << spec.gpus << " GPUs can never fit a world of "
        << cluster_.world_size();
    JobRecord rec;
    rec.spec = spec;
    records_.push_back(std::move(rec));
  }
  // Arrival order: time, then job id (deterministic for simultaneous
  // arrivals).
  std::vector<size_t> arrivals(records_.size());
  for (size_t i = 0; i < arrivals.size(); ++i) arrivals[i] = i;
  std::stable_sort(arrivals.begin(), arrivals.end(), [&](size_t a, size_t b) {
    if (records_[a].spec.arrival != records_[b].spec.arrival) {
      return records_[a].spec.arrival < records_[b].spec.arrival;
    }
    return records_[a].spec.id < records_[b].spec.id;
  });

  constexpr double kInf = std::numeric_limits<double>::infinity();
  size_t next_arrival = 0;
  while (next_arrival < arrivals.size() || !running_.empty() ||
         !queue_.empty()) {
    const double arrival_t = next_arrival < arrivals.size()
                                 ? records_[arrivals[next_arrival]].spec.arrival
                                 : kInf;
    size_t run_i = running_.size();
    double run_t = kInf;
    for (size_t i = 0; i < running_.size(); ++i) {
      const Running& r = running_[i];
      if (r.clock < run_t ||
          (r.clock == run_t &&
           records_[r.job].spec.id < records_[running_[run_i].job].spec.id)) {
        run_t = r.clock;
        run_i = i;
      }
    }

    if (arrival_t <= run_t) {
      // Admit the arrival (or queue it) before advancing anyone past it.
      HITOPK_CHECK(next_arrival < arrivals.size())
          << "scheduler deadlock: queued jobs but nothing running";
      queue_.push_back(arrivals[next_arrival]);
      ++next_arrival;
      admit_from_queue(arrival_t);
      continue;
    }

    // Advance the earliest running job by one iteration.  Its clock is a
    // watermark: every running clock is >= run_t, and every arrival still
    // to come (hence every admission) is > run_t, so no later flow is
    // ready before it and the ports may forget the history that ends there.
    cluster_.retire_before(run_t);
    Running& r = running_[run_i];
    JobRecord& rec = records_[r.job];
    const JobIteration it = body(cluster_, rec.spec, rec.ranks, r.clock);
    HITOPK_CHECK(it.finish >= r.clock);
    rec.finish = it.finish;
    if (it.aborted) {
      rec.aborted = true;
    } else {
      ++rec.iterations_done;
      --r.remaining;
      r.clock = it.finish;
    }
    if (it.aborted || r.remaining == 0) {
      for (int rank : rec.ranks) busy_[static_cast<size_t>(rank)] = 0;
      running_.erase(running_.begin() + static_cast<long>(run_i));
      admit_from_queue(it.finish);
    }
  }

  std::vector<JobRecord> out = std::move(records_);
  records_.clear();
  std::sort(out.begin(), out.end(), [](const JobRecord& a, const JobRecord& b) {
    return a.spec.id < b.spec.id;
  });
  return out;
}

// ---- trace generation & replay --------------------------------------------

std::vector<JobSpec> generate_trace(const TraceOptions& options) {
  HITOPK_VALIDATE(options.jobs >= 0) << "jobs" << options.jobs;
  HITOPK_VALIDATE(std::isfinite(options.mean_interarrival_seconds) &&
                  options.mean_interarrival_seconds >= 0.0)
      << "mean_interarrival_seconds" << options.mean_interarrival_seconds;
  HITOPK_VALIDATE(!options.gang_sizes.empty()) << "no gang sizes";
  for (int gpus : options.gang_sizes) {
    HITOPK_VALIDATE(gpus > 0) << "gang size" << gpus;
  }
  HITOPK_VALIDATE(options.gang_weights.empty() ||
                  options.gang_weights.size() == options.gang_sizes.size())
      << options.gang_weights.size() << "gang weights for"
      << options.gang_sizes.size() << "gang sizes";
  for (double w : options.gang_weights) {
    HITOPK_VALIDATE(std::isfinite(w) && w >= 0.0) << "gang weight" << w;
  }
  HITOPK_VALIDATE(options.min_iterations >= 1 &&
                  options.max_iterations >= options.min_iterations)
      << "iterations [" << options.min_iterations << ","
      << options.max_iterations << "]";
  Rng rng(options.seed);
  double total_weight = 0.0;
  for (double w : options.gang_weights) total_weight += w;

  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<size_t>(options.jobs));
  double t = 0.0;
  for (int i = 0; i < options.jobs; ++i) {
    t += -options.mean_interarrival_seconds * std::log(1.0 - rng.uniform());
    JobSpec spec;
    spec.id = i + 1;  // ids >= 1: never alias kDefaultJob
    spec.arrival = t;
    if (options.gang_weights.empty()) {
      spec.gpus = options.gang_sizes[rng.uniform_index(
          options.gang_sizes.size())];
    } else {
      double u = rng.uniform() * total_weight;
      size_t pick = 0;
      while (pick + 1 < options.gang_sizes.size() &&
             u >= options.gang_weights[pick]) {
        u -= options.gang_weights[pick];
        ++pick;
      }
      spec.gpus = options.gang_sizes[pick];
    }
    spec.iterations =
        options.min_iterations +
        static_cast<int>(rng.uniform_index(static_cast<uint64_t>(
            options.max_iterations - options.min_iterations + 1)));
    spec.bytes = options.bytes_per_gpu;
    jobs.push_back(spec);
  }
  return jobs;
}

namespace {

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n)));  // nearest-rank
  if (idx > 0) --idx;
  if (idx >= n) idx = n - 1;
  return sorted[idx];
}

}  // namespace

ReplayMetrics replay_trace(const Topology& topology,
                           const std::vector<JobSpec>& jobs,
                           const JobBody& body, PlacementPolicy policy,
                           bool backfill) {
  // Per-job isolated baseline: the job alone on a fresh cluster, same
  // placement policy (an empty cluster places identically regardless of
  // arrival time).
  std::vector<JobSpec> specs = jobs;
  for (JobSpec& spec : specs) {
    Cluster iso(topology);
    JobScheduler sched(iso, {policy, backfill});
    JobSpec alone = spec;
    alone.arrival = 0.0;
    const std::vector<JobRecord> rec = sched.run({alone}, body);
    HITOPK_CHECK_EQ(rec.size(), size_t{1});
    spec.isolated_seconds = rec[0].finish;
  }

  Cluster shared(topology);
  JobScheduler sched(shared, {policy, backfill});
  ReplayMetrics metrics;
  metrics.records = sched.run(specs, body);

  double first_arrival = std::numeric_limits<double>::infinity();
  double last_finish = 0.0;
  double isolated_sum = 0.0;
  double slowdown_sum = 0.0;
  size_t completed = 0;
  std::vector<double> jcts;
  for (const JobRecord& rec : metrics.records) {
    first_arrival = std::min(first_arrival, rec.spec.arrival);
    last_finish = std::max(last_finish, rec.finish);
    if (rec.aborted) continue;
    ++completed;
    isolated_sum += rec.spec.isolated_seconds;
    slowdown_sum += rec.slowdown();
    jcts.push_back(rec.jct());
  }
  std::sort(jcts.begin(), jcts.end());
  metrics.makespan =
      metrics.records.empty() ? 0.0 : last_finish - first_arrival;
  metrics.goodput =
      metrics.makespan > 0.0 ? isolated_sum / metrics.makespan : 0.0;
  metrics.mean_slowdown =
      completed > 0 ? slowdown_sum / static_cast<double>(completed) : 0.0;
  metrics.p50_jct = percentile(jcts, 0.50);
  metrics.p95_jct = percentile(jcts, 0.95);
  metrics.p99_jct = percentile(jcts, 0.99);
  return metrics;
}

}  // namespace hitopk::simnet

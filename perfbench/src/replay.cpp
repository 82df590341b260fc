// Replay workload: simnet::replay_trace of seeded Poisson traces on the
// fig12 fabric (16x8 Tencent Cloud links, 2:1-oversubscribed 4-node pods)
// with spread placement and the ResNet-50 tenant body — an offline batch
// with every arrival precomputed, on one thread.
//
// Spread placement makes every gang cross nodes, so the multi-tenant port
// sharing path of the simulator carries the work.  A run replays kTraces
// traces generated from its seed (their cost varies trace to trace; several
// per run keep the per-seed mean steady) round-robin until the time budget
// is spent, at least once more than there are traces.  Each replay is set
// up afresh (its trace generated, topology and tenant body built: the timed
// set-up).  Every replay must complete every job, and a trace replayed
// again must reproduce its simulated goodput and p99 JCT exactly.
//
// The "step" of the end-to-end latency metrics is one replay_trace call:
// the wall time to replay one trace, isolated baselines included.
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "simnet/job_scheduler.h"
#include "simnet/topology.h"
#include "spans.h"
#include "train/tenant.h"

namespace perfbench {
namespace {

namespace simnet = hitopk::simnet;

constexpr int kTraces = 20;
constexpr int kJobs = 80;  // per trace

struct Setup {
  size_t trace = 0;  // index of the trace among the run's kTraces
  simnet::Topology topology = simnet::Topology::tencent_cloud(16, 8);
  std::vector<simnet::JobSpec> jobs;
  simnet::JobBody body;
};

// Generation of trace `trace` of the run's seed, plus topology and
// tenant-body construction.
Setup build(uint64_t seed, size_t trace) {
  Setup s;
  s.trace = trace;
  const auto base = simnet::Topology::tencent_cloud(16, 8);
  s.topology = simnet::Topology(16, 8, base.intra(), base.inter(),
                                base.nic_beta(), /*oversubscription=*/2.0,
                                /*nodes_per_pod=*/4);
  simnet::TraceOptions options;
  options.jobs = kJobs;
  options.mean_interarrival_seconds = 0.05;
  options.seed = seed * kTraces + trace;
  options.bytes_per_gpu = size_t{100} << 20;
  s.jobs = simnet::generate_trace(options);
  s.body = hitopk::train::make_tenant_body(hitopk::train::TenantWorkload{});
  return s;
}

struct ReplayOutcome {
  size_t trace = 0;
  double wall_s = 0.0;
  double goodput = 0.0;
  double p99_jct = 0.0;
  std::vector<double> queued_s;  // simulated queue wait per job
  int incomplete = 0;
};

// Replays the trace of `s`; `body` wraps s.body or is s.body itself.
ReplayOutcome replay_once(const Setup& s, const simnet::JobBody& body) {
  ReplayOutcome out;
  out.trace = s.trace;
  const double t0 = now_s();
  const simnet::ReplayMetrics m = simnet::replay_trace(
      s.topology, s.jobs, body, simnet::PlacementPolicy::kSpread);
  out.wall_s = now_s() - t0;
  out.goodput = m.goodput;
  out.p99_jct = m.p99_jct;
  for (const simnet::JobRecord& rec : m.records) {
    out.queued_s.push_back(rec.queued_seconds());
    if (rec.aborted || rec.ranks.empty() ||
        rec.iterations_done != rec.spec.iterations) {
      ++out.incomplete;
    }
  }
  return out;
}

// Jobs per second of replay wall time: every trace's jobs over the sum of
// each trace's median replay time.
double jobs_per_s(const std::vector<ReplayOutcome>& replays, size_t traces) {
  double wall = 0.0;
  for (size_t t = 0; t < traces; ++t) {
    std::vector<double> walls;
    for (const ReplayOutcome& r : replays) {
      if (r.trace == t) walls.push_back(r.wall_s);
    }
    wall += median(walls);
  }
  return static_cast<double>(kJobs) * static_cast<double>(traces) / wall;
}

void check_replays(const std::vector<ReplayOutcome>& replays, const char* what,
                   Result& result) {
  int bad = 0;
  for (const ReplayOutcome& r : replays) {
    const ReplayOutcome& first = replays[r.trace];
    const bool same = r.goodput == first.goodput && r.p99_jct == first.p99_jct;
    result.attempted += kJobs;
    result.failed += same ? r.incomplete : kJobs;
    if (!same || r.incomplete > 0) ++bad;
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %zu replays of %d traces of %d jobs; every job "
                "completes, sim_goodput and sim_p99_jct_s repeat exactly per "
                "trace (%d failed)",
                what, replays.size(), kTraces, kJobs, bad);
  result.check(bad == 0, line);
}

}  // namespace

Result run_replay(const Args& args) {
  Result result;
  constexpr size_t traces = kTraces;

  if (!args.trace) {
    std::vector<ReplayOutcome> replays;
    std::vector<double> walls;
    std::vector<double> setup_s;
    const double start = now_s();
    while (replays.size() <= traces || now_s() - start < args.seconds) {
      const double t0 = now_s();
      const Setup s = build(args.seed, replays.size() % traces);
      setup_s.push_back(now_s() - t0);
      replays.push_back(replay_once(s, s.body));
      walls.push_back(replays.back().wall_s);
    }
    check_replays(replays, "replay", result);
    const double jps = jobs_per_s(replays, traces);
    double tail_pct = 0.0;
    const double tail = tail_with_ten_beyond(walls, &tail_pct);
    result.metrics = {
        {"throughput_per_s", jps, "1/s"},
        {"step_ms_p50", 1e3 * median(walls), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    for (size_t t = 0; t < traces; ++t) {
      const std::string suffix = "[trace " + std::to_string(t) + "]";
      result.info.push_back({"sim_goodput" + suffix, replays[t].goodput,
                             "ratio"});
      result.info.push_back({"sim_p99_jct_s" + suffix, replays[t].p99_jct,
                             "s"});
    }
    result.info.push_back({"replay_jobs_per_s", jps, "1/s"});
    result.info.push_back({"step_ms_tail", 1e3 * tail, "ms"});
    result.info.push_back({"step_ms_tail_percentile", tail_pct, "%"});
    result.info.push_back(
        {"step_samples", static_cast<double>(walls.size()), "count"});
    result.info.push_back(
        {"error_rate",
         static_cast<double>(result.failed) /
             static_cast<double>(result.attempted),
         "ratio"});
    return result;
  }

  // Traced replays: a span around every tenant-body call, nested in one
  // span per replay.  Untraced and traced replays of each trace alternate,
  // so both sides see the same machine conditions; each is set up afresh,
  // as in the untraced run.
  SpanRecorder rec;
  int replay_span = -1;
  int replay_index = 0;
  std::vector<ReplayOutcome> replays;  // untraced, the base
  std::vector<ReplayOutcome> traced_replays;
  std::vector<double> body_share;
  std::vector<double> self_ms;
  std::vector<double> calls;
  const double start = now_s();
  while (traced_replays.size() < traces || now_s() - start < args.seconds) {
    const size_t trace = replays.size() % traces;
    {
      const Setup s = build(args.seed, trace);
      replays.push_back(replay_once(s, s.body));
    }
    const Setup s = build(args.seed, trace);
    const simnet::JobBody traced = [&](simnet::Cluster& cluster,
                                       const simnet::JobSpec& spec,
                                       const std::vector<int>& ranks,
                                       double t) {
      const int id = rec.open("train.tenant_body", replay_span, replay_index);
      const simnet::JobIteration it = s.body(cluster, spec, ranks, t);
      rec.close(id);
      return it;
    };
    const size_t first_span = rec.spans().size();
    replay_span = rec.open("simnet.replay", -1, replay_index);
    traced_replays.push_back(replay_once(s, traced));
    rec.close(replay_span);
    const Span& outer = rec.spans()[static_cast<size_t>(replay_span)];
    double body_s = 0.0;
    for (size_t i = first_span + 1; i < rec.spans().size(); ++i) {
      body_s += rec.spans()[i].t1 - rec.spans()[i].t0;
    }
    const double wall = outer.t1 - outer.t0;
    body_share.push_back(body_s / wall);
    self_ms.push_back(1e3 * (wall - body_s));
    calls.push_back(static_cast<double>(rec.spans().size() - first_span - 1));
    ++replay_index;
  }
  check_replays(replays, "replay", result);
  int mismatched = 0;
  for (const ReplayOutcome& r : traced_replays) {
    const bool same = r.goodput == replays[r.trace].goodput &&
                      r.p99_jct == replays[r.trace].p99_jct &&
                      r.incomplete == 0;
    result.attempted += kJobs;
    if (!same) {
      result.failed += kJobs;
      ++mismatched;
    }
  }
  result.check(mismatched == 0,
               "traced replays complete every job and reproduce the untraced "
               "sim_goodput and sim_p99_jct_s exactly (" +
                   std::to_string(mismatched) + " failed)");

  const double untraced_jobs_per_s = jobs_per_s(replays, traces);
  std::vector<double> body_us;
  for (double t : rec.durations("train.tenant_body")) body_us.push_back(1e6 * t);
  std::vector<double> queued_s;
  for (size_t t = 0; t < traces; ++t) {
    queued_s.insert(queued_s.end(), replays[t].queued_s.begin(),
                    replays[t].queued_s.end());
  }
  double tail_pct = 0.0;
  const double body_tail = tail_with_ten_beyond(body_us, &tail_pct);
  const double traced_jobs_per_s = jobs_per_s(traced_replays, traces);
  result.metrics = {
      {"core.memcpy_gbps", memcpy_gbps(), "GB/s"},
      {"train.tenant_body_us_p50", median(body_us), "us"},
      {"train.tenant_body_us_tail", body_tail, "us"},
      {"train.tenant_body_calls", median(calls), "count"},
      {"simnet.replay_wall_ms", 1e3 * kJobs / untraced_jobs_per_s, "ms"},
      {"simnet.scheduler_self_ms", median(self_ms), "ms"},
      {"simnet.body_share", median(body_share), "ratio"},
      {"simnet.queue_wait_s_p50", percentile(queued_s, 0.5), "s"},
      {"trace.overhead_pct",
       100.0 * (untraced_jobs_per_s / traced_jobs_per_s - 1.0), "%"},
  };
  result.info.push_back({"tenant_body_us_tail_percentile", tail_pct, "%"});
  result.notes.push_back(
      "simnet.replay_wall_ms: mean over the traces of each trace's median "
      "untraced replay time; per replay: calls, self time and body share "
      "(base: the traced replay's wall time), medians over replays");
  result.notes.push_back(
      "overhead base: untraced jobs/s vs traced jobs/s (per-trace medians)");

  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  result.check(rec.write_chrome_trace(path, args.workload),
               "spans written to " + path);
  return result;
}

}  // namespace perfbench

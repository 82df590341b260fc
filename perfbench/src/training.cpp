// Training workloads: the real train::ConvergenceEngine step, closed loop
// (one trainer; each step waits for the previous one).
//
// A run repeats one fixed training run until the time budget is spent.
// Each such "rep" is set up afresh (the seeded task is generated and an
// engine constructed: the timed set-up), then runs `steps` iterations and a
// held-out evaluation.  Every rep must end on the same parameter digest, so
// the determinism check runs inside every run.
//
// The traced run (--trace 1) alternates untraced engine reps (the base of
// coverage and overhead) with reps that drive the same configuration layer
// by layer through the public calls the engine makes — task gradients on
// parallel_for, the collective on a fresh simnet::Cluster, SgdOptimizer —
// with a span around each call.  Selection cannot be timed from outside
// hitopk_comm, so it is replayed separately after each step: MsTopK plus
// the error-feedback exchange on each rank's owned shard summed over its
// node (what the intra-node reduce-scatter hands to selection), with its
// own residual state.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "collectives/common.h"
#include "collectives/hitopkcomm.h"
#include "collectives/ring.h"
#include "common.h"
#include "compress/error_feedback.h"
#include "compress/mstopk.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "pto/lars.h"
#include "simnet/cluster.h"
#include "spans.h"
#include "train/convergence.h"
#include "train/synthetic.h"

namespace perfbench {
namespace {

using hitopk::train::ConvergenceAlgorithm;
using hitopk::train::ConvergenceEngine;
using hitopk::train::ConvergenceOptions;
using hitopk::train::ConvergenceTask;

// Training samples whose loss is checked for finiteness after each rep.
constexpr size_t kLossCheckSamples = 64;

struct Workload {
  std::function<std::unique_ptr<ConvergenceTask>(uint64_t seed)> make_task;
  ConvergenceOptions options;
  int steps = 0;               // iterations per rep
  double quality_floor = 0.0;  // held-out quality every rep must reach
};

Workload workload_for(const std::string& name, uint64_t seed) {
  Workload w;
  ConvergenceOptions& o = w.options;
  o.nodes = 4;
  o.gpus_per_node = 4;
  o.warmup_epochs = 0;
  o.seed = seed;
  if (name == "mstopk_mlp") {
    // Vision-proxy MLP widened to hidden {1024, 512}: d = 617,492.
    w.make_task = [](uint64_t s) {
      return hitopk::train::make_vision_task(s, "vision-mlp-1024-512",
                                             {1024, 512});
    };
    o.algorithm = ConvergenceAlgorithm::kMstopk;
    o.density = 0.01;
    o.local_batch = 1;
    o.learning_rate = 0.005;  // 0.08 diverges at global batch 16
    w.steps = 96;
    w.quality_floor = 0.5;  // top-5 of 50 classes: chance is 0.1
  } else {
    // CNN proxy (im2col conv GEMMs), d = 2,584.
    w.make_task = [](uint64_t s) { return hitopk::train::make_cnn_task(s); };
    o.algorithm = ConvergenceAlgorithm::kDense;
    o.local_batch = 32;
    o.learning_rate = 0.4;
    w.steps = 96;  // twelve epochs of 8 steps
    w.quality_floor = 0.25;  // top-1 of 8 classes: chance is 0.125
  }
  return w;
}

// A rep's fresh inputs: the seeded task (data and initial parameters) and
// the engine options sized to it.
struct Setup {
  std::unique_ptr<ConvergenceTask> task;
  ConvergenceOptions options;
  int iters_per_epoch = 0;
};

Setup build(const Workload& w) {
  Setup s;
  s.task = w.make_task(w.options.seed);
  s.options = w.options;
  const size_t global_batch = static_cast<size_t>(s.options.world()) *
                              static_cast<size_t>(s.options.local_batch);
  s.iters_per_epoch = static_cast<int>(s.task->train_size() / global_batch);
  s.options.epochs = (w.steps + s.iters_per_epoch - 1) / s.iters_per_epoch;
  return s;
}

struct RepOutcome {
  bool threw = false;
  double quality = 0.0;
  double loss = 0.0;  // final model, first kLossCheckSamples samples
  uint64_t digest = 0;
};

void finish_rep(ConvergenceTask& task, RepOutcome& out) {
  std::vector<size_t> idx(kLossCheckSamples);
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::vector<float> grad(task.param_count());
  out.loss = task.gradient(idx, grad);
  out.digest = fnv1a(task.params());
}

// ---------------------------------------------------------------- engine

struct EngineRun {
  std::vector<double> setup_s;     // task generation + engine construction
  std::vector<double> step_s;      // every step of every rep
  std::vector<double> rep_wall_s;  // steps + epoch brackets + evaluation
  std::vector<double> sim_comm_s;  // per step of rep 0
  std::vector<RepOutcome> reps;
};

RepOutcome engine_rep(const Workload& wl, EngineRun& run) {
  RepOutcome out;
  const bool first = run.reps.empty();
  const double setup_start = now_s();
  Setup s = build(wl);
  try {
    ConvergenceEngine engine(*s.task, s.options);
    const double t0 = now_s();
    run.setup_s.push_back(t0 - setup_start);
    for (int i = 0; i < wl.steps; ++i) {
      if (!engine.epoch_open()) engine.begin_epoch();
      const double a = now_s();
      engine.step();
      run.step_s.push_back(now_s() - a);
      if (first) run.sim_comm_s.push_back(engine.last_step_comm_seconds());
      if (engine.step_in_epoch() == engine.iters_per_epoch()) {
        out.quality = engine.end_epoch().quality;
      }
    }
    if (engine.epoch_open()) out.quality = s.task->evaluate();
    run.rep_wall_s.push_back(now_s() - t0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: engine rep failed: %s\n", e.what());
    out.threw = true;
  }
  finish_rep(*s.task, out);
  return out;
}

// Output checks on every rep; a rep that fails any of them counts all its
// steps as failed.
void check_reps(const std::vector<RepOutcome>& reps, int steps,
                double quality_floor, const char* what, Result& result) {
  int bad = 0;
  for (const RepOutcome& rep : reps) {
    const bool ok = !rep.threw && std::isfinite(rep.loss) &&
                    rep.quality >= quality_floor &&
                    rep.digest == reps.front().digest;
    result.attempted += steps;
    if (!ok) {
      result.failed += steps;
      ++bad;
    }
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %zu reps of %d steps; finite loss, held-out quality >= "
                "%.2f, same parameter digest %016llx in every rep (%d failed)",
                what, reps.size(), steps, quality_floor,
                static_cast<unsigned long long>(reps.front().digest), bad);
  result.check(bad == 0, line);
}

// ------------------------------------------------------- layer by layer

struct LayerRun {
  std::vector<double> step_s;      // train.step span minus bench.capture
  std::vector<double> sim_comm_s;  // per step of rep 0
  // Bytes moved per rep (HiTopKComm's sparse legs vary step to step with
  // the merged nonzero counts, so per-rep totals are what must repeat).
  std::vector<size_t> inter_bytes;
  std::vector<size_t> intra_bytes;
  std::vector<RepOutcome> reps;
};

// One rep of the engine's fault-free full-world step, issued call by call.
// Mirrors ConvergenceEngine::step for kDense / kMstopk with fp32 wire,
// momentum SGD and no warm-up: same sample order, seeds, residual keys and
// learning-rate schedule, so the parameters match the engine's bitwise.
RepOutcome layered_rep(const Workload& wl, const hitopk::simnet::Topology& topo,
                       SpanRecorder& rec, LayerRun& run) {
  namespace coll = hitopk::coll;
  namespace compress = hitopk::compress;
  RepOutcome out;
  const bool first = run.reps.empty();
  const int steps = wl.steps;
  Setup s = build(wl);
  ConvergenceTask& task = *s.task;
  const ConvergenceOptions& o = s.options;
  const bool sparse = o.algorithm == ConvergenceAlgorithm::kMstopk;
  const auto world = static_cast<size_t>(o.world());
  const size_t d = task.param_count();
  const auto local_batch = static_cast<size_t>(o.local_batch);
  const size_t global_batch = world * local_batch;
  const int ipe = s.iters_per_epoch;
  const int total_iters = o.epochs * ipe;

  hitopk::Rng shuffle_rng(o.seed);
  std::vector<size_t> order(task.train_size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<hitopk::Tensor> grads;
  coll::RankData grad_spans;
  grads.reserve(world);
  for (size_t w = 0; w < world; ++w) grads.emplace_back(d);
  for (auto& g : grads) grad_spans.push_back(g.span());
  compress::ErrorFeedback error_feedback;
  hitopk::pto::SgdOptimizer sgd(o.momentum, 0.0);

  // Selection replay: each rank's owned shard, summed over the ranks of its
  // node as the intra-node reduce-scatter leaves it.
  compress::ErrorFeedback select_ef;
  std::vector<coll::ChunkRange> shard(world);
  std::vector<std::vector<float>> shard_copy(world);
  std::vector<std::string> select_keys(world);
  std::vector<compress::SparseTensor> selected(world);
  if (sparse) {
    for (size_t r = 0; r < world; ++r) {
      shard[r] = coll::chunk_range(
          d, static_cast<size_t>(o.gpus_per_node),
          static_cast<size_t>(topo.local_rank(static_cast<int>(r))));
      shard_copy[r].resize(shard[r].count);
      select_keys[r] = "select:" + std::to_string(r);
      select_ef.ensure(select_keys[r], shard[r].count);
    }
  }

  size_t inter_bytes = 0;
  size_t intra_bytes = 0;
  for (int i = 0; i < steps; ++i) {
    if (i % ipe == 0) shuffle_rng.shuffle(order);
    const auto step_in_epoch = static_cast<size_t>(i % ipe);
    const int root = rec.open("train.step", -1, i);

    int id = rec.open("autodiff.grad", root, i);
    hitopk::parallel_for(0, world, [&](size_t w) {
      const size_t offset = step_in_epoch * global_batch + w * local_batch;
      task.gradient(std::span<const size_t>(&order[offset], local_batch),
                    grads[w].span());
    });
    rec.close(id);

    double capture_s = 0.0;
    if (sparse) {
      id = rec.open("bench.capture", root, i);
      hitopk::parallel_for(0, world, [&](size_t r) {
        const int node = topo.node_of(static_cast<int>(r));
        std::fill(shard_copy[r].begin(), shard_copy[r].end(), 0.0f);
        for (size_t q = 0; q < world; ++q) {
          if (topo.node_of(static_cast<int>(q)) != node) continue;
          const auto slice = grads[q].slice(shard[r].begin, shard[r].count);
          for (size_t j = 0; j < slice.size(); ++j) {
            shard_copy[r][j] += slice[j];
          }
        }
      });
      rec.close(id);
      capture_s = rec.spans()[static_cast<size_t>(id)].t1 -
                  rec.spans()[static_cast<size_t>(id)].t0;
    }

    hitopk::simnet::Cluster cluster(topo);
    coll::HiTopKOptions hi;
    hi.density = o.density;
    hi.mstopk_samplings = o.mstopk_samplings;
    hi.mstopk_histogram = o.mstopk_histogram;
    hi.seed = o.seed + static_cast<uint64_t>(i) * 977;
    hi.error_feedback = o.use_error_feedback ? &error_feedback : nullptr;
    hi.ef_key_prefix = "shard";
    id = rec.open("collectives.call", root, i);
    if (sparse) {
      coll::hitopk_comm(cluster, grad_spans, d, hi, 0.0);
    } else {
      coll::ring_allreduce(cluster, coll::world_group(topo), grad_spans, d,
                           coll::WireDtype::kFp32, 0.0);
    }
    rec.close(id);
    if (first) run.sim_comm_s.push_back(cluster.quiescent_time());
    inter_bytes += cluster.inter_node_bytes();
    intra_bytes += cluster.intra_node_bytes();

    grads[0] *= 1.0f / static_cast<float>(world);
    const double progress = static_cast<double>(i) /
                            static_cast<double>(std::max(1, total_iters));
    const double lr =
        o.learning_rate * 0.5 * (1.0 + std::cos(M_PI * progress));
    id = rec.open("pto.sgd", root, i);
    sgd.step("flat", task.params(), grads[0].span(), lr);
    rec.close(id);
    rec.close(root);
    run.step_s.push_back(rec.spans()[static_cast<size_t>(root)].t1 -
                         rec.spans()[static_cast<size_t>(root)].t0 -
                         capture_s);

    if (sparse) {
      id = rec.open("compress.select", -1, i);
      hitopk::parallel_for(0, world, [&](size_t r) {
        const size_t k = std::max<size_t>(
            1, static_cast<size_t>(std::llround(
                   o.density * static_cast<double>(shard[r].count))));
        compress::MsTopK mstopk(o.mstopk_samplings, hi.seed + r,
                                compress::MsTopKMode::kHistogram);
        select_ef.apply_priming(select_keys[r], shard_copy[r]);
        selected[r] = mstopk.compress(shard_copy[r], k);
        select_ef.absorb_primed(select_keys[r], selected[r]);
      });
      rec.close(id);
    }
    if ((i + 1) % ipe == 0 || i + 1 == steps) {
      id = rec.open("autodiff.eval", -1, i);
      out.quality = task.evaluate();
      rec.close(id);
    }
  }
  run.inter_bytes.push_back(inter_bytes);
  run.intra_bytes.push_back(intra_bytes);
  finish_rep(task, out);
  return out;
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

Result run_training(const Args& args) {
  Result result;
  const Workload w = workload_for(args.workload, args.seed);
  const size_t global_batch = static_cast<size_t>(w.options.world()) *
                              static_cast<size_t>(w.options.local_batch);
  const Setup probe = build(w);
  const double param_count = static_cast<double>(probe.task->param_count());
  result.info.push_back({"param_count", param_count, "count"});

  if (!args.trace) {
    EngineRun run;
    const double start = now_s();
    while (run.reps.size() < 2 || now_s() - start < args.seconds) {
      run.reps.push_back(engine_rep(w, run));
    }
    check_reps(run.reps, w.steps, w.quality_floor, "engine", result);
    // Samples of one rep over the median rep wall time (which includes the
    // held-out evaluations).
    const double samples_per_s = static_cast<double>(w.steps) *
                                 static_cast<double>(global_batch) /
                                 median(run.rep_wall_s);
    double tail_pct = 0.0;
    const double tail = tail_with_ten_beyond(run.step_s, &tail_pct);
    result.metrics = {
        {"throughput_per_s", samples_per_s, "1/s"},
        {"step_ms_p50", ms(median(run.step_s)), "ms"},
        {"setup_s", median(run.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    result.info.push_back({"train_samples_per_s", samples_per_s, "1/s"});
    result.info.push_back({"step_ms_tail", ms(tail), "ms"});
    result.info.push_back({"step_ms_tail_percentile", tail_pct, "%"});
    result.info.push_back(
        {"step_samples", static_cast<double>(run.step_s.size()), "count"});
    result.info.push_back({"sim_comm_ms_per_step",
                           ms(median(run.sim_comm_s)), "ms"});
    result.info.push_back({"quality_end", run.reps.front().quality, "ratio"});
    result.info.push_back({"quality_floor", w.quality_floor, "ratio"});
    result.info.push_back({"loss_end", run.reps.front().loss, "nats"});
    result.info.push_back(
        {"error_rate",
         static_cast<double>(result.failed) /
             static_cast<double>(result.attempted),
         "ratio"});
    return result;
  }

  // Traced run: untraced engine reps (the base) alternate with
  // layer-by-layer reps, so both sides see the same machine conditions.
  const hitopk::simnet::Topology topo =
      ConvergenceEngine(*probe.task, probe.options).topology();
  EngineRun engine;
  LayerRun layered;
  SpanRecorder rec;
  const double start = now_s();
  while (layered.reps.empty() || now_s() - start < args.seconds) {
    engine.reps.push_back(engine_rep(w, engine));
    layered.reps.push_back(layered_rep(w, topo, rec, layered));
  }
  check_reps(engine.reps, w.steps, w.quality_floor, "engine", result);
  check_reps(layered.reps, w.steps, w.quality_floor, "layer-by-layer", result);
  const double engine_step_ms = ms(median(engine.step_s));

  // Cross-check: the replayed collective is the engine's, step for step.
  result.check(layered.sim_comm_s == engine.sim_comm_s,
               "replayed collective's simulated time equals the engine's "
               "last_step_comm_seconds at every step of the first rep");
  const bool bytes_steady =
      std::all_of(layered.inter_bytes.begin(), layered.inter_bytes.end(),
                  [&](size_t b) { return b == layered.inter_bytes[0]; }) &&
      std::all_of(layered.intra_bytes.begin(), layered.intra_bytes.end(),
                  [&](size_t b) { return b == layered.intra_bytes[0]; });
  result.check(bytes_steady,
               "inter/intra-node bytes repeat exactly in every rep");
  result.check(layered.reps.front().digest == engine.reps.front().digest,
               "layer-by-layer replay ends on the engine's parameter digest");

  const double grad_ms = ms(median(rec.durations("autodiff.grad")));
  const double select_ms = ms(median(rec.durations("compress.select")));
  const double call_s = median(rec.durations("collectives.call"));
  const double call_ms = ms(call_s);
  const double sgd_ms = ms(median(rec.durations("pto.sgd")));
  const double layers_ms = grad_ms + call_ms + sgd_ms;
  const double gbps = memcpy_gbps();
  const double rank_bytes =
      static_cast<double>(w.options.world()) * param_count * 4.0;
  const double traced_step_ms = ms(median(layered.step_s));
  result.metrics = {
      {"autodiff.grad_ms", grad_ms, "ms"},
      {"autodiff.eval_ms", ms(median(rec.durations("autodiff.eval"))), "ms"},
      {"compress.select_ms", select_ms, "ms"},
      {"collectives.call_ms", call_ms, "ms"},
      {"collectives.inter_node_bytes",
       static_cast<double>(layered.inter_bytes[0]) / w.steps, "bytes"},
      {"collectives.intra_node_bytes",
       static_cast<double>(layered.intra_bytes[0]) / w.steps, "bytes"},
      {"collectives.norm_throughput", rank_bytes / call_s / 1e9 / gbps,
       "ratio"},
      {"core.memcpy_gbps", gbps, "GB/s"},
      {"pto.sgd_ms", sgd_ms, "ms"},
      {"train.engine_step_ms", engine_step_ms, "ms"},
      {"train.engine_other_ms", engine_step_ms - layers_ms, "ms"},
      {"train.layer_coverage", layers_ms / engine_step_ms, "ratio"},
      {"trace.overhead_pct",
       100.0 * (traced_step_ms - engine_step_ms) / engine_step_ms, "%"},
  };
  result.info.push_back({"sim_comm_ms_per_step",
                         ms(median(engine.sim_comm_s)), "ms"});
  result.info.push_back({"traced_step_ms_p50", traced_step_ms, "ms"});
  result.info.push_back(
      {"grad_share_of_engine_step", grad_ms / engine_step_ms, "ratio"});
  result.info.push_back({"select_plus_call_share_of_engine_step",
                         (select_ms + call_ms) / engine_step_ms, "ratio"});
  result.notes.push_back(
      "coverage base: untraced engine step p50; layers summed: autodiff.grad "
      "+ collectives.call + pto.sgd (compress.select replays work done "
      "inside collectives.call and is not added)");
  result.notes.push_back(
      "overhead base: untraced engine step p50 vs traced layer-by-layer "
      "step p50 (span bookkeeping and the gradient capture excluded)");

  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  result.check(rec.write_chrome_trace(path, args.workload),
               "spans written to " + path);
  return result;
}

}  // namespace perfbench

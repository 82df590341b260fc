// Benchmark program: runs one workload for a time budget and prints its
// metrics, then one JSON result line.
//
//   perfbench --workload <mstopk_mlp|dense_cnn|replay_spread> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// per-step clock reads; --trace 1 runs the same configuration layer by
// layer with spans recorded and reports the per-layer metrics.  See
// README.md for the workloads, metrics and the checks every run makes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/parallel.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mstopk_mlp|dense_cnn|replay_spread> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return args;
}

// Every per-layer metric, in output order.  A traced run reports each one;
// a layer the workload never calls reads 0.
const Metric kPerLayer[] = {
    {"autodiff.grad_ms", 0, "ms"},
    {"autodiff.eval_ms", 0, "ms"},
    {"compress.select_ms", 0, "ms"},
    {"collectives.call_ms", 0, "ms"},
    {"collectives.inter_node_bytes", 0, "bytes"},
    {"collectives.intra_node_bytes", 0, "bytes"},
    {"collectives.norm_throughput", 0, "ratio"},
    {"core.memcpy_gbps", 0, "GB/s"},
    {"pto.sgd_ms", 0, "ms"},
    {"train.engine_step_ms", 0, "ms"},
    {"train.engine_other_ms", 0, "ms"},
    {"train.layer_coverage", 0, "ratio"},
    {"train.tenant_body_us_p50", 0, "us"},
    {"train.tenant_body_us_tail", 0, "us"},
    {"train.tenant_body_calls", 0, "count"},
    {"simnet.replay_wall_ms", 0, "ms"},
    {"simnet.scheduler_self_ms", 0, "ms"},
    {"simnet.body_share", 0, "ratio"},
    {"simnet.queue_wait_s_p50", 0, "s"},
    {"trace.overhead_pct", 0, "%"},
};

std::vector<Metric> complete_per_layer(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const Metric& slot : kPerLayer) {
    auto it = std::find_if(measured.begin(), measured.end(),
                           [&](const Metric& m) { return m.name == slot.name; });
    out.push_back(it == measured.end() ? slot : *it);
  }
  return out;
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %16.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  // Pin the pool width: at most 4 threads and never more than the cores.
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  hitopk::set_parallel_threads(std::min(4, cores));

  Result result;
  try {
    if (args.workload == "mstopk_mlp" || args.workload == "dense_cnn") {
      result = perfbench::run_training(args);
    } else if (args.workload == "replay_spread") {
      result = perfbench::run_replay(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }

  if (args.trace) result.metrics = complete_per_layer(result.metrics);

  std::printf("workload %s  seed %llu  seconds %g  trace %d  pool_threads %d "
              "(pinned, %d cores)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, hitopk::parallel_threads(), cores);
  std::printf("%s metrics:\n", args.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : result.metrics) print_metric(m);
  std::printf("workload outcomes and checks:\n");
  for (const Metric& m : result.info) print_metric(m);
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }

  // A non-finite metric is a failed run; JSON cannot carry its value.
  bool correct = result.correct;
  std::string metrics;
  for (const Metric& m : result.metrics) {
    correct = correct && std::isfinite(m.value);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", result.attempted, result.failed,
              metrics.c_str());
  return 0;
}

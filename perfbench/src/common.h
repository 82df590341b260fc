// Shared pieces of the benchmark program: run arguments, the result record
// printed as the final JSON line, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory the traced run writes its Chrome/Perfetto span file into.
  std::string trace_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  // Emitted in the final JSON line (the metrics BENCHMARK.json names).
  std::vector<Metric> metrics;
  // Printed by name on the human-readable lines only: deterministic
  // simulated outcomes and output checks that the JSON contract cannot
  // carry for every workload.
  std::vector<Metric> info;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    notes.push_back(std::string(ok ? "check ok:   " : "check FAIL: ") + what);
    if (!ok) correct = false;
  }
};

Result run_training(const Args& args);
Result run_replay(const Args& args);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile of `values` (copied and sorted), p in [0, 1].
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// The tail statistic of the choosing-metrics method: the highest
// nearest-rank percentile with at least ten samples above it.  `pct`
// receives that percentile (in percent); with fewer than eleven samples it
// falls back to the maximum and reports 100.
double tail_with_ten_beyond(std::vector<double> values, double* pct);

// FNV-1a 64 over the raw bytes of a float buffer.
uint64_t fnv1a(std::span<const float> values);

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// Single-threaded memcpy bandwidth over buffers larger than the last-level
// cache (median of several passes), in GB/s.  The normalizing base for
// collectives.norm_throughput.
double memcpy_gbps();

}  // namespace perfbench

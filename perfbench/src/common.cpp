#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail_with_ten_beyond(std::vector<double> values, double* pct) {
  if (values.empty()) {
    *pct = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n < 11) {
    *pct = 100.0;
    return values.back();
  }
  // Nearest rank n - 10: exactly ten samples sort above it.
  *pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return values[n - 11];
}

uint64_t fnv1a(std::span<const float> values) {
  uint64_t hash = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size_bytes(); ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double memcpy_gbps() {
  constexpr size_t kBytes = size_t{64} << 20;
  std::vector<char> src(kBytes, 1);
  std::vector<char> dst(kBytes, 0);
  std::memcpy(dst.data(), src.data(), kBytes);  // fault the pages in
  std::vector<double> rates;
  for (int pass = 0; pass < 7; ++pass) {
    src[static_cast<size_t>(pass)] = static_cast<char>(pass);
    const double t0 = now_s();
    std::memcpy(dst.data(), src.data(), kBytes);
    const double t1 = now_s();
    rates.push_back(static_cast<double>(kBytes) / (t1 - t0) / 1e9);
  }
  if (dst[3] != src[3]) return 0.0;  // keeps the copies observable
  return median(rates);
}

}  // namespace perfbench

// Micro benchmark + CI smoke for the tiled SGEMM core (core/gemm.h).
//
// Runs sgemm() against the naive-loop reference at the representative
// shapes of the autodiff engine — the MLP/sequence layer products (batch x
// hidden) at the convergence-bench batch sizes and at batch 1 (sgemm's
// one-row and rank-1 paths), their backward transposed variants, and the
// im2col-lowered CNN convolutions.  At the shapes that run the tile path it
// also times the baseline (SSE) tile instantiation next to the dispatched
// one, and prints which instruction set sgemm dispatched to.
//
// It *fails* (non-zero exit) if sgemm is slower than the naive loop
// anywhere, or, when sgemm dispatches to the AVX2 tiles, if they are slower
// than the baseline tiles at any tile-path shape.  CI runs this as a
// regression gate, so a refactor that breaks the microkernels'
// vectorization (e.g. by giving the baseline kernel's inner loops runtime
// trip counts, or by losing the AVX2 dispatch; see core/gemm.cpp) shows up
// as a red build instead of a silent several-fold convergence slowdown.
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/gemm.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/tensor.h"

namespace {

using hitopk::gemm::Trans;

struct Shape {
  const char* label;
  Trans trans_a;
  Trans trans_b;
  size_t m, n, k;
};

// Best-of-reps wall seconds of each function, timed in turn within every
// rep so that load from the rest of the machine hits them alike.
std::vector<double> best_seconds(
    const std::vector<std::function<void()>>& fns, int reps) {
  std::vector<double> best(fns.size(), 1e100);
  for (int r = 0; r < reps; ++r) {
    for (size_t f = 0; f < fns.size(); ++f) {
      const auto start = std::chrono::steady_clock::now();
      fns[f]();
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - start;
      best[f] = std::min(best[f], dt.count());
    }
  }
  return best;
}

}  // namespace

int main() {
  using hitopk::Rng;
  using hitopk::TablePrinter;
  using hitopk::Tensor;

  // batch x in x out products of the three synthetic convergence tasks
  // (MLP vision proxies, embedding sequence model, im2col'd CNN) plus the
  // backward products dA = dC*B^T (NT) and dB = A^T*dC (TN).
  const Shape shapes[] = {
      {"mlp fwd h1 (b32)", Trans::kNo, Trans::kNo, 32, 96, 64},
      {"mlp fwd h2 (b32)", Trans::kNo, Trans::kNo, 32, 64, 96},
      {"mlp fwd logits", Trans::kNo, Trans::kNo, 32, 50, 64},
      {"mlp fwd (b8, fig10)", Trans::kNo, Trans::kNo, 8, 96, 64},
      {"mlp bwd dA", Trans::kNo, Trans::kYes, 32, 64, 96},
      {"mlp bwd dB", Trans::kYes, Trans::kNo, 64, 96, 32},
      {"seq fwd hidden", Trans::kNo, Trans::kNo, 32, 64, 32},
      {"cnn conv1 im2col", Trans::kNo, Trans::kNo, 16, 144, 9},
      {"cnn conv2 im2col", Trans::kNo, Trans::kNo, 16, 144, 144},
      {"cnn bwd dW", Trans::kNo, Trans::kYes, 16, 144, 144},
      {"cnn bwd dcol", Trans::kYes, Trans::kNo, 144, 144, 16},
      {"eval fwd (b512)", Trans::kNo, Trans::kNo, 512, 96, 64},
      // Local batch 1 (perfbench mstopk_mlp, hidden {1024, 512}): forward
      // and dA are one-row products, every dW is a k = 1 rank-1 update.
      {"mlp b1 fwd h1", Trans::kNo, Trans::kNo, 1, 1024, 64},
      {"mlp b1 fwd h2", Trans::kNo, Trans::kNo, 1, 512, 1024},
      {"mlp b1 bwd dA h2", Trans::kNo, Trans::kYes, 1, 1024, 512},
      {"mlp b1 bwd dW h2", Trans::kYes, Trans::kNo, 1024, 512, 1},
      {"mlp b1 bwd dW h1", Trans::kYes, Trans::kNo, 64, 1024, 1},
  };

  using hitopk::gemm::TileIsa;
  const TileIsa isa = hitopk::gemm::dispatched_tile_isa();
  const bool has_avx2 = isa == TileIsa::kAvx2;
  std::printf("=== bench_micro_gemm: sgemm vs naive loops ===\n");
  std::printf("tile path dispatched to: %s\n\n",
              has_avx2 ? "avx2 (4x16 tiles)" : "baseline sse2 (4x8 tiles)");
  TablePrinter table({"shape", "m", "n", "k", "naive us", "base tile us",
                      "sgemm us", "vs naive", "vs base"});
  Rng rng(7);
  bool slower_than_naive = false;
  bool slower_than_base = false;
  double worst = 1e100;
  for (const Shape& s : shapes) {
    const size_t a_elems = s.m * s.k;
    const size_t b_elems = s.k * s.n;
    Tensor a(a_elems), b(b_elems), c(s.m * s.n);
    a.fill_normal(rng, 0.0f, 1.0f);
    b.fill_normal(rng, 0.0f, 1.0f);
    const size_t lda = s.trans_a == Trans::kNo ? s.k : s.m;
    const size_t ldb = s.trans_b == Trans::kNo ? s.n : s.k;
    // Enough inner iterations that one rep is comfortably above timer
    // resolution on a 1-vCPU runner.
    const int inner = static_cast<int>(
        std::max<size_t>(4, (1u << 22) / (s.m * s.n * s.k)));
    auto repeat = [inner](auto&& product) {
      return [inner, product] {
        for (int i = 0; i < inner; ++i) product();
      };
    };
    std::vector<std::function<void()>> fns = {
        repeat([&] {
          hitopk::gemm::sgemm_naive(s.trans_a, s.trans_b, s.m, s.n, s.k,
                                    a.data(), lda, b.data(), ldb, c.data(),
                                    s.n, false);
        }),
        repeat([&] {
          hitopk::gemm::sgemm(s.trans_a, s.trans_b, s.m, s.n, s.k, a.data(),
                              lda, b.data(), ldb, c.data(), s.n, false);
        })};
    // The skinny shapes (m == 1 or k == 1) never reach the tiles.
    const bool tile_path = s.m > 1 && s.k > 1;
    if (tile_path && has_avx2) {
      fns.push_back(repeat([&] {
        hitopk::gemm::internal::sgemm_tiles(
            TileIsa::kBaseline, s.trans_a, s.trans_b, s.m, s.n, s.k, a.data(),
            lda, b.data(), ldb, c.data(), s.n, false);
      }));
    }
    const std::vector<double> best = best_seconds(fns, 7);
    const double naive = best[0] / inner;
    const double tiled = best[1] / inner;
    const double speedup = naive / tiled;
    worst = std::min(worst, speedup);
    if (tiled > naive) slower_than_naive = true;
    std::string base_us = "-", vs_base = "-";
    if (fns.size() == 3) {
      const double base = best[2] / inner;
      if (tiled > base) slower_than_base = true;
      base_us = TablePrinter::fmt(base * 1e6, 2);
      vs_base = TablePrinter::fmt(base / tiled, 2) + "x";
    }
    table.add_row({s.label, std::to_string(s.m), std::to_string(s.n),
                   std::to_string(s.k),
                   TablePrinter::fmt(naive * 1e6, 2), base_us,
                   TablePrinter::fmt(tiled * 1e6, 2),
                   TablePrinter::fmt(speedup, 2) + "x", vs_base});
  }
  table.print(std::cout);
  std::printf("\nworst speedup over naive: %.2fx — %s\n", worst,
              slower_than_naive ? "FAIL (sgemm slower than the naive loop)"
                                : "OK (sgemm never slower than naive)");
  if (has_avx2) {
    std::printf("avx2 tiles vs baseline tiles: %s\n",
                slower_than_base
                    ? "FAIL (avx2 tiles slower than the baseline tiles)"
                    : "OK (avx2 tiles never slower)");
  } else {
    std::printf("avx2 tiles vs baseline tiles: not compared (no AVX2: "
                "sgemm runs the baseline tiles)\n");
  }
  const bool ok = !slower_than_naive && !slower_than_base;
  return ok ? 0 : 1;
}

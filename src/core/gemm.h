// Blocked, register-tiled single-precision GEMM for the autodiff engine.
//
// The convergence experiments (Fig. 10 / Table 2) spend nearly all their
// compute in small-to-medium dense products: MLP layers (batch x hidden),
// their two backward products (dA = dC*B^T, dB = A^T*dC), and im2col-lowered
// convolutions.  sgemm() computes C (+)= op(A) * op(B) through one packed
// register-tiled path.  Transposition is absorbed during packing, so all
// four variants run the identical microkernel.  The tile path is compiled
// twice from one template: a baseline x86-64 instantiation with 8-wide
// tiles whose inner loops have compile-time-constant trip counts (what the
// GCC12 -O2 "very cheap" vectorizer cost model needs to engage, the same
// constraint the MSTopK histogram kernels are written around), and a
// target("avx2") instantiation with 16-wide tiles of explicit 256-bit
// multiplies and adds.  sgemm runs the AVX2 one when the CPU reports AVX2
// (checked once per process) and the baseline one otherwise.  The AVX2
// target does not include FMA, so both round each product and each sum.
//
// Batch-1 training makes every product skinny, and the shape alone then
// picks one of two skinny paths instead: m == 1 runs a one-row kernel that
// reads B in place (dot products straight from B's stored rows when
// op(B) == B^T, so the weight matrix is never packed), and k == 1 runs a
// rank-1 update.
//
// Every path computes the same float expression per output element: each
// kKc-wide K block sums its products from 0.0f in strictly increasing k,
// the first block overwrites C (unless accumulating) and later blocks are
// added to it in order.  So results are bitwise identical whichever path
// or tile instantiation runs, and for K <= kKc they equal the textbook
// `for k: c += a[i][k] * b[k][j]` loop.
#pragma once

#include <cstddef>

namespace hitopk::gemm {

enum class Trans {
  kNo,   // operand used as stored
  kYes,  // operand used transposed
};

// Register-tile rows and K blocking.  A tile is kMr rows by two vectors of
// columns: 8 columns of 4-wide SSE vectors in the baseline instantiation,
// 16 columns of 8-wide AVX vectors in the AVX2 one.  Either way the eight
// accumulators plus a broadcast and two B loads fit the 16 vector registers
// of x86-64 (xmm or ymm).
inline constexpr size_t kMr = 4;
inline constexpr size_t kKc = 256;

// C (m x n, leading dimension ldc) (+)= op(A) * op(B) where op(A) is m x k
// and op(B) is k x n.  `lda`/`ldb` are the leading dimensions of the
// *stored* row-major matrices: op(X) == kYes means the stored matrix is the
// transpose (so A is stored k x m / B is stored n x k).  When `accumulate`
// is false C is overwritten, otherwise the product is added into it — the
// form backward passes need to merge gradients from several consumers.
void sgemm(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
           const float* a, size_t lda, const float* b, size_t ldb, float* c,
           size_t ldc, bool accumulate);

// The instruction sets the tile path is compiled for.
enum class TileIsa {
  kBaseline,  // baseline x86-64 (SSE2), 4 x 8 tiles; the portable fallback
  kAvx2,      // target("avx2"), 4 x 16 tiles
};

// The tile instantiation sgemm runs on this CPU.
TileIsa dispatched_tile_isa();

namespace internal {

// Runs the tile instantiation the caller names, on any shape with
// m, n, k >= 1, skipping the skinny-path shape dispatch, so gemm_test can
// hold each instantiation to the blocked-K oracle and bench_micro_gemm can
// time them side by side.  kAvx2 is checked to be available
// (dispatched_tile_isa() == TileIsa::kAvx2).
void sgemm_tiles(TileIsa isa, Trans trans_a, Trans trans_b, size_t m,
                 size_t n, size_t k, const float* a, size_t lda,
                 const float* b, size_t ldb, float* c, size_t ldc,
                 bool accumulate);

}  // namespace internal

// Reference implementation (textbook triple loop, k innermost in increasing
// order).  The property tests compare sgemm against this, and
// bench_micro_gemm uses it as the speedup baseline.
void sgemm_naive(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
                 const float* a, size_t lda, const float* b, size_t ldb,
                 float* c, size_t ldc, bool accumulate);

}  // namespace hitopk::gemm

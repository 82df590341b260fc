#include "core/gemm.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HITOPK_GEMM_AVX2 1
#endif

#include "core/check.h"
#include "core/workspace.h"

namespace hitopk::gemm {
namespace {

// ------------------------------------------------------------ tile path
//
// One template holds the packing, tile loop, stores and edge handling; it
// is instantiated once per tile kernel below.  A kernel supplies its tile
// width kNr and run(), which computes one kMr x kNr tile.

// Packs the (mb x kb) block of op(A) into kMr-row panels: panel p holds
// rows [p*kMr, p*kMr + kMr), element (m, kk) at panel[kk * kMr + m].  Rows
// past mb are zero-filled so the microkernel always runs a full tile.
void pack_a(Trans trans, const float* a, size_t lda, size_t mb, size_t k0,
            size_t kb, float* dst) {
  const size_t panels = (mb + kMr - 1) / kMr;
  for (size_t p = 0; p < panels; ++p) {
    float* panel = dst + p * kMr * kb;
    const size_t i0 = p * kMr;
    const size_t rows = std::min(kMr, mb - i0);
    for (size_t kk = 0; kk < kb; ++kk) {
      float* col = panel + kk * kMr;
      for (size_t m = 0; m < rows; ++m) {
        col[m] = trans == Trans::kNo ? a[(i0 + m) * lda + k0 + kk]
                                     : a[(k0 + kk) * lda + i0 + m];
      }
      for (size_t m = rows; m < kMr; ++m) col[m] = 0.0f;
    }
  }
}

// Packs the (kb x nb) block of op(B) into kNr-column panels: panel q holds
// columns [q*kNr, q*kNr + kNr), element (kk, j) at panel[kk * kNr + j],
// zero-padded past nb.
template <size_t kNr>
void pack_b(Trans trans, const float* b, size_t ldb, size_t nb, size_t k0,
            size_t kb, float* dst) {
  const size_t panels = (nb + kNr - 1) / kNr;
  for (size_t q = 0; q < panels; ++q) {
    float* panel = dst + q * kNr * kb;
    const size_t j0 = q * kNr;
    const size_t cols = std::min(kNr, nb - j0);
    for (size_t kk = 0; kk < kb; ++kk) {
      float* row = panel + kk * kNr;
      for (size_t j = 0; j < cols; ++j) {
        row[j] = trans == Trans::kNo ? b[(k0 + kk) * ldb + j0 + j]
                                     : b[(j0 + j) * ldb + k0 + kk];
      }
      for (size_t j = cols; j < kNr; ++j) row[j] = 0.0f;
    }
  }
}

// Ragged column tail for the direct-B path: each output element is the
// increasing-k dot of a packed-A row with a B column (same summation order
// as the tiles).
void direct_b_tail(size_t kb, size_t mr, const float* ap, const float* b,
                   size_t ldb, size_t j0, size_t n, float* c, size_t ldc,
                   bool add) {
  for (size_t mm = 0; mm < mr; ++mm) {
    for (size_t j = j0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t kk = 0; kk < kb; ++kk) {
        acc += ap[kk * kMr + mm] * b[kk * ldb + j];
      }
      c[mm * ldc + j] = add ? c[mm * ldc + j] + acc : acc;
    }
  }
}

// Stores one computed kMr x kNr tile into C, honoring ragged edges and the
// overwrite-vs-accumulate mode; full tiles take the constant-trip path.
template <size_t kNr>
void store_tile(const float* tile, float* c, size_t ldc, size_t mr,
                size_t nr, bool add) {
  if (mr == kMr && nr == kNr) {
    if (add) {
      for (size_t mm = 0; mm < kMr; ++mm) {
        float* crow = c + mm * ldc;
        const float* trow = tile + mm * kNr;
        for (size_t j = 0; j < kNr; ++j) crow[j] += trow[j];
      }
    } else {
      for (size_t mm = 0; mm < kMr; ++mm) {
        std::memcpy(c + mm * ldc, tile + mm * kNr, kNr * sizeof(float));
      }
    }
  } else {
    for (size_t mm = 0; mm < mr; ++mm) {
      float* crow = c + mm * ldc;
      const float* trow = tile + mm * kNr;
      for (size_t j = 0; j < nr; ++j) {
        crow[j] = add ? crow[j] + trow[j] : trow[j];
      }
    }
  }
}

// The generic path: C (+)= op(A) * op(B) for m, n, k >= 1 through Kernel's
// tiles.  op(A) is packed into kMr-row panels per K block; op(B) is packed
// into Kernel::kNr-column panels, or read in place when op(B) == B (its
// rows are contiguous as stored, and skipping the pack saves a full copy of
// the often weight-sized matrix per call).
template <class Kernel>
void sgemm_tiled(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
                 const float* a, size_t lda, const float* b, size_t ldb,
                 float* c, size_t ldc, bool accumulate) {
  constexpr size_t kNr = Kernel::kNr;
  const size_t mp = (m + kMr - 1) / kMr;
  const size_t np = (n + kNr - 1) / kNr;
  const size_t kb_max = std::min(k, kKc);
  const bool direct_b = trans_b == Trans::kNo;
  Scratch<float> a_pack(mp * kMr * kb_max);
  Scratch<float> b_pack(direct_b ? 0 : np * kNr * kb_max);
  const size_t n_full = (n / kNr) * kNr;

  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    const size_t kb = std::min(kKc, k - k0);
    // The first K block overwrites C unless the caller asked to accumulate;
    // later blocks always add their partial sums (in increasing k0 order).
    const bool add = accumulate || k0 > 0;
    pack_a(trans_a, a, lda, m, k0, kb, a_pack.data());
    if (!direct_b) {
      pack_b<kNr>(trans_b, b, ldb, n, k0, kb, b_pack.data());
    }
    for (size_t p = 0; p < mp; ++p) {
      const float* ap = a_pack.data() + p * kMr * kb;
      const size_t i0 = p * kMr;
      const size_t mr = std::min(kMr, m - i0);
      float* c_rows = c + i0 * ldc;
      float tile[kMr * kNr];
      if (direct_b) {
        const float* b_block = b + k0 * ldb;
        for (size_t j0 = 0; j0 < n_full; j0 += kNr) {
          Kernel::run(kb, ap, b_block + j0, ldb, tile);
          store_tile<kNr>(tile, c_rows + j0, ldc, mr, kNr, add);
        }
        if (n_full < n) {
          direct_b_tail(kb, mr, ap, b_block, ldb, n_full, n, c_rows, ldc,
                        add);
        }
      } else {
        for (size_t q = 0; q < np; ++q) {
          const size_t j0 = q * kNr;
          Kernel::run(kb, ap, b_pack.data() + q * kNr * kb, kNr, tile);
          store_tile<kNr>(tile, c_rows + j0, ldc, mr, std::min(kNr, n - j0),
                          add);
        }
      }
    }
  }
}

// The baseline kernel: out = sum over kk of a_panel(:,kk) * one kNr-wide
// band of B rows, where consecutive B rows are b_stride floats apart (kNr
// for packed panels, the matrix's own leading dimension when B is read in
// place).  The m/j loops have constant trip counts, so the j loop
// vectorizes and the accumulators stay in registers; kk advances in
// increasing order, which fixes the float summation order per element.
struct BaselineKernel {
  static constexpr size_t kNr = 8;

  static void run(size_t kb, const float* __restrict__ ap,
                  const float* __restrict__ b, size_t b_stride,
                  float* __restrict__ out) {
    static_assert(kMr == 4, "accumulator rows are unrolled by hand");
    float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {}, acc3[kNr] = {};
    for (size_t kk = 0; kk < kb; ++kk) {
      const float* av = ap + kk * kMr;
      const float* bv = b + kk * b_stride;
      const float a0 = av[0], a1 = av[1], a2 = av[2], a3 = av[3];
      for (size_t j = 0; j < kNr; ++j) {
        const float bj = bv[j];
        acc0[j] += a0 * bj;
        acc1[j] += a1 * bj;
        acc2[j] += a2 * bj;
        acc3[j] += a3 * bj;
      }
    }
    std::memcpy(out, acc0, sizeof(acc0));
    std::memcpy(out + kNr, acc1, sizeof(acc1));
    std::memcpy(out + 2 * kNr, acc2, sizeof(acc2));
    std::memcpy(out + 3 * kNr, acc3, sizeof(acc3));
  }
};

void tiles_baseline(Trans trans_a, Trans trans_b, size_t m, size_t n,
                    size_t k, const float* a, size_t lda, const float* b,
                    size_t ldb, float* c, size_t ldc, bool accumulate) {
  sgemm_tiled<BaselineKernel>(trans_a, trans_b, m, n, k, a, lda, b, ldb, c,
                              ldc, accumulate);
}

#ifdef HITOPK_GEMM_AVX2

// The AVX2 kernel: the baseline kernel's arithmetic on a 16-wide tile, two
// ymm accumulators per row.  GCC12 -O2 vectorizes the baseline's
// constant-trip loop only to 128 bits even under target("avx2"), so the
// 256-bit operations are spelled out.  Each step is acc + a * b as a
// separate multiply and add (the target has no FMA to contract them into),
// from zeroed accumulators in increasing kk: the baseline's expression.
struct Avx2Kernel {
  static constexpr size_t kNr = 16;

  [[gnu::target("avx2")]] static void run(size_t kb,
                                          const float* __restrict__ ap,
                                          const float* __restrict__ b,
                                          size_t b_stride,
                                          float* __restrict__ out) {
    static_assert(kMr == 4, "accumulator rows are unrolled by hand");
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    for (size_t kk = 0; kk < kb; ++kk) {
      const float* av = ap + kk * kMr;
      const float* bv = b + kk * b_stride;
      const __m256 b0 = _mm256_loadu_ps(bv);
      const __m256 b1 = _mm256_loadu_ps(bv + 8);
      __m256 ai = _mm256_broadcast_ss(av);
      c00 = _mm256_add_ps(c00, _mm256_mul_ps(ai, b0));
      c01 = _mm256_add_ps(c01, _mm256_mul_ps(ai, b1));
      ai = _mm256_broadcast_ss(av + 1);
      c10 = _mm256_add_ps(c10, _mm256_mul_ps(ai, b0));
      c11 = _mm256_add_ps(c11, _mm256_mul_ps(ai, b1));
      ai = _mm256_broadcast_ss(av + 2);
      c20 = _mm256_add_ps(c20, _mm256_mul_ps(ai, b0));
      c21 = _mm256_add_ps(c21, _mm256_mul_ps(ai, b1));
      ai = _mm256_broadcast_ss(av + 3);
      c30 = _mm256_add_ps(c30, _mm256_mul_ps(ai, b0));
      c31 = _mm256_add_ps(c31, _mm256_mul_ps(ai, b1));
    }
    _mm256_storeu_ps(out, c00);
    _mm256_storeu_ps(out + 8, c01);
    _mm256_storeu_ps(out + 16, c10);
    _mm256_storeu_ps(out + 24, c11);
    _mm256_storeu_ps(out + 32, c20);
    _mm256_storeu_ps(out + 40, c21);
    _mm256_storeu_ps(out + 48, c30);
    _mm256_storeu_ps(out + 56, c31);
  }
};

// The whole tile path compiled for AVX2: flatten inlines the template here,
// and with it the kernel, which only an AVX2 caller may inline.  Packing
// and stores are thus compiled for AVX2 too; the baseline instantiation
// above keeps its own copies.
[[gnu::target("avx2"), gnu::flatten]] void tiles_avx2(
    Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
    const float* a, size_t lda, const float* b, size_t ldb, float* c,
    size_t ldc, bool accumulate) {
  sgemm_tiled<Avx2Kernel>(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
                          accumulate);
}

#endif  // HITOPK_GEMM_AVX2

// ---------------------------------------------------------- skinny paths
//
// At m == 1 or k == 1 the tiles above waste most of their work: three of
// the four accumulator rows multiply zero padding, and op(B) == B^T packs
// the whole (often weight-sized) B per call to feed a single output row.
// The two paths below compute the same float expression per element as the
// tiles — per K block a sum from 0.0f in increasing k, stored into C or
// added to it — so sgemm's results do not depend on which path ran.

// Output columns per block of the skinny paths: one accumulator row of
// eight SSE vectors, with constant trip counts so the j loops vectorize.
constexpr size_t kRowNb = 32;

// One K block of a one-row product with op(B) == B: c(j) (+)= sum over kk
// of a(kk) * b(kk, j), B rows read in place (ldb floats apart).  A ragged
// final block runs the same loops with a runtime width.
void row_times_b(size_t kb, const float* a, size_t a_stride, const float* b,
                 size_t ldb, float* c, size_t n, bool add) {
  for (size_t j0 = 0; j0 < n; j0 += kRowNb) {
    const size_t nb = std::min(kRowNb, n - j0);
    float acc[kRowNb] = {};
    if (nb == kRowNb) {
      for (size_t kk = 0; kk < kb; ++kk) {
        const float av = a[kk * a_stride];
        const float* __restrict__ bv = b + kk * ldb + j0;
        // Fully unrolled, the 32 accumulators stay in eight SSE registers;
        // as a loop, GCC -O2 keeps them on the stack and reloads them per
        // kk, which halves the kernel's speed.
#pragma GCC unroll 32
        for (size_t j = 0; j < kRowNb; ++j) acc[j] += av * bv[j];
      }
    } else {
      for (size_t kk = 0; kk < kb; ++kk) {
        const float av = a[kk * a_stride];
        const float* bv = b + kk * ldb + j0;
        for (size_t j = 0; j < nb; ++j) acc[j] += av * bv[j];
      }
    }
    float* crow = c + j0;
    if (add) {
      for (size_t j = 0; j < nb; ++j) crow[j] += acc[j];
    } else {
      std::memcpy(crow, acc, nb * sizeof(float));
    }
  }
}

// One K block of a one-row product with op(B) == B^T: c(j) (+)= the dot of
// a with stored row j of B, taken in place (no panel pack), four rows in
// flight so four independent sums hide the add latency.
void row_times_bt(size_t kb, const float* a, size_t a_stride, const float* b,
                  size_t ldb, float* c, size_t n, bool add) {
  auto put = [&](size_t j, float acc) { c[j] = add ? c[j] + acc : acc; };
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* b0 = b + j * ldb;
    const float* b1 = b0 + ldb;
    const float* b2 = b1 + ldb;
    const float* b3 = b2 + ldb;
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    for (size_t kk = 0; kk < kb; ++kk) {
      const float av = a[kk * a_stride];
      s0 += av * b0[kk];
      s1 += av * b1[kk];
      s2 += av * b2[kk];
      s3 += av * b3[kk];
    }
    put(j, s0);
    put(j + 1, s1);
    put(j + 2, s2);
    put(j + 3, s3);
  }
  for (; j < n; ++j) {
    const float* bj = b + j * ldb;
    float acc = 0.0f;
    for (size_t kk = 0; kk < kb; ++kk) acc += a[kk * a_stride] * bj[kk];
    put(j, acc);
  }
}

// k == 1: one row of the rank-1 update, c(j) (+)= 0.0f + ai * b(j).  The
// 0.0f + is the tiles' one-step sum from 0.0f: it turns a -0.0 product into
// +0.0 before it meets C, exactly as there.
void rank1_row(float ai, const float* __restrict__ b, float* __restrict__ c,
               size_t n, bool add) {
  const size_t n_full = n / kRowNb * kRowNb;
  if (add) {
    for (size_t j0 = 0; j0 < n_full; j0 += kRowNb) {
      for (size_t j = 0; j < kRowNb; ++j) c[j0 + j] += 0.0f + ai * b[j0 + j];
    }
    for (size_t j = n_full; j < n; ++j) c[j] += 0.0f + ai * b[j];
  } else {
    for (size_t j0 = 0; j0 < n_full; j0 += kRowNb) {
      for (size_t j = 0; j < kRowNb; ++j) c[j0 + j] = 0.0f + ai * b[j0 + j];
    }
    for (size_t j = n_full; j < n; ++j) c[j] = 0.0f + ai * b[j];
  }
}

}  // namespace

void sgemm(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
           const float* a, size_t lda, const float* b, size_t ldb, float* c,
           size_t ldc, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (size_t i = 0; i < m; ++i) {
        std::memset(c + i * ldc, 0, n * sizeof(float));
      }
    }
    return;
  }
  if (k == 1) {
    // Rank-1 update.  op(A) is one column, a_stride floats apart as stored;
    // op(B) is one row, contiguous as stored or gathered once from B's
    // column when B is stored transposed.
    const size_t a_stride = trans_a == Trans::kNo ? lda : 1;
    Scratch<float> b_row(trans_b == Trans::kNo ? 0 : n);
    const float* brow = b;
    if (trans_b == Trans::kYes) {
      for (size_t j = 0; j < n; ++j) b_row[j] = b[j * ldb];
      brow = b_row.data();
    }
    for (size_t i = 0; i < m; ++i) {
      rank1_row(a[i * a_stride], brow, c + i * ldc, n, accumulate);
    }
    return;
  }
  if (m == 1) {
    // One-row product, K blocked as in the tiles.  op(A) is one row,
    // a_stride floats apart as stored.
    const size_t a_stride = trans_a == Trans::kNo ? 1 : lda;
    for (size_t k0 = 0; k0 < k; k0 += kKc) {
      const size_t kb = std::min(kKc, k - k0);
      const bool add = accumulate || k0 > 0;
      if (trans_b == Trans::kNo) {
        row_times_b(kb, a + k0 * a_stride, a_stride, b + k0 * ldb, ldb, c, n,
                    add);
      } else {
        row_times_bt(kb, a + k0 * a_stride, a_stride, b + k0, ldb, c, n,
                     add);
      }
    }
    return;
  }
  internal::sgemm_tiles(dispatched_tile_isa(), trans_a, trans_b, m, n, k, a,
                        lda, b, ldb, c, ldc, accumulate);
}

TileIsa dispatched_tile_isa() {
#ifdef HITOPK_GEMM_AVX2
  static const TileIsa isa = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? TileIsa::kAvx2
                                          : TileIsa::kBaseline;
  }();
  return isa;
#else
  return TileIsa::kBaseline;
#endif
}

namespace internal {

void sgemm_tiles(TileIsa isa, Trans trans_a, Trans trans_b, size_t m,
                 size_t n, size_t k, const float* a, size_t lda,
                 const float* b, size_t ldb, float* c, size_t ldc,
                 bool accumulate) {
  HITOPK_CHECK(m > 0 && n > 0 && k > 0);
#ifdef HITOPK_GEMM_AVX2
  if (isa == TileIsa::kAvx2) {
    HITOPK_CHECK(dispatched_tile_isa() == TileIsa::kAvx2);
    tiles_avx2(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
               accumulate);
    return;
  }
#endif
  HITOPK_CHECK(isa == TileIsa::kBaseline);
  tiles_baseline(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
                 accumulate);
}

}  // namespace internal

void sgemm_naive(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
                 const float* a, size_t lda, const float* b, size_t ldb,
                 float* c, size_t ldc, bool accumulate) {
  // Loop orders mirror the pre-GEMM tape kernels (forward ikj, backward
  // dot-product / rank-1 loops), so bench_micro_gemm's baseline is the real
  // pre-rebuild engine, not a strawman.  Per output element every variant
  // accumulates its k products in increasing order, like sgemm().
  if (!accumulate) {
    for (size_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, n * sizeof(float));
    }
  }
  if (trans_a == Trans::kNo && trans_b == Trans::kNo) {
    for (size_t i = 0; i < m; ++i) {
      for (size_t kk = 0; kk < k; ++kk) {
        const float aik = a[i * lda + kk];
        const float* brow = b + kk * ldb;
        float* crow = c + i * ldc;
        for (size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  } else if (trans_a == Trans::kNo && trans_b == Trans::kYes) {
    for (size_t i = 0; i < m; ++i) {
      const float* arow = a + i * lda;
      for (size_t j = 0; j < n; ++j) {
        const float* brow = b + j * ldb;
        float acc = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        c[i * ldc + j] += acc;
      }
    }
  } else if (trans_a == Trans::kYes && trans_b == Trans::kNo) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float* arow = a + kk * lda;
      const float* brow = b + kk * ldb;
      for (size_t i = 0; i < m; ++i) {
        const float aki = arow[i];
        float* crow = c + i * ldc;
        for (size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
      }
    }
  } else {
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) {
          acc += a[kk * lda + i] * b[j * ldb + kk];
        }
        c[i * ldc + j] += acc;
      }
    }
  }
}

}  // namespace hitopk::gemm

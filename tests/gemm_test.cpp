// Property tests for the SGEMM core: every transpose variant over ragged
// shapes straddling the register-tile boundaries must match the naive
// reference — bitwise when a single K block covers the reduction (both
// kernels then accumulate each output element in increasing k order),
// within float tolerance when K spans blocks.  A blocked-K oracle pins the
// exact per-element float expression, K blocks, accumulation and signed
// zeros included, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/gemm.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace hitopk::gemm {
namespace {

void fill_random(Tensor& t, Rng& rng) { t.fill_normal(rng, 0.0f, 1.0f); }

// Runs sgemm and sgemm_naive on identical inputs and compares.
void check_shape(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
                 bool accumulate, uint64_t seed) {
  Rng rng(seed);
  Tensor a(m * k), b(k * n), c_tiled(m * n), c_naive(m * n);
  fill_random(a, rng);
  fill_random(b, rng);
  if (accumulate) {
    Tensor base(m * n);
    fill_random(base, rng);
    std::copy(base.span().begin(), base.span().end(),
              c_tiled.span().begin());
    std::copy(base.span().begin(), base.span().end(),
              c_naive.span().begin());
  }
  const size_t lda = trans_a == Trans::kNo ? k : m;
  const size_t ldb = trans_b == Trans::kNo ? n : k;
  sgemm(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb,
        c_tiled.data(), n, accumulate);
  sgemm_naive(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb,
              c_naive.data(), n, accumulate);
  const bool exact = k <= kKc && !accumulate;
  for (size_t i = 0; i < m * n; ++i) {
    if (exact) {
      ASSERT_EQ(c_tiled[i], c_naive[i])
          << "element " << i << " m=" << m << " n=" << n << " k=" << k;
    } else {
      ASSERT_NEAR(c_tiled[i], c_naive[i],
                  1e-4f * (1.0f + std::fabs(c_naive[i])))
          << "element " << i << " m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(Gemm, AllVariantsRaggedShapesMatchNaive) {
  // Shapes straddle the kMr=4 / kNr=8 tile edges: one below, exact, one
  // above, plus degenerate single-row/column cases.
  const size_t sizes[] = {1, 3, 4, 5, 7, 8, 9, 16, 17, 33};
  const Trans variants[] = {Trans::kNo, Trans::kYes};
  uint64_t seed = 1;
  for (Trans ta : variants) {
    for (Trans tb : variants) {
      for (size_t m : sizes) {
        for (size_t n : sizes) {
          for (size_t k : {size_t{1}, size_t{5}, size_t{32}}) {
            check_shape(ta, tb, m, n, k, false, seed++);
          }
        }
      }
    }
  }
}

TEST(Gemm, BitwiseIdenticalToKOrderedLoopWithinOneKBlock) {
  // The accumulation-order contract the determinism tests lean on: for
  // K <= kKc each output element is the increasing-k float sum.
  check_shape(Trans::kNo, Trans::kNo, 32, 96, 64, false, 101);
  check_shape(Trans::kNo, Trans::kYes, 32, 64, 96, false, 102);
  check_shape(Trans::kYes, Trans::kNo, 64, 96, 32, false, 103);
}

TEST(Gemm, AccumulateAddsIntoExistingC) {
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      check_shape(ta, tb, 13, 21, 17, true, 201);
    }
  }
}

TEST(Gemm, LargeKSpansMultipleBlocks) {
  check_shape(Trans::kNo, Trans::kNo, 9, 11, kKc + 37, false, 301);
  check_shape(Trans::kNo, Trans::kYes, 9, 11, 2 * kKc + 3, false, 302);
  check_shape(Trans::kYes, Trans::kNo, 9, 11, kKc + 1, true, 303);
}

TEST(Gemm, KZeroOverwritesOrKeepsC) {
  Tensor a(0), b(0), c(6);
  c.fill(3.0f);
  sgemm(Trans::kNo, Trans::kNo, 2, 3, 0, a.data(), 1, b.data(), 3, c.data(),
        3, /*accumulate=*/true);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(c[i], 3.0f);
  sgemm(Trans::kNo, Trans::kNo, 2, 3, 0, a.data(), 1, b.data(), 3, c.data(),
        3, /*accumulate=*/false);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(c[i], 0.0f);
}

TEST(Gemm, StridedOutputRowsRespectLdc) {
  // C rows embedded in a wider matrix: columns outside n are untouched.
  const size_t m = 5, n = 6, k = 7, ldc = 9;
  Rng rng(11);
  Tensor a(m * k), b(k * n);
  fill_random(a, rng);
  fill_random(b, rng);
  std::vector<float> c(m * ldc, -7.0f);
  Tensor ref(m * n);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, c.data(),
        ldc, false);
  sgemm_naive(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n,
              ref.data(), n, false);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < ldc; ++j) {
      if (j < n) {
        EXPECT_EQ(c[i * ldc + j], ref[i * n + j]);
      } else {
        EXPECT_EQ(c[i * ldc + j], -7.0f) << "padding clobbered";
      }
    }
  }
}

// ------------------------------------------------ bit-exact blocked-K oracle

// The float expression sgemm promises for every output element, written
// out independently of any kernel: per kKc-wide K block, a sum from 0.0f in
// increasing k; the first block overwrites C (unless accumulating), every
// later block is added to it.
void blocked_k_oracle(Trans trans_a, Trans trans_b, size_t m, size_t n,
                      size_t k, const float* a, size_t lda, const float* b,
                      size_t ldb, float* c, size_t ldc, bool accumulate) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float& out = c[i * ldc + j];
      if (!accumulate) out = 0.0f;
      for (size_t k0 = 0; k0 < k; k0 += kKc) {
        float acc = 0.0f;
        for (size_t kk = k0; kk < std::min(k, k0 + kKc); ++kk) {
          const float av =
              trans_a == Trans::kNo ? a[i * lda + kk] : a[kk * lda + i];
          const float bv =
              trans_b == Trans::kNo ? b[kk * ldb + j] : b[j * ldb + kk];
          acc += av * bv;
        }
        out = k0 == 0 && !accumulate ? acc : out + acc;
      }
    }
  }
}

// Normal values with `zero_share` of them replaced by +0.0f or -0.0f.
std::vector<float> signed_zero_mix(size_t count, double zero_share,
                                   Rng& rng) {
  std::vector<float> v(count);
  for (float& x : v) {
    if (rng.uniform() < zero_share) {
      x = rng.uniform() < 0.5 ? -0.0f : 0.0f;
    } else {
      x = static_cast<float>(rng.normal());
    }
  }
  return v;
}

// Runs sgemm and the oracle on strided operands (every leading dimension
// padded past its row) and compares the whole C buffer, padding included,
// by bit pattern: == would accept +0.0 for -0.0.
void check_bitwise(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
                   bool accumulate, uint64_t seed) {
  Rng rng(seed);
  const size_t lda = (trans_a == Trans::kNo ? k : m) + 3;
  const size_t ldb = (trans_b == Trans::kNo ? n : k) + 5;
  const size_t ldc = n + 7;
  const size_t a_rows = trans_a == Trans::kNo ? m : k;
  const size_t b_rows = trans_b == Trans::kNo ? k : n;
  // Half the entries are signed zeros, so many k = 1 products and short
  // sums are exactly +-0 and C holds -0.0 where they land.
  const std::vector<float> a = signed_zero_mix(a_rows * lda, 0.5, rng);
  const std::vector<float> b = signed_zero_mix(b_rows * ldb, 0.5, rng);
  std::vector<float> c_fast = signed_zero_mix(m * ldc, 0.5, rng);
  std::vector<float> c_oracle = c_fast;
  sgemm(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb,
        c_fast.data(), ldc, accumulate);
  blocked_k_oracle(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb,
                   c_oracle.data(), ldc, accumulate);
  for (size_t e = 0; e < c_fast.size(); ++e) {
    ASSERT_EQ(std::bit_cast<uint32_t>(c_fast[e]),
              std::bit_cast<uint32_t>(c_oracle[e]))
        << "m=" << m << " n=" << n << " k=" << k << " row " << e / ldc
        << " col " << e % ldc << " trans_a=" << (trans_a == Trans::kYes)
        << " trans_b=" << (trans_b == Trans::kYes)
        << " accumulate=" << accumulate << ": got " << c_fast[e]
        << ", oracle " << c_oracle[e];
  }
}

constexpr Trans kTransVariants[] = {Trans::kNo, Trans::kYes};
// Ragged against the 32-wide column blocks of the skinny paths and the
// 8-wide tiles of the generic one.
constexpr size_t kRaggedN[] = {1, 7, 31, 32, 33, 50, 100};

TEST(GemmBitwise, OneRowProductsMatchBlockedKOracle) {
  // m = 1 is the batch-1 forward (op(B) == B) and dA = dC*B^T (op(B) ==
  // B^T); K straddles one, two and four kKc blocks.  m = 2 and 5 run the
  // generic tiles against the same oracle.
  uint64_t seed = 1000;
  for (Trans ta : kTransVariants) {
    for (Trans tb : kTransVariants) {
      for (bool accumulate : {false, true}) {
        for (size_t m : {size_t{1}, size_t{2}, size_t{5}}) {
          for (size_t k : {1, 2, 255, 256, 257, 600, 1024}) {
            for (size_t n : kRaggedN) {
              check_bitwise(ta, tb, m, n, k, accumulate, seed++);
            }
          }
        }
      }
    }
  }
}

TEST(GemmBitwise, RankOneUpdatesMatchBlockedKOracle) {
  // k = 1 is every batch-1 weight gradient dW = A^T*dC: c = 0.0f + a*b, or
  // c + (0.0f + a*b) when accumulating, which is what turns a -0.0 product
  // into +0.0 before it meets C.
  uint64_t seed = 5000;
  for (Trans ta : kTransVariants) {
    for (Trans tb : kTransVariants) {
      for (bool accumulate : {false, true}) {
        for (size_t m : {1, 2, 5, 33, 64}) {
          for (size_t n : kRaggedN) {
            check_bitwise(ta, tb, m, n, 1, accumulate, seed++);
          }
        }
      }
    }
  }
}

TEST(GemmBitwise, SignedZeroProductIntoNegativeZeroBecomesPositiveZero) {
  // The one-step expression: (-0.0) + (0.0f + (-0.0 * 1)) is +0.0, while a
  // kernel that adds the bare product would leave -0.0.
  const float a[1] = {-0.0f};
  const float b[1] = {1.0f};
  for (Trans ta : kTransVariants) {
    for (Trans tb : kTransVariants) {
      float c[1] = {-0.0f};
      sgemm(ta, tb, 1, 1, 1, a, 1, b, 1, c, 1, /*accumulate=*/true);
      EXPECT_EQ(std::bit_cast<uint32_t>(c[0]), 0u);
      c[0] = -0.0f;
      sgemm(ta, tb, 1, 1, 1, a, 1, b, 1, c, 1, /*accumulate=*/false);
      EXPECT_EQ(std::bit_cast<uint32_t>(c[0]), 0u);
    }
  }
}

}  // namespace
}  // namespace hitopk::gemm

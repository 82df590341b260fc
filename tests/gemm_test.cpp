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
#include <functional>
#include <limits>
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
  // Shapes straddle the 4-row and the 8- and 16-column tile edges: one
  // below, exact, one above, plus degenerate single-row/column cases.
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

// The signed-zero mix with `share` of the entries each replaced by NaN,
// +Inf or -Inf.  The NaN is made at run time from Inf * 0, so it has the
// bits this CPU's arithmetic gives every NaN it creates (Inf - Inf, Inf *
// 0): which operand a NaN-propagating add returns then cannot show.
std::vector<float> non_finite_mix(size_t count, double share, Rng& rng) {
  volatile float inf_v = std::numeric_limits<float>::infinity();
  const float inf = inf_v;
  const float nan = inf_v * 0.0f;
  std::vector<float> v = signed_zero_mix(count, 0.3, rng);
  for (float& x : v) {
    const double u = rng.uniform();
    if (u < share) {
      x = nan;
    } else if (u < 2 * share) {
      x = inf;
    } else if (u < 3 * share) {
      x = -inf;
    }
  }
  return v;
}

// sgemm, or one tile instantiation reached directly.
using Product = std::function<void(Trans, Trans, size_t, size_t, size_t,
                                   const float*, size_t, const float*,
                                   size_t, float*, size_t, bool)>;

// Runs `product` and the oracle on strided operands (every leading
// dimension padded past its row) and compares the whole C buffer, padding
// included, by bit pattern: == would accept +0.0 for -0.0.  Operands are
// the signed-zero mix, or with `non_finite` also NaN and +-Inf.
void check_bitwise_with(const Product& product, bool non_finite,
                        Trans trans_a, Trans trans_b, size_t m, size_t n,
                        size_t k, bool accumulate, uint64_t seed) {
  Rng rng(seed);
  const size_t lda = (trans_a == Trans::kNo ? k : m) + 3;
  const size_t ldb = (trans_b == Trans::kNo ? n : k) + 5;
  const size_t ldc = n + 7;
  const size_t a_rows = trans_a == Trans::kNo ? m : k;
  const size_t b_rows = trans_b == Trans::kNo ? k : n;
  // Half the entries are signed zeros, so many k = 1 products and short
  // sums are exactly +-0 and C holds -0.0 where they land.
  auto operands = [&](size_t count) {
    return non_finite ? non_finite_mix(count, 0.02, rng)
                      : signed_zero_mix(count, 0.5, rng);
  };
  const std::vector<float> a = operands(a_rows * lda);
  const std::vector<float> b = operands(b_rows * ldb);
  std::vector<float> c_fast = operands(m * ldc);
  std::vector<float> c_oracle = c_fast;
  product(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb,
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

void check_bitwise(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
                   bool accumulate, uint64_t seed) {
  check_bitwise_with(sgemm, false, trans_a, trans_b, m, n, k, accumulate,
                     seed);
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

// ------------------------------------------ both tile instantiations
//
// The baseline (4x8) and AVX2 (4x16) tiles, each reached directly through
// internal::sgemm_tiles, against the same blocked-K oracle.  Only one of
// them runs inside sgemm on a given CPU; this holds the other to the same
// bits too.  The AVX2 cases skip on CPUs without AVX2.

class GemmTiles : public ::testing::TestWithParam<TileIsa> {
 protected:
  void SetUp() override {
    if (GetParam() == TileIsa::kAvx2 &&
        dispatched_tile_isa() != TileIsa::kAvx2) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }

  Product tiles() const {
    const TileIsa isa = GetParam();
    return [isa](Trans ta, Trans tb, size_t m, size_t n, size_t k,
                 const float* a, size_t lda, const float* b, size_t ldb,
                 float* c, size_t ldc, bool accumulate) {
      internal::sgemm_tiles(isa, ta, tb, m, n, k, a, lda, b, ldb, c, ldc,
                            accumulate);
    };
  }
};

constexpr Trans kAllTrans[][2] = {{Trans::kNo, Trans::kNo},
                                  {Trans::kNo, Trans::kYes},
                                  {Trans::kYes, Trans::kNo},
                                  {Trans::kYes, Trans::kYes}};

TEST_P(GemmTiles, DenseCnnConvShapesMatchBlockedKOracle) {
  // The CNN proxy's per-image products (m x n x k): conv2 forward (NN) and
  // dW (NT) 16x144x144, dcol (TN) 144x144x16, conv1 forward 16x144x9 and
  // conv1 dW 16x9x144; every Trans variant of each.
  struct Shape {
    size_t m, n, k;
  };
  const Shape shapes[] = {
      {16, 144, 144}, {144, 144, 16}, {16, 144, 9}, {16, 9, 144}};
  uint64_t seed = 7000;
  for (const Shape& sh : shapes) {
    for (const auto& t : kAllTrans) {
      for (bool accumulate : {false, true}) {
        check_bitwise_with(tiles(), false, t[0], t[1], sh.m, sh.n, sh.k,
                           accumulate, seed++);
      }
    }
  }
}

TEST_P(GemmTiles, RaggedShapesMatchBlockedKOracle) {
  // m straddles the 4-row tile, n the 8- and 16-wide tiles, and K one,
  // two and three kKc blocks.
  uint64_t seed = 8000;
  for (const auto& t : kAllTrans) {
    for (bool accumulate : {false, true}) {
      for (size_t m : {3, 4, 5}) {
        for (size_t n : {7, 8, 9, 15, 16, 17, 31, 33}) {
          for (size_t k : {2, 255, 256, 257, 600}) {
            check_bitwise_with(tiles(), false, t[0], t[1], m, n, k,
                               accumulate, seed++);
          }
        }
      }
    }
  }
}

TEST_P(GemmTiles, NanAndInfOperandsMatchBlockedKOracle) {
  // NaN and +-Inf in A, B and C: Inf * 0 and Inf - Inf turn into NaN in
  // the same places, and the rest keep their sign.
  uint64_t seed = 9000;
  for (const auto& t : kAllTrans) {
    for (bool accumulate : {false, true}) {
      for (size_t m : {3, 5}) {
        for (size_t n : {9, 17, 33}) {
          for (size_t k : {2, 5, 33, 257}) {
            check_bitwise_with(tiles(), true, t[0], t[1], m, n, k,
                               accumulate, seed++);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, GemmTiles, ::testing::Values(TileIsa::kBaseline, TileIsa::kAvx2),
    [](const ::testing::TestParamInfo<TileIsa>& info) {
      return info.param == TileIsa::kAvx2 ? "Avx2" : "Baseline";
    });

}  // namespace
}  // namespace hitopk::gemm

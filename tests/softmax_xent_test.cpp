// Softmax cross-entropy numerics: Tape::softmax_cross_entropy (polynomial
// expf, float denominator) checked per step against a plain double loop
// written here — loss, probabilities, and the gradient (P - onehot)/n.
// Trajectory-level agreement (convergence curves within run-to-run noise)
// is validated by the Fig. 10 harness; these tests pin the per-step
// numerics that make that possible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "autodiff/tape.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace hitopk::ad {
namespace {

struct XentRun {
  double loss = 0.0;
  std::vector<float> probs;
  std::vector<float> grad;
};

XentRun run_xent(const Tensor& logits, const std::vector<int>& labels) {
  XentRun out;
  out.grad.assign(logits.size(), 0.0f);
  Tape tape;
  const VarId l = tape.leaf(logits.span(), out.grad, logits.rows(),
                            logits.cols());
  out.loss = tape.softmax_cross_entropy(l, labels);
  const VarId loss_node = l + 1;
  const auto probs = tape.value(loss_node);
  out.probs.assign(probs.begin(), probs.end());
  tape.backward();
  return out;
}

// The oracle: libm exp and every sum in double, the loss averaged over
// rows of -log(max(1e-12, p_label)).
struct XentOracle {
  double loss = 0.0;
  std::vector<double> probs;
  std::vector<double> grad;
};

XentOracle double_oracle(const Tensor& logits,
                         const std::vector<int>& labels) {
  const size_t n = logits.rows();
  const size_t c = logits.cols();
  XentOracle out;
  out.probs.resize(n * c);
  out.grad.resize(n * c);
  for (size_t i = 0; i < n; ++i) {
    double max_logit = logits[i * c];
    for (size_t j = 1; j < c; ++j) {
      max_logit = std::max(max_logit, static_cast<double>(logits[i * c + j]));
    }
    double denom = 0.0;
    for (size_t j = 0; j < c; ++j) {
      denom += std::exp(static_cast<double>(logits[i * c + j]) - max_logit);
    }
    for (size_t j = 0; j < c; ++j) {
      const double p =
          std::exp(static_cast<double>(logits[i * c + j]) - max_logit) / denom;
      const double onehot = static_cast<int>(j) == labels[i] ? 1.0 : 0.0;
      out.probs[i * c + j] = p;
      out.grad[i * c + j] = (p - onehot) / static_cast<double>(n);
    }
    out.loss -= std::log(
        std::max(1e-12, out.probs[i * c + static_cast<size_t>(labels[i])]));
  }
  out.loss /= static_cast<double>(n);
  return out;
}

TEST(SoftmaxXent, MatchesDoubleOracle) {
  Rng rng(11);
  const size_t batch = 32, classes = 20;
  // Logit scales from tame to extreme (post-max differences down to -60):
  // the polynomial exp and float accumulation must track the double
  // oracle everywhere the training loop can visit.
  for (const float scale : {1.0f, 5.0f, 30.0f}) {
    Tensor logits(batch, classes);
    logits.fill_normal(rng, 0.0f, scale);
    std::vector<int> labels;
    for (size_t i = 0; i < batch; ++i) {
      labels.push_back(static_cast<int>(rng.uniform_index(classes)));
    }
    const XentRun f = run_xent(logits, labels);
    const XentOracle d = double_oracle(logits, labels);
    EXPECT_NEAR(f.loss, d.loss, 1e-5 * (1.0 + std::fabs(d.loss)))
        << "scale=" << scale;
    for (size_t i = 0; i < f.probs.size(); ++i) {
      EXPECT_NEAR(f.probs[i], d.probs[i], 2e-6 + 2e-6 * d.probs[i])
          << "scale=" << scale << " prob " << i;
    }
    for (size_t i = 0; i < f.grad.size(); ++i) {
      EXPECT_NEAR(f.grad[i], d.grad[i], 2e-6) << "scale=" << scale
                                              << " grad " << i;
    }
  }
}

TEST(SoftmaxXent, UniformLogitsGiveLogClasses) {
  // exp(0) is exactly 1 in the polynomial path, so uniform logits give the
  // textbook loss log(C).
  Tape tape;
  Tensor logits(4, 5);
  const double loss = tape.softmax_cross_entropy(
      tape.leaf(logits.span(), {}, 4, 5), std::vector<int>{0, 1, 2, 3});
  EXPECT_NEAR(loss, std::log(5.0), 1e-6);
}

TEST(SoftmaxXent, ProbabilitiesSumToOne) {
  Rng rng(13);
  Tensor logits(16, 10);
  logits.fill_normal(rng, 0.0f, 3.0f);
  std::vector<int> labels(16, 0);
  const XentRun f = run_xent(logits, labels);
  for (size_t i = 0; i < 16; ++i) {
    float sum = 0.0f;
    for (size_t j = 0; j < 10; ++j) sum += f.probs[i * 10 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f) << "row " << i;
  }
}

TEST(SoftmaxXent, ExtremeLogitGapsStayFinite) {
  // A logit 200 below the row max must produce a vanishing probability
  // (the exp argument clamps at -80), never a NaN or an overflow.
  Tape tape;
  Tensor logits = Tensor::from(1, 3, {100.0f, -100.0f, 99.0f});
  const double loss = tape.softmax_cross_entropy(
      tape.leaf(logits.span(), {}, 1, 3), std::vector<int>{0});
  EXPECT_TRUE(std::isfinite(loss));
  const auto probs = tape.value(1);
  EXPECT_LT(probs[1], 1e-30f);
  EXPECT_GT(probs[0], 0.7f);
}

}  // namespace
}  // namespace hitopk::ad

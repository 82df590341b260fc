// Tests for the synthetic tasks and the distributed convergence harness
// (Fig. 10 / Table 2 machinery).  Convergence runs are kept short; the full
// curves live in bench_fig10_convergence.
#include <gtest/gtest.h>

#include <cmath>

#include "train/checkpoint.h"
#include "train/convergence.h"
#include "train/synthetic.h"

namespace hitopk::train {
namespace {

ConvergenceOptions quick(ConvergenceAlgorithm algorithm, int epochs = 8) {
  ConvergenceOptions options;
  options.algorithm = algorithm;
  options.epochs = epochs;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 32;  // global batch 128, the calibrated regime
  options.density = 0.05;
  options.seed = 21;
  return options;
}

// ------------------------------------------------------------ tasks
TEST(SyntheticTasks, VisionTaskShape) {
  auto task = make_vision_task(3);
  EXPECT_EQ(task->name(), "resnet50-proxy");
  EXPECT_EQ(task->quality_metric(), "top-5 accuracy");
  EXPECT_GT(task->param_count(), 10'000u);
  EXPECT_EQ(task->params().size(), task->param_count());
  // Segments tile the flat parameter vector exactly.
  size_t covered = 0;
  for (const auto& seg : task->segments()) {
    EXPECT_EQ(seg.begin, covered);
    covered += seg.count;
  }
  EXPECT_EQ(covered, task->param_count());
}

TEST(SyntheticTasks, SequenceTaskShape) {
  auto task = make_sequence_task(3);
  EXPECT_EQ(task->quality_metric(), "token accuracy");
  size_t covered = 0;
  for (const auto& seg : task->segments()) {
    EXPECT_EQ(seg.begin, covered);
    covered += seg.count;
  }
  EXPECT_EQ(covered, task->param_count());
}

TEST(SyntheticTasks, GradientIsDeterministic) {
  auto task = make_vision_task(5);
  std::vector<size_t> idx{0, 1, 2, 3};
  Tensor g1(task->param_count()), g2(task->param_count());
  const double l1 = task->gradient(idx, g1.span());
  const double l2 = task->gradient(idx, g2.span());
  EXPECT_EQ(l1, l2);
  for (size_t i = 0; i < g1.size(); ++i) ASSERT_EQ(g1[i], g2[i]);
}

TEST(SyntheticTasks, GradientDescendsLoss) {
  auto task = make_vision_task(7);
  std::vector<size_t> idx;
  for (size_t i = 0; i < 64; ++i) idx.push_back(i);
  Tensor g(task->param_count());
  const double before = task->gradient(idx, g.span());
  auto params = task->params();
  for (size_t i = 0; i < params.size(); ++i) params[i] -= 0.05f * g[i];
  Tensor g2(task->param_count());
  const double after = task->gradient(idx, g2.span());
  EXPECT_LT(after, before);
}

TEST(SyntheticTasks, FreshTaskNearChanceQuality) {
  auto task = make_vision_task(9);
  // 50 classes, top-5: chance = 10%.
  const double q = task->evaluate();
  EXPECT_GT(q, 0.02);
  EXPECT_LT(q, 0.35);
}

TEST(SyntheticTasks, IndependentSeedsGiveDifferentData) {
  auto a = make_vision_task(1);
  auto b = make_vision_task(2);
  std::vector<size_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
  Tensor ga(a->param_count()), gb(b->param_count());
  const double la = a->gradient(idx, ga.span());
  const double lb = b->gradient(idx, gb.span());
  EXPECT_NE(la, lb);
}

TEST(SyntheticTasks, CnnTaskShape) {
  auto task = make_cnn_task(3);
  EXPECT_EQ(task->quality_metric(), "top-1 accuracy");
  size_t covered = 0;
  for (const auto& seg : task->segments()) {
    EXPECT_EQ(seg.begin, covered);
    covered += seg.count;
  }
  EXPECT_EQ(covered, task->param_count());
  // Fresh CNN near chance (8 classes).
  const double q = task->evaluate();
  EXPECT_GT(q, 0.03);
  EXPECT_LT(q, 0.35);
}

// ------------------------------------------------------------ harness
TEST(Convergence, DenseLearnsVisionTask) {
  auto task = make_vision_task(11);
  const auto result =
      run_convergence(*task, quick(ConvergenceAlgorithm::kDense, 10));
  EXPECT_GT(result.final_quality, 0.8);
  // Loss decreases from first to last epoch.
  EXPECT_LT(result.curve.back().train_loss, result.curve.front().train_loss);
}

TEST(Convergence, DenseLearnsSequenceTask) {
  auto task = make_sequence_task(11);
  const auto result =
      run_convergence(*task, quick(ConvergenceAlgorithm::kDense, 10));
  EXPECT_GT(result.final_quality, 0.5);
}

TEST(Convergence, SparseAlgorithmsTrackDense) {
  // Table 2 shape: top-k variants land within a few points of dense.
  const int epochs = 12;
  auto dense_task = make_vision_task(13);
  const auto dense =
      run_convergence(*dense_task, quick(ConvergenceAlgorithm::kDense, epochs));
  auto topk_task = make_vision_task(13);
  const auto topk =
      run_convergence(*topk_task, quick(ConvergenceAlgorithm::kTopk, epochs));
  auto mstopk_task = make_vision_task(13);
  const auto mstopk = run_convergence(
      *mstopk_task, quick(ConvergenceAlgorithm::kMstopk, epochs));
  EXPECT_GT(dense.final_quality, 0.8);
  EXPECT_GT(topk.final_quality, dense.final_quality - 0.08);
  EXPECT_GT(mstopk.final_quality, dense.final_quality - 0.08);
  // Dense is the ceiling (small tolerance for eval noise).
  EXPECT_GE(dense.final_quality + 0.02, topk.final_quality);
  EXPECT_GE(dense.final_quality + 0.02, mstopk.final_quality);
}

TEST(Convergence, CnnLearnsTranslationInvariantPatterns) {
  // The real-convolution task: dense training must solve it, and MSTopK
  // sparsified training must stay close — conv gradients through the same
  // sparsification path as the paper's CNNs.
  auto dense_task = make_cnn_task(25);
  ConvergenceOptions options = quick(ConvergenceAlgorithm::kDense, 8);
  options.learning_rate = 0.4;
  const auto dense = run_convergence(*dense_task, options);
  EXPECT_GT(dense.final_quality, 0.8);
  auto sparse_task = make_cnn_task(25);
  options.algorithm = ConvergenceAlgorithm::kMstopk;
  const auto sparse = run_convergence(*sparse_task, options);
  EXPECT_GT(sparse.final_quality, dense.final_quality - 0.15);
}

TEST(Convergence, RandomKIsMarkedlyWorse) {
  // Magnitude-based selection matters: random-k at the same density
  // converges far slower (ablation).
  const int epochs = 10;
  auto topk_task = make_vision_task(15);
  const auto topk =
      run_convergence(*topk_task, quick(ConvergenceAlgorithm::kTopk, epochs));
  auto random_task = make_vision_task(15);
  const auto random = run_convergence(
      *random_task, quick(ConvergenceAlgorithm::kRandomk, epochs));
  EXPECT_GT(topk.final_quality, random.final_quality + 0.1);
}

TEST(Convergence, ErrorFeedbackResidualStaysBounded) {
  auto task = make_vision_task(17);
  const auto result =
      run_convergence(*task, quick(ConvergenceAlgorithm::kTopk, 10));
  // EF invariant: the residual does not blow up over training.
  const double early = result.curve[2].residual_norm;
  const double late = result.curve.back().residual_norm;
  EXPECT_LT(late, 20.0 * (early + 1.0));
}

TEST(Convergence, WithoutErrorFeedbackConvergesWorse) {
  const int epochs = 10;
  ConvergenceOptions with_ef = quick(ConvergenceAlgorithm::kTopk, epochs);
  with_ef.density = 0.02;
  ConvergenceOptions without_ef = with_ef;
  without_ef.use_error_feedback = false;
  auto task_a = make_vision_task(19);
  auto task_b = make_vision_task(19);
  const auto ef = run_convergence(*task_a, with_ef);
  const auto no_ef = run_convergence(*task_b, without_ef);
  EXPECT_GT(ef.final_quality, no_ef.final_quality - 0.01);
}

TEST(Convergence, MstopkUsesLessCommunicationTime) {
  // The whole point: HiTopKComm's simulated communication time is far below
  // NaiveAG's at the same density.
  const int epochs = 4;
  auto topk_task = make_vision_task(23);
  const auto topk =
      run_convergence(*topk_task, quick(ConvergenceAlgorithm::kTopk, epochs));
  auto mstopk_task = make_vision_task(23);
  const auto mstopk = run_convergence(
      *mstopk_task, quick(ConvergenceAlgorithm::kMstopk, epochs));
  EXPECT_LT(mstopk.simulated_comm_seconds, 0.5 * topk.simulated_comm_seconds);
}

TEST(Convergence, Batch1MstopkEngineDigestIsFrozen) {
  // Local batch 1 makes every autodiff product skinny: forward and dA are
  // one-row products (the 300-wide hidden layer's forward spans two K
  // blocks, and 300 and 50 are ragged against every column block), and
  // every dW is a k = 1 rank-1 update.  The digest was captured with the
  // generic 4x8 tiled kernel before the skinny paths existed, so it pins
  // them to the tiled kernel's float expression bit for bit.
  auto task = make_vision_task(41, "batch1-probe", {300, 64});
  ConvergenceOptions options;
  options.algorithm = ConvergenceAlgorithm::kMstopk;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 1;
  options.density = 0.05;
  options.learning_rate = 0.01;
  options.warmup_epochs = 0;
  options.epochs = 1;
  options.seed = 41;
  ConvergenceEngine engine(*task, options);
  engine.begin_epoch();
  for (int i = 0; i < 6; ++i) engine.step();
  const auto params = task->params();
  const uint64_t digest =
      fnv1a64({reinterpret_cast<const uint8_t*>(params.data()),
               params.size() * sizeof(float)});
  EXPECT_EQ(digest, 0x8e14e814d02a0255ull) << std::hex << "0x" << digest << "ull";
}

TEST(Convergence, DenseCnnEngineDigestIsFrozen) {
  // Dense-SGD on the CNN proxy at local batch 32: every step runs the conv
  // products through the generic GEMM tiles (forward 16x144x144 NN, dW NT,
  // dcol TN, and conv1's k = 9 and n = 9 products) and both relu masks.
  // The digest was captured with the baseline 4x8 tiles and branching
  // relu loops, so it pins the AVX2 tiles and the branch-free masks to
  // their float expressions bit for bit.
  auto task = make_cnn_task(43);
  ConvergenceOptions options;
  options.algorithm = ConvergenceAlgorithm::kDense;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 32;
  options.learning_rate = 0.4;
  options.warmup_epochs = 0;
  options.epochs = 1;
  options.seed = 43;
  ConvergenceEngine engine(*task, options);
  engine.begin_epoch();
  for (int i = 0; i < 3; ++i) engine.step();
  const auto params = task->params();
  const uint64_t digest =
      fnv1a64({reinterpret_cast<const uint8_t*>(params.data()),
               params.size() * sizeof(float)});
  EXPECT_EQ(digest, 0xf5a0c2a0f3701641ull) << std::hex << "0x" << digest << "ull";
}

TEST(Convergence, GtopkEngineDigestIsFrozen) {
  // gTopK-SGD with error feedback on a 3x2 world: six ranks run the
  // fold, two hypercube rounds and the unfold, and every step applies and
  // absorbs the per-rank residuals.  The digest was captured while the
  // local selection and the merges ran outside the recorded schedule, so
  // it pins them bit for bit now that they are data-pass steps.
  auto task = make_vision_task(47);
  ConvergenceOptions options;
  options.algorithm = ConvergenceAlgorithm::kGtopk;
  options.nodes = 3;
  options.gpus_per_node = 2;
  options.local_batch = 16;
  options.density = 0.05;
  options.use_error_feedback = true;
  options.warmup_epochs = 0;
  options.epochs = 1;
  options.seed = 47;
  ConvergenceEngine engine(*task, options);
  engine.begin_epoch();
  for (int i = 0; i < 4; ++i) engine.step();
  const auto params = task->params();
  const uint64_t digest =
      fnv1a64({reinterpret_cast<const uint8_t*>(params.data()),
               params.size() * sizeof(float)});
  EXPECT_EQ(digest, 0xa85292facce6afe0ull) << std::hex << "0x" << digest << "ull";
}

TEST(Convergence, CurveHasOneEntryPerEpoch) {
  auto task = make_vision_task(29);
  const auto result =
      run_convergence(*task, quick(ConvergenceAlgorithm::kDense, 5));
  ASSERT_EQ(result.curve.size(), 5u);
  for (int e = 0; e < 5; ++e) EXPECT_EQ(result.curve[e].epoch, e + 1);
}

// ------------------------------------------------- option validation
// Each bad field is rejected with ConfigError when the engine is built,
// before any member is sized from it: unchecked, local_batch = 0 divides
// by zero and a negative density reaches an out-of-range size_t cast.
template <typename Mutate>
void expect_rejected(ConvergenceAlgorithm algorithm, Mutate mutate) {
  auto task = make_vision_task(31);
  ConvergenceOptions options = quick(algorithm);
  mutate(options);
  EXPECT_THROW(ConvergenceEngine(*task, options), ConfigError);
}

TEST(ConvergenceOptionsValidation, RejectsZeroLocalBatch) {
  expect_rejected(ConvergenceAlgorithm::kDense,
                  [](ConvergenceOptions& o) { o.local_batch = 0; });
  expect_rejected(ConvergenceAlgorithm::kDense,
                  [](ConvergenceOptions& o) { o.local_batch = -4; });
}

TEST(ConvergenceOptionsValidation, RejectsDensityOutsideUnitInterval) {
  for (const double density : {-0.5, 0.0, 1.5, std::nan("")}) {
    expect_rejected(ConvergenceAlgorithm::kTopk,
                    [&](ConvergenceOptions& o) { o.density = density; });
  }
}

TEST(ConvergenceOptionsValidation, RejectsNonPositiveMstopkSamplings) {
  expect_rejected(ConvergenceAlgorithm::kMstopk,
                  [](ConvergenceOptions& o) { o.mstopk_samplings = 0; });
}

TEST(ConvergenceOptionsValidation, RejectsNonPositiveWorldShape) {
  expect_rejected(ConvergenceAlgorithm::kDense,
                  [](ConvergenceOptions& o) { o.nodes = 0; });
  expect_rejected(ConvergenceAlgorithm::kDense,
                  [](ConvergenceOptions& o) { o.gpus_per_node = -1; });
  expect_rejected(ConvergenceAlgorithm::kDense, [](ConvergenceOptions& o) {
    o.nodes = 1 << 16;
    o.gpus_per_node = 1 << 16;  // nodes * gpus_per_node overflows int
  });
}

TEST(ConvergenceOptionsValidation, RejectsNonPositiveEpochs) {
  expect_rejected(ConvergenceAlgorithm::kDense,
                  [](ConvergenceOptions& o) { o.epochs = 0; });
  expect_rejected(ConvergenceAlgorithm::kDense,
                  [](ConvergenceOptions& o) { o.warmup_epochs = -1; });
}

TEST(ConvergenceOptionsValidation, RejectsNonPositiveLocalSgdPeriod) {
  expect_rejected(ConvergenceAlgorithm::kLocalSgd,
                  [](ConvergenceOptions& o) { o.local_sgd_period = 0; });
}

TEST(ConvergenceOptionsValidation, RejectsNonFiniteLearningRate) {
  for (const double lr : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    expect_rejected(ConvergenceAlgorithm::kDense,
                    [&](ConvergenceOptions& o) { o.learning_rate = lr; });
  }
}

TEST(ConvergenceOptionsValidation, RejectsGlobalBatchLargerThanTrainingSet) {
  expect_rejected(ConvergenceAlgorithm::kDense,
                  [](ConvergenceOptions& o) { o.local_batch = 1 << 30; });
}

TEST(Convergence, AlgorithmNamesRoundTrip) {
  for (const char* name : {"dense", "topk", "mstopk", "randomk"}) {
    const auto algorithm = convergence_algorithm_from_name(name);
    EXPECT_FALSE(convergence_algorithm_name(algorithm).empty());
  }
  EXPECT_THROW(convergence_algorithm_from_name("adam"), CheckError);
}

}  // namespace
}  // namespace hitopk::train

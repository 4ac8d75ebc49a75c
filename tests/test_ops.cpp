// Forward-semantics tests for the remaining Level 0 operators: pooling
// (incl. the paper's median pooling), activations, binary ops, bias,
// softmax, dropout, batchnorm, shape ops, losses, and the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "ops/batchnorm.hpp"
#include "ops/dropout.hpp"
#include "ops/elementwise.hpp"
#include "ops/loss.hpp"
#include "ops/pool.hpp"
#include "ops/registry.hpp"
#include "ops/shape_ops.hpp"
#include "ops/softmax.hpp"

namespace d500 {
namespace {

TEST(Pool, MaxPoolBasic) {
  Pool2DOp op(PoolKind::kMax, {2, 2, 0});
  Tensor X({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor Y({1, 1, 1, 1});
  op.forward({&X}, {&Y});
  EXPECT_FLOAT_EQ(Y.at(0), 4.0f);
}

// The max-pool forward before its fast path, kept as the oracle: gather
// each window's in-image taps in (kh, kw) order, take std::max_element.
void max_pool_gather(const Tensor& X, const Pool2DParams& p, Tensor& Y) {
  const std::int64_t NC = X.dim(0) * X.dim(1), H = X.dim(2), W = X.dim(3);
  const std::int64_t Ho = p.out_dim(H), Wo = p.out_dim(W);
  std::vector<float> window;
  for (std::int64_t nc = 0; nc < NC; ++nc)
    for (std::int64_t oh = 0; oh < Ho; ++oh)
      for (std::int64_t ow = 0; ow < Wo; ++ow) {
        window.clear();
        for (std::int64_t kh = 0; kh < p.kernel; ++kh) {
          const std::int64_t ih = oh * p.stride - p.pad + kh;
          if (ih < 0 || ih >= H) continue;
          for (std::int64_t kw = 0; kw < p.kernel; ++kw) {
            const std::int64_t iw = ow * p.stride - p.pad + kw;
            if (iw >= 0 && iw < W)
              window.push_back(X.data()[(nc * H + ih) * W + iw]);
          }
        }
        Y.data()[(nc * Ho + oh) * Wo + ow] =
            window.empty() ? 0.0f
                           : *std::max_element(window.begin(), window.end());
      }
}

// Bit for bit against the gather oracle, on inputs seeded with NaNs, -0
// and +0 (which max_element resolves by first occurrence), with windows
// clipped by the padding (pad 2 with a 2x2 kernel leaves some wholly in
// it), strides 1 and 2, at 1, 2 and 4 threads.
TEST(Pool, MaxPoolMatchesGatherOracle) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Pool2DParams cases[] = {
      {2, 2, 0}, {3, 1, 1}, {3, 2, 1}, {2, 1, 2}, {2, 2, 2}, {5, 2, 2}};
  Rng rng(77);
  Tensor X({3, 5, 11, 13});
  X.fill_uniform(rng, -1, 1);
  float* const x = X.data();
  for (std::int64_t i = 0; i < X.elements(); ++i) {
    const std::uint64_t r = rng.below(16);
    if (r == 0) x[i] = nan;
    if (r == 1) x[i] = -0.0f;
    if (r == 2 || r == 3) x[i] = 0.0f;
  }
  for (const Pool2DParams& p : cases) {
    const Shape ys{3, 5, p.out_dim(11), p.out_dim(13)};
    Tensor ref(ys);
    max_pool_gather(X, p, ref);
    Pool2DOp op(PoolKind::kMax, p);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::instance().reset(threads);
      Tensor Y(ys);
      op.forward({&X}, {&Y});
      const std::string what = "k" + std::to_string(p.kernel) + "s" +
                               std::to_string(p.stride) + "p" +
                               std::to_string(p.pad) + " @" +
                               std::to_string(threads) + "t";
      for (std::int64_t i = 0; i < Y.elements(); ++i) {
        if (std::memcmp(Y.data() + i, ref.data() + i, sizeof(float)) != 0) {
          ADD_FAILURE() << what << ": first difference at " << i << ": "
                        << Y.data()[i] << " vs oracle " << ref.data()[i];
          break;
        }
      }
    }
  }
  ThreadPool::instance().reset(1);
}

TEST(Pool, AvgPoolBasic) {
  Pool2DOp op(PoolKind::kAvg, {2, 2, 0});
  Tensor X({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor Y({1, 1, 1, 1});
  op.forward({&X}, {&Y});
  EXPECT_FLOAT_EQ(Y.at(0), 2.5f);
}

TEST(Pool, MedianPoolOddWindow) {
  Pool2DOp op(PoolKind::kMedian, {3, 3, 0});
  Tensor X({1, 1, 3, 3}, std::vector<float>{9, 1, 8, 2, 7, 3, 6, 4, 5});
  Tensor Y({1, 1, 1, 1});
  op.forward({&X}, {&Y});
  EXPECT_FLOAT_EQ(Y.at(0), 5.0f);
}

TEST(Pool, MedianPoolEvenWindowAveragesMiddle) {
  Pool2DOp op(PoolKind::kMedian, {2, 2, 0});
  Tensor X({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 10});
  Tensor Y({1, 1, 1, 1});
  op.forward({&X}, {&Y});
  EXPECT_FLOAT_EQ(Y.at(0), 2.5f);
}

TEST(Pool, MaxPoolBackwardRoutesToArgmax) {
  Pool2DOp op(PoolKind::kMax, {2, 2, 0});
  Tensor X({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor Y({1, 1, 1, 1});
  op.forward({&X}, {&Y});
  Tensor dY({1, 1, 1, 1}, std::vector<float>{5.0f});
  Tensor dX({1, 1, 2, 2});
  op.backward({&dY}, {&X}, {&Y}, {&dX});
  EXPECT_FLOAT_EQ(dX.at(3), 5.0f);
  EXPECT_FLOAT_EQ(dX.at(0), 0.0f);
}

TEST(Pool, AvgPoolBackwardDistributes) {
  Pool2DOp op(PoolKind::kAvg, {2, 2, 0});
  Tensor X({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor Y({1, 1, 1, 1});
  op.forward({&X}, {&Y});
  Tensor dY({1, 1, 1, 1}, std::vector<float>{4.0f});
  Tensor dX({1, 1, 2, 2});
  op.backward({&dY}, {&X}, {&Y}, {&dX});
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dX.at(i), 1.0f);
}

TEST(Pool, GlobalAvgPool) {
  GlobalAvgPoolOp op;
  Tensor X({1, 2, 2, 2},
           std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  Tensor Y({1, 2});
  op.forward({&X}, {&Y});
  EXPECT_FLOAT_EQ(Y.at(0), 2.5f);
  EXPECT_FLOAT_EQ(Y.at(1), 25.0f);
}

TEST(Activation, ReLUForwardBackward) {
  ActivationOp op(Activation::kReLU);
  Tensor X({4}, std::vector<float>{-1, 0, 2, -3});
  Tensor Y({4});
  op.forward({&X}, {&Y});
  EXPECT_FLOAT_EQ(Y.at(0), 0.0f);
  EXPECT_FLOAT_EQ(Y.at(2), 2.0f);
  Tensor dY({4}, std::vector<float>{1, 1, 1, 1});
  Tensor dX({4});
  op.backward({&dY}, {&X}, {&Y}, {&dX});
  EXPECT_FLOAT_EQ(dX.at(0), 0.0f);
  EXPECT_FLOAT_EQ(dX.at(2), 1.0f);
}

TEST(Activation, SigmoidValues) {
  ActivationOp op(Activation::kSigmoid);
  Tensor X({1}, std::vector<float>{0.0f});
  Tensor Y({1});
  op.forward({&X}, {&Y});
  EXPECT_NEAR(Y.at(0), 0.5f, 1e-6f);
}

TEST(Binary, AddSubMul) {
  Tensor A({2}, std::vector<float>{1, 2});
  Tensor B({2}, std::vector<float>{3, 5});
  Tensor C({2});
  BinaryOp add(BinaryKind::kAdd), sub(BinaryKind::kSub), mul(BinaryKind::kMul);
  add.forward({&A, &B}, {&C});
  EXPECT_FLOAT_EQ(C.at(1), 7.0f);
  sub.forward({&A, &B}, {&C});
  EXPECT_FLOAT_EQ(C.at(1), -3.0f);
  mul.forward({&A, &B}, {&C});
  EXPECT_FLOAT_EQ(C.at(1), 10.0f);
  EXPECT_THROW(add.output_shapes({{2}, {3}}), ShapeError);
}

TEST(BiasAdd, FusedEqualsUnfusedPlusRelu) {
  Rng rng(5);
  Tensor X({2, 3, 4, 4});
  Tensor bias({3}, std::vector<float>{0.1f, -0.2f, 0.3f});
  X.fill_uniform(rng, -1, 1);

  BiasAddOp ba;
  ActivationOp relu(Activation::kReLU);
  FusedBiasReluOp fused;

  Tensor t1(X.shape()), t2(X.shape()), t3(X.shape());
  ba.forward({&X, &bias}, {&t1});
  relu.forward({&t1}, {&t2});
  fused.forward({&X, &bias}, {&t3});
  for (std::int64_t i = 0; i < X.elements(); ++i)
    ASSERT_FLOAT_EQ(t2.at(i), t3.at(i));
}

TEST(Softmax, RowsSumToOne) {
  SoftmaxOp op;
  Rng rng(2);
  Tensor X({4, 7});
  X.fill_uniform(rng, -5, 5);
  Tensor Y({4, 7});
  op.forward({&X}, {&Y});
  for (int b = 0; b < 4; ++b) {
    float s = 0;
    for (int c = 0; c < 7; ++c) s += Y.at(b * 7 + c);
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  SoftmaxOp op;
  Tensor X({1, 2}, std::vector<float>{1000.0f, 1000.0f});
  Tensor Y({1, 2});
  op.forward({&X}, {&Y});
  EXPECT_NEAR(Y.at(0), 0.5f, 1e-5f);
}

TEST(Dropout, InferenceModeIsIdentity) {
  DropoutOp op(0.5f, 42);
  op.set_training(false);
  Tensor X({100});
  X.fill(3.0f);
  Tensor Y({100});
  op.forward({&X}, {&Y});
  for (int i = 0; i < 100; ++i) EXPECT_FLOAT_EQ(Y.at(i), 3.0f);
}

TEST(Dropout, TrainingDropsApproxRatioAndRescales) {
  DropoutOp op(0.25f, 42);
  Tensor X({10000});
  X.fill(1.0f);
  Tensor Y({10000});
  op.forward({&X}, {&Y});
  int zeros = 0;
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    if (Y.at(i) == 0.0f) ++zeros;
    sum += Y.at(i);
  }
  EXPECT_NEAR(zeros / 10000.0, 0.25, 0.02);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);  // inverted dropout preserves mean
}

TEST(Dropout, BackwardUsesSameMask) {
  DropoutOp op(0.5f, 7);
  Tensor X({1000});
  X.fill(1.0f);
  Tensor Y({1000});
  op.forward({&X}, {&Y});
  Tensor dY({1000});
  dY.fill(1.0f);
  Tensor dX({1000});
  op.backward({&dY}, {&X}, {&Y}, {&dX});
  for (int i = 0; i < 1000; ++i) EXPECT_FLOAT_EQ(dX.at(i), Y.at(i));
}

TEST(BatchNorm, NormalizesToZeroMeanUnitVar) {
  BatchNormOp op(3);
  Rng rng(9);
  Tensor X({4, 3, 5, 5});
  X.fill_normal(rng, 5.0f, 2.0f);
  Tensor gamma({3}), beta({3});
  gamma.fill(1.0f);
  Tensor Y(X.shape());
  op.forward({&X, &gamma, &beta}, {&Y});
  // Per-channel statistics of the output must be ~N(0,1).
  for (int c = 0; c < 3; ++c) {
    double sum = 0, sq = 0;
    int n = 0;
    for (int b = 0; b < 4; ++b)
      for (int s = 0; s < 25; ++s) {
        const float v = Y.at((b * 3 + c) * 25 + s);
        sum += v;
        sq += v * v;
        ++n;
      }
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sq / n, 1.0, 1e-2);
  }
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  BatchNormOp op(1, /*momentum=*/0.0f);  // running stats = last batch stats
  Rng rng(10);
  Tensor X({8, 1, 4, 4});
  X.fill_normal(rng, 3.0f, 1.5f);
  Tensor gamma({1}), beta({1});
  gamma.fill(1.0f);
  Tensor Y(X.shape());
  op.forward({&X, &gamma, &beta}, {&Y});

  op.set_training(false);
  Tensor X2({1, 1, 4, 4});
  X2.fill(3.0f);
  Tensor Y2(X2.shape());
  op.forward({&X2, &gamma, &beta}, {&Y2});
  // With input == batch mean, normalized output ~ 0.
  EXPECT_NEAR(Y2.at(0), 0.0f, 0.2f);
}

TEST(ShapeOps, SplitConcatRoundTrip) {
  SplitOp split({2, 1, 3});
  ConcatOp concat(3);
  Rng rng(3);
  Tensor X({6, 4});
  X.fill_uniform(rng, -1, 1);
  Tensor a({2, 4}), b({1, 4}), c({3, 4});
  split.forward({&X}, {&a, &b, &c});
  Tensor Y({6, 4});
  concat.forward({&a, &b, &c}, {&Y});
  for (std::int64_t i = 0; i < X.elements(); ++i)
    ASSERT_FLOAT_EQ(Y.at(i), X.at(i));
}

TEST(ShapeOps, SplitValidatesSizes) {
  SplitOp split({2, 2});
  EXPECT_THROW(split.output_shapes({{5, 3}}), ShapeError);
}

TEST(ShapeOps, Flatten) {
  FlattenOp op;
  EXPECT_EQ(op.output_shapes({{2, 3, 4, 5}}), (std::vector<Shape>{{2, 60}}));
}

TEST(Loss, CrossEntropyKnownValue) {
  SoftmaxCrossEntropyOp op;
  // Uniform logits over 4 classes -> loss = ln(4).
  Tensor Z({2, 4});
  Tensor labels({2}, std::vector<float>{0, 3});
  Tensor L({1});
  op.forward({&Z, &labels}, {&L});
  EXPECT_NEAR(L.at(0), std::log(4.0f), 1e-5f);
}

TEST(Loss, CrossEntropyGradientSumsToZeroPerRow) {
  SoftmaxCrossEntropyOp op;
  Rng rng(4);
  Tensor Z({3, 5});
  Z.fill_uniform(rng, -2, 2);
  Tensor labels({3}, std::vector<float>{1, 0, 4});
  Tensor L({1});
  op.forward({&Z, &labels}, {&L});
  Tensor dL({1}, std::vector<float>{1.0f});
  Tensor dZ({3, 5});
  op.backward({&dL}, {&Z, &labels}, {&L}, {&dZ, nullptr});
  for (int b = 0; b < 3; ++b) {
    float s = 0;
    for (int c = 0; c < 5; ++c) s += dZ.at(b * 5 + c);
    EXPECT_NEAR(s, 0.0f, 1e-5f);
  }
}

TEST(Loss, LabelOutOfRangeThrows) {
  SoftmaxCrossEntropyOp op;
  Tensor Z({1, 3});
  Tensor labels({1}, std::vector<float>{5});
  Tensor L({1});
  EXPECT_THROW(op.forward({&Z, &labels}, {&L}), Error);
}

TEST(Loss, MSEKnownValue) {
  MSELossOp op;
  Tensor P({2}, std::vector<float>{1, 3});
  Tensor T({2}, std::vector<float>{0, 0});
  Tensor L({1});
  op.forward({&P, &T}, {&L});
  EXPECT_FLOAT_EQ(L.at(0), 5.0f);  // (1 + 9) / 2
}

TEST(Loss, CountCorrect) {
  Tensor logits({2, 3}, std::vector<float>{0, 5, 1, 2, 1, 0});
  Tensor labels({2}, std::vector<float>{1, 0});
  EXPECT_EQ(count_correct(logits, labels), 2);
  Tensor labels2({2}, std::vector<float>{2, 0});
  EXPECT_EQ(count_correct(logits, labels2), 1);
}

TEST(Registry, CreatesEveryBuiltin) {
  auto& reg = OperatorRegistry::instance();
  for (const auto& name : reg.registered_ops()) {
    Attrs attrs;
    if (name == "BatchNorm") attrs.set("channels", std::int64_t{4});
    if (name == "Split")
      attrs.set("sizes", std::vector<std::int64_t>{1, 1});
    auto op = reg.create(name, attrs);
    ASSERT_NE(op, nullptr) << name;
  }
  EXPECT_GE(reg.registered_ops().size(), 20u);
}

TEST(Registry, UnknownOpThrows) {
  EXPECT_THROW(OperatorRegistry::instance().create("NoSuchOp", {}), Error);
}

TEST(Registry, MacroRegistersCustomOp) {
  // MedianPool2D is registered both built-in and via the macro pattern in
  // other tests; here verify create honors attrs.
  auto op = OperatorRegistry::instance().create(
      "MedianPool2D", Attrs{{"kernel", std::int64_t{3}}});
  auto shapes = op->output_shapes({{1, 1, 9, 9}});
  EXPECT_EQ(shapes[0], (Shape{1, 1, 3, 3}));
}

}  // namespace
}  // namespace d500

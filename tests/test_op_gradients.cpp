// Property sweep: numerical gradient validation (paper §IV-C
// test_gradient) across every differentiable operator, parameterized by
// operator factory. This is the reproduction of Deep500's automatic
// gradient checking via finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "core/rng.hpp"
#include "ops/batchnorm.hpp"
#include "ops/conv2d.hpp"
#include "ops/dropout.hpp"
#include "ops/elementwise.hpp"
#include "ops/gemm.hpp"
#include "ops/loss.hpp"
#include "ops/pool.hpp"
#include "ops/shape_ops.hpp"
#include "ops/softmax.hpp"
#include "ops/validation.hpp"

namespace d500 {
namespace {

struct GradCase {
  std::string label;
  std::function<OperatorPtr()> make_op;
  std::function<std::vector<Tensor>(Rng&)> make_inputs;
  double eps = 1e-3;
  double tol = 5e-2;
};

// Without this, gtest prints the case as raw object bytes, which include
// heap pointers, so the ctest name would change on every build.
void PrintTo(const GradCase& c, std::ostream* os) { *os << c.label; }

std::vector<Tensor> rand_tensors(Rng& rng, std::vector<Shape> shapes,
                                 float lo = -1.0f, float hi = 1.0f) {
  std::vector<Tensor> out;
  for (auto& s : shapes) {
    Tensor t(std::move(s));
    t.fill_uniform(rng, lo, hi);
    out.push_back(std::move(t));
  }
  return out;
}

class OpGradient : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpGradient, NumericalCheckPasses) {
  const GradCase& c = GetParam();
  Rng rng(2024);
  auto op = c.make_op();
  auto inputs = c.make_inputs(rng);
  const auto res = test_gradient(*op, inputs, 31, c.eps, c.tol, 150);
  EXPECT_TRUE(res.passed)
      << c.label << ": max_rel=" << res.max_rel_error
      << " max_abs=" << res.max_abs_error
      << " checked=" << res.checked_elements;
  EXPECT_GT(res.checked_elements, 0u);
}

std::vector<GradCase> grad_cases() {
  std::vector<GradCase> cases;
  cases.push_back(
      {"relu",
       [] { return std::make_unique<ActivationOp>(Activation::kReLU); },
       // keep inputs away from the ReLU kink where the subgradient is
       // ill-defined for finite differences
       [](Rng& rng) {
         auto t = rand_tensors(rng, {{3, 7}});
         for (auto& x : t)
           for (std::int64_t i = 0; i < x.elements(); ++i)
             if (std::abs(x.at(i)) < 0.05f) x.at(i) = 0.2f;
         return t;
       }});
  cases.push_back(
      {"sigmoid",
       [] { return std::make_unique<ActivationOp>(Activation::kSigmoid); },
       [](Rng& rng) { return rand_tensors(rng, {{4, 5}}); }});
  cases.push_back(
      {"tanh",
       [] { return std::make_unique<ActivationOp>(Activation::kTanh); },
       [](Rng& rng) { return rand_tensors(rng, {{4, 5}}); }});
  cases.push_back({"add",
                   [] { return std::make_unique<BinaryOp>(BinaryKind::kAdd); },
                   [](Rng& rng) { return rand_tensors(rng, {{3, 4}, {3, 4}}); }});
  cases.push_back({"sub",
                   [] { return std::make_unique<BinaryOp>(BinaryKind::kSub); },
                   [](Rng& rng) { return rand_tensors(rng, {{3, 4}, {3, 4}}); }});
  cases.push_back({"mul",
                   [] { return std::make_unique<BinaryOp>(BinaryKind::kMul); },
                   [](Rng& rng) { return rand_tensors(rng, {{3, 4}, {3, 4}}); }});
  cases.push_back({"biasadd",
                   [] { return std::make_unique<BiasAddOp>(); },
                   [](Rng& rng) {
                     return rand_tensors(rng, {{2, 3, 4, 4}, {3}});
                   }});
  cases.push_back({"softmax",
                   [] { return std::make_unique<SoftmaxOp>(); },
                   [](Rng& rng) { return rand_tensors(rng, {{3, 6}}, -2, 2); }});
  cases.push_back({"matmul",
                   [] { return std::make_unique<MatMulOp>(); },
                   [](Rng& rng) { return rand_tensors(rng, {{4, 6}, {6, 3}}); }});
  cases.push_back({"linear",
                   [] { return std::make_unique<LinearOp>(); },
                   [](Rng& rng) {
                     return rand_tensors(rng, {{3, 5}, {4, 5}, {4}});
                   }});
  cases.push_back({"conv_direct",
                   [] {
                     Conv2DParams p;
                     p.kernel_h = p.kernel_w = 3;
                     p.pad = 1;
                     return std::make_unique<Conv2DOp>(p, ConvBackend::kDirect);
                   },
                   [](Rng& rng) {
                     return rand_tensors(rng, {{2, 2, 4, 4}, {2, 2, 3, 3}, {2}});
                   },
                   1e-2, 6e-2});
  cases.push_back({"conv_im2col_stride2",
                   [] {
                     Conv2DParams p;
                     p.kernel_h = p.kernel_w = 3;
                     p.stride = 2;
                     p.pad = 1;
                     return std::make_unique<Conv2DOp>(p, ConvBackend::kIm2col);
                   },
                   [](Rng& rng) {
                     return rand_tensors(rng, {{1, 3, 6, 6}, {2, 3, 3, 3}, {2}});
                   },
                   1e-2, 6e-2});
  cases.push_back({"avgpool",
                   [] {
                     return std::make_unique<Pool2DOp>(PoolKind::kAvg,
                                                       Pool2DParams{2, 2, 0});
                   },
                   [](Rng& rng) { return rand_tensors(rng, {{2, 2, 4, 4}}); }});
  cases.push_back({"maxpool",
                   [] {
                     return std::make_unique<Pool2DOp>(PoolKind::kMax,
                                                       Pool2DParams{2, 2, 0});
                   },
                   // distinct values so the argmax is stable under +-eps
                   [](Rng& rng) {
                     Tensor t({1, 2, 4, 4});
                     for (std::int64_t i = 0; i < t.elements(); ++i)
                       t.at(i) = static_cast<float>(i % 16) * 0.5f +
                                 rng.uniform(0.0f, 0.05f);
                     std::vector<Tensor> v;
                     v.push_back(std::move(t));
                     return v;
                   }});
  cases.push_back({"medianpool_even_window",
                   [] {
                     return std::make_unique<Pool2DOp>(PoolKind::kMedian,
                                                       Pool2DParams{2, 2, 0});
                   },
                   // well-separated values keep the order statistics stable
                   // under the +-eps probes
                   [](Rng& rng) {
                     Tensor t({1, 2, 4, 4});
                     for (std::int64_t i = 0; i < t.elements(); ++i)
                       t.at(i) = static_cast<float>((i * 7) % 32) * 0.5f +
                                 rng.uniform(0.0f, 0.05f);
                     std::vector<Tensor> v;
                     v.push_back(std::move(t));
                     return v;
                   }});
  cases.push_back({"globalavgpool",
                   [] { return std::make_unique<GlobalAvgPoolOp>(); },
                   [](Rng& rng) { return rand_tensors(rng, {{2, 3, 3, 3}}); }});
  cases.push_back({"flatten",
                   [] { return std::make_unique<FlattenOp>(); },
                   [](Rng& rng) { return rand_tensors(rng, {{2, 3, 2, 2}}); }});
  cases.push_back(
      {"split",
       [] { return std::make_unique<SplitOp>(std::vector<std::int64_t>{1, 2}); },
       [](Rng& rng) { return rand_tensors(rng, {{3, 4}}); }});
  cases.push_back({"concat",
                   [] { return std::make_unique<ConcatOp>(2); },
                   [](Rng& rng) { return rand_tensors(rng, {{2, 3}, {1, 3}}); }});
  cases.push_back({"mse",
                   [] { return std::make_unique<MSELossOp>(); },
                   [](Rng& rng) { return rand_tensors(rng, {{3, 4}, {3, 4}}); }});
  cases.push_back({"batchnorm",
                   [] { return std::make_unique<BatchNormOp>(2); },
                   [](Rng& rng) {
                     auto v = rand_tensors(rng, {{3, 2, 3, 3}});
                     Tensor gamma({2}, std::vector<float>{1.2f, 0.8f});
                     Tensor beta({2}, std::vector<float>{0.1f, -0.1f});
                     v.push_back(std::move(gamma));
                     v.push_back(std::move(beta));
                     return v;
                   },
                   1e-2, 8e-2});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpGradient, ::testing::ValuesIn(grad_cases()),
                         [](const auto& info) { return info.param.label; });

// SoftmaxCrossEntropy needs a non-differentiable labels input, checked
// separately with an explicit null gradient slot.
TEST(OpGradientSpecial, SoftmaxCrossEntropyLogitsGradient) {
  SoftmaxCrossEntropyOp op;
  Rng rng(17);
  Tensor Z({4, 5});
  Z.fill_uniform(rng, -2, 2);
  Tensor labels({4}, std::vector<float>{0, 2, 4, 1});
  Tensor L({1});
  op.forward({&Z, &labels}, {&L});

  Tensor dL({1}, std::vector<float>{1.0f});
  Tensor dZ({4, 5});
  op.backward({&dL}, {&Z, &labels}, {&L}, {&dZ, nullptr});

  const double eps = 1e-2;
  for (std::int64_t i = 0; i < Z.elements(); ++i) {
    const float orig = Z.at(i);
    Tensor Lp({1}), Lm({1});
    Z.at(i) = orig + static_cast<float>(eps);
    op.forward({&Z, &labels}, {&Lp});
    Z.at(i) = orig - static_cast<float>(eps);
    op.forward({&Z, &labels}, {&Lm});
    Z.at(i) = orig;
    const double numeric = (Lp.at(0) - Lm.at(0)) / (2 * eps);
    ASSERT_NEAR(numeric, dZ.at(i), 5e-3) << "i=" << i;
  }
}

TEST(OpGradientSpecial, DropoutGradientMatchesMask) {
  DropoutOp op(0.3f, 11);
  Rng rng(18);
  Tensor X({6, 6});
  X.fill_uniform(rng, -1, 1);
  Tensor Y({6, 6});
  op.forward({&X}, {&Y});
  Tensor dY({6, 6});
  dY.fill(1.0f);
  Tensor dX({6, 6});
  op.backward({&dY}, {&X}, {&Y}, {&dX});
  // dX must equal the effective scaling Y/X wherever X != 0.
  for (std::int64_t i = 0; i < X.elements(); ++i)
    if (X.at(i) != 0.0f) ASSERT_NEAR(dX.at(i), Y.at(i) / X.at(i), 1e-4f);
}

}  // namespace
}  // namespace d500

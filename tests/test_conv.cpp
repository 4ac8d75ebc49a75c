// Conv2D tests: backend cross-validation (direct vs im2col vs Winograd),
// the backward's bits against an exact-order oracle and its adjointness to
// the forward, shape inference, gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "core/simd.hpp"
#include "core/threadpool.hpp"
#include "ops/conv2d.hpp"
#include "ops/validation.hpp"

namespace d500 {
namespace {

struct ConvCase {
  std::int64_t N, C, H, W, F, k, stride, pad;
};

Tensor run_conv(ConvBackend backend, const ConvCase& cc, const Tensor& X,
                const Tensor& Wt, const Tensor& b) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = cc.k;
  p.stride = cc.stride;
  p.pad = cc.pad;
  Conv2DOp op(p, backend);
  const auto shapes = op.output_shapes({X.shape(), Wt.shape(), b.shape()});
  Tensor Y(shapes[0]);
  op.forward({&X, &Wt, &b}, {&Y});
  return Y;
}

class ConvBackendCases : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBackendCases, Im2colMatchesDirect) {
  const ConvCase cc = GetParam();
  Rng rng(11);
  Tensor X({cc.N, cc.C, cc.H, cc.W});
  Tensor Wt({cc.F, cc.C, cc.k, cc.k});
  Tensor b({cc.F});
  X.fill_uniform(rng, -1, 1);
  Wt.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);

  Tensor ref = run_conv(ConvBackend::kDirect, cc, X, Wt, b);
  Tensor got = run_conv(ConvBackend::kIm2col, cc, X, Wt, b);
  ASSERT_EQ(got.elements(), ref.elements());
  for (std::int64_t i = 0; i < ref.elements(); ++i)
    ASSERT_NEAR(got.at(i), ref.at(i), 1e-3f) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvBackendCases,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 0},
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{1, 2, 9, 7, 3, 5, 2, 2},
                      ConvCase{3, 4, 6, 6, 2, 1, 1, 0},
                      ConvCase{2, 1, 12, 12, 5, 3, 3, 1},
                      ConvCase{1, 8, 4, 4, 8, 3, 1, 1}),
    [](const auto& info) {
      const ConvCase& c = info.param;
      return "N" + std::to_string(c.N) + "C" + std::to_string(c.C) + "H" +
             std::to_string(c.H) + "F" + std::to_string(c.F) + "k" +
             std::to_string(c.k) + "s" + std::to_string(c.stride) + "p" +
             std::to_string(c.pad);
    });

TEST(ConvWinograd, MatchesDirectOn3x3Stride1) {
  for (const ConvCase cc : {ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                            ConvCase{1, 2, 7, 9, 3, 3, 1, 0},
                            ConvCase{1, 1, 6, 6, 1, 3, 1, 1}}) {
    Rng rng(12);
    Tensor X({cc.N, cc.C, cc.H, cc.W});
    Tensor Wt({cc.F, cc.C, 3, 3});
    Tensor b({cc.F});
    X.fill_uniform(rng, -1, 1);
    Wt.fill_uniform(rng, -1, 1);
    b.fill_uniform(rng, -1, 1);
    Tensor ref = run_conv(ConvBackend::kDirect, cc, X, Wt, b);
    Tensor got = run_conv(ConvBackend::kWinograd, cc, X, Wt, b);
    for (std::int64_t i = 0; i < ref.elements(); ++i)
      ASSERT_NEAR(got.at(i), ref.at(i), 5e-3f) << "i=" << i;
  }
}

TEST(ConvWinograd, RejectsUnsupportedGeometry) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 5;
  Conv2DOp op(p, ConvBackend::kWinograd);
  Rng rng(1);
  Tensor X({1, 1, 8, 8}), Wt({1, 1, 5, 5}), b({1});
  Tensor Y(op.output_shapes({X.shape(), Wt.shape(), b.shape()})[0]);
  EXPECT_THROW(op.forward({&X, &Wt, &b}, {&Y}), Error);
}

TEST(Conv, ShapeInference) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.stride = 2;
  p.pad = 1;
  Conv2DOp op(p);
  const auto out = op.output_shapes({{4, 3, 32, 32}, {8, 3, 3, 3}, {8}});
  EXPECT_EQ(out[0], (Shape{4, 8, 16, 16}));
  EXPECT_THROW(op.output_shapes({{4, 5, 32, 32}, {8, 3, 3, 3}, {8}}),
               ShapeError);
  Conv2DParams unpadded;
  unpadded.kernel_h = unpadded.kernel_w = 3;
  Conv2DOp op2(unpadded);
  EXPECT_THROW(op2.output_shapes({{4, 3, 2, 2}, {8, 3, 3, 3}, {8}}),
               ShapeError);  // 2x2 input, 3x3 valid conv -> empty output
  // Degenerate geometry is rejected before any kernel divides by it.
  for (const auto& [stride, dilation, pad] :
       {std::tuple{0, 1, 0}, std::tuple{1, 0, 0}, std::tuple{1, 1, -1}}) {
    Conv2DParams bad = unpadded;
    bad.stride = stride;
    bad.dilation = dilation;
    bad.pad = pad;
    EXPECT_THROW(Conv2DOp(bad).output_shapes({{4, 3, 8, 8}, {8, 3, 3, 3}, {8}}),
                 ShapeError);
  }
}

TEST(Conv, GradientCheckIm2col) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad = 1;
  Conv2DOp op(p, ConvBackend::kIm2col);
  Rng rng(7);
  Tensor X({2, 2, 5, 5}), Wt({3, 2, 3, 3}), b({3});
  X.fill_uniform(rng, -1, 1);
  Wt.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  const auto res = test_gradient(op, {X, Wt, b}, 7, 1e-2, 5e-2, 120);
  EXPECT_TRUE(res.passed) << "max_rel=" << res.max_rel_error
                          << " max_abs=" << res.max_abs_error;
}

TEST(Conv, GradientCheckStrided) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.stride = 2;
  p.pad = 1;
  Conv2DOp op(p, ConvBackend::kDirect);
  Rng rng(8);
  Tensor X({1, 2, 6, 6}), Wt({2, 2, 3, 3}), b({2});
  X.fill_uniform(rng, -1, 1);
  Wt.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  const auto res = test_gradient(op, {X, Wt, b}, 8, 1e-2, 5e-2, 120);
  EXPECT_TRUE(res.passed) << "max_rel=" << res.max_rel_error;
}

constexpr std::int64_t kNR = gemm_micro_nr();

// Backward geometries: K = C*kh*kw not a multiple of MR (27, 2) and a
// multiple (36, 72); F below, at and above one NR panel (1, NR + 3, 17);
// strides 2 and 3 (with the last output column's taps both inside and past
// the right edge), dilation 2 at strides 1 and 2, a 1x1 kernel at stride 2
// (three of its four dX phases have no tap), pad past the kernel's reach
// ((k-1)*d), output rows of NR and NR + 1, N = 1, and alexnet_like's 5x5
// pad-2 layer.
struct BwdCase {
  std::int64_t N, C, H, W, F, k, stride, pad, dilation;
};

const BwdCase kBwdCases[] = {
    {2, 3, 7, 9, 5, 3, 1, 1, 1},    // K=27, NS=126
    {1, 4, 11, 10, 7, 3, 2, 1, 2},  // N=1, stride 2, dilation 2, NS=20
    {2, 3, 9, 9, 6, 3, 2, 1, 1},    // stride 2 clipping the right edge
    {3, 2, 6, 6, 9, 1, 1, 0, 1},    // 1x1: K=2, one padded panel
    {2, 8, 5, 5, 17, 3, 1, 1, 1},   // F=17 spans two column panels
    {2, 3, 11, 13, 5, 3, 3, 1, 1},  // stride 3, H != W
    {2, 2, 13, 12, 7, 3, 2, 2, 2},  // stride 2, dilation 2, pad 2
    {2, 4, 9, 8, 6, 1, 2, 0, 1},    // 1x1 kernel, stride 2: tap-less phases
    {2, 2, 6, 7, 3, 3, 1, 3, 1},    // pad 3 > (k-1)*d
    {1, 2, 3, 1, 2, 3, 2, 3, 1},    // W = 1, pad 3, stride 2
    {1, 2, 5, kNR, 3, 3, 1, 1, 1},  // Wo = NR
    {2, 2, 4, kNR + 1, 7, 3, 1, 1, 1},  // Wo = NR + 1
    {2, 3, 7, 9, 1, 3, 1, 1, 1},        // F = 1
    {2, 3, 6, 6, kNR + 3, 3, 1, 1, 1},  // F = NR + 3
    {2, 16, 16, 16, 32, 5, 1, 2, 1},    // alexnet_like: 5x5, pad 2
};

std::string case_name(const BwdCase& c) {
  return "N" + std::to_string(c.N) + "C" + std::to_string(c.C) + "H" +
         std::to_string(c.H) + "W" + std::to_string(c.W) + "F" +
         std::to_string(c.F) + "k" + std::to_string(c.k) + "s" +
         std::to_string(c.stride) + "p" + std::to_string(c.pad) + "d" +
         std::to_string(c.dilation);
}

struct BwdResult {
  Tensor dX, dW, db;
};

struct BwdInputs {
  Conv2DParams p;
  Tensor X, Wt, dY;
};

BwdInputs make_bwd_inputs(const BwdCase& c) {
  BwdInputs in;
  in.p.kernel_h = in.p.kernel_w = c.k;
  in.p.stride = c.stride;
  in.p.pad = c.pad;
  in.p.dilation = c.dilation;
  Rng rng(static_cast<std::uint64_t>(31 + c.C * 7 + c.F));
  in.X = Tensor({c.N, c.C, c.H, c.W});
  in.Wt = Tensor({c.F, c.C, c.k, c.k});
  in.dY = Tensor({c.N, c.F, in.p.out_dim(c.H, c.k), in.p.out_dim(c.W, c.k)});
  in.X.fill_uniform(rng, -1, 1);
  in.Wt.fill_uniform(rng, -1, 1);
  in.dY.fill_uniform(rng, -1, 1);
  return in;
}

BwdResult run_backward(const BwdInputs& in) {
  Conv2DOp op(in.p, ConvBackend::kIm2col);
  Tensor b({in.Wt.dim(0)});
  Tensor Y(in.dY.shape());
  BwdResult r{Tensor(in.X.shape()), Tensor(in.Wt.shape()), Tensor(b.shape())};
  op.forward({&in.X, &in.Wt, &b}, {&Y});
  op.backward({&in.dY}, {&in.X, &in.Wt, &b}, {&Y}, {&r.dX, &r.dW, &r.db});
  return r;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const std::string& what,
                    simd::KernelDispatch dispatch, int threads) {
  ASSERT_EQ(a.elements(), b.elements());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.elements()) * sizeof(float)),
            0)
      << what << " differs: " << simd::kernel_dispatch_name(dispatch)
      << " dispatch, " << threads << " threads";
}

// Also across the scalar and SIMD dispatch modes: the packed microkernel
// and the row sums produce the same bits in both.
TEST(Conv, BackwardBitwiseAcrossThreads) {
  const simd::KernelDispatch mode = simd::kernel_dispatch();
  for (const BwdCase& c : kBwdCases) {
    const BwdInputs in = make_bwd_inputs(c);
    ThreadPool::instance().reset(1);
    const BwdResult ref = run_backward(in);
    for (auto dispatch : {simd::KernelDispatch::kScalar,
                          simd::KernelDispatch::kSimd}) {
      simd::set_kernel_dispatch(dispatch);
      for (int threads : {1, 2, 4}) {
        ThreadPool::instance().reset(threads);
        const BwdResult got = run_backward(in);
        expect_bitwise(got.dX, ref.dX, case_name(c) + " dX", dispatch, threads);
        expect_bitwise(got.dW, ref.dW, case_name(c) + " dW", dispatch, threads);
        expect_bitwise(got.db, ref.db, case_name(c) + " db", dispatch, threads);
      }
    }
    simd::set_kernel_dispatch(mode);
  }
  ThreadPool::instance().reset(1);
}

// A scalar backward in the order of the whole-minibatch im2col formulation
// the implicit GEMMs replace: dcol[k, (n, s)] is a std::fma chain over
// ascending f from +0, added in ascending (c, kh, kw) row order into a
// zeroed dX; dW[f, k] is a std::fma chain over ascending (n, oh, ow) from
// +0 (a padding tap contributes a zero product); db[f] sums the filter's
// N*Ho*Wo values as eight interleaved partials, element g into partial
// g % 8, combined in a fixed tree, then the tail in order.
BwdResult parent_order_backward(const BwdInputs& in) {
  const Conv2DParams& p = in.p;
  const std::int64_t N = in.X.dim(0), C = in.X.dim(1), H = in.X.dim(2),
                     W = in.X.dim(3), F = in.Wt.dim(0);
  const std::int64_t Ho = in.dY.dim(2), Wo = in.dY.dim(3), S = Ho * Wo;
  const std::int64_t kk = p.kernel_h * p.kernel_w, K = C * kk;
  const float* x = in.X.data();
  const float* w = in.Wt.data();
  const float* dy = in.dY.data();
  BwdResult r{Tensor(in.X.shape()), Tensor(in.Wt.shape()), Tensor({F})};
  r.dX.fill(0.0f);
  // Input position of tap k at output s, or -1 in the padding.
  auto tap_input = [&](std::int64_t k, std::int64_t s) -> std::int64_t {
    const std::int64_t c = k / kk, kh = k % kk / p.kernel_w,
                       kw = k % p.kernel_w;
    const std::int64_t ih = s / Wo * p.stride - p.pad + kh * p.dilation;
    const std::int64_t iw = s % Wo * p.stride - p.pad + kw * p.dilation;
    if (ih < 0 || ih >= H || iw < 0 || iw >= W) return -1;
    return (c * H + ih) * W + iw;
  };
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t k = 0; k < K; ++k) {
      for (std::int64_t s = 0; s < S; ++s) {
        float acc = 0.0f;
        for (std::int64_t f = 0; f < F; ++f)
          acc = std::fma(w[f * K + k], dy[(n * F + f) * S + s], acc);
        const std::int64_t i = tap_input(k, s);
        if (i >= 0) r.dX.data()[n * C * H * W + i] += acc;
      }
    }
  }
  for (std::int64_t f = 0; f < F; ++f) {
    for (std::int64_t k = 0; k < K; ++k) {
      float acc = 0.0f;
      for (std::int64_t n = 0; n < N; ++n)
        for (std::int64_t s = 0; s < S; ++s) {
          const std::int64_t i = tap_input(k, s);
          acc = std::fma(i >= 0 ? x[n * C * H * W + i] : 0.0f,
                         dy[(n * F + f) * S + s], acc);
        }
      r.dW.data()[f * K + k] = acc;
    }
    const std::int64_t NS = N * S, body = NS / 8 * 8;
    float part[8] = {};
    auto val = [&](std::int64_t g) { return dy[(g / S * F + f) * S + g % S]; };
    for (std::int64_t g = 0; g < body; ++g) part[g % 8] += val(g);
    float sum = ((part[0] + part[1]) + (part[2] + part[3])) +
                ((part[4] + part[5]) + (part[6] + part[7]));
    for (std::int64_t g = body; g < NS; ++g) sum += val(g);
    r.db.data()[f] = sum;
  }
  return r;
}

TEST(Conv, BackwardBitwiseMatchesParentOrder) {
  const simd::KernelDispatch mode = simd::kernel_dispatch();
  for (const BwdCase& c : kBwdCases) {
    const BwdInputs in = make_bwd_inputs(c);
    const BwdResult ref = parent_order_backward(in);
    for (auto dispatch : {simd::KernelDispatch::kScalar,
                          simd::KernelDispatch::kSimd}) {
      simd::set_kernel_dispatch(dispatch);
      for (int threads : {1, 2, 4}) {
        ThreadPool::instance().reset(threads);
        const BwdResult got = run_backward(in);
        expect_bitwise(got.dX, ref.dX, case_name(c) + " dX", dispatch, threads);
        expect_bitwise(got.dW, ref.dW, case_name(c) + " dW", dispatch, threads);
        expect_bitwise(got.db, ref.db, case_name(c) + " db", dispatch, threads);
      }
    }
  }
  simd::set_kernel_dispatch(mode);
  ThreadPool::instance().reset(1);
}

// The backward is the forward's adjoint: with a zero bias,
// <conv(X; W), dY> = <X, dX> = <W, dW>, each inner product accumulated in
// double. Tolerance: 1e-5 of the sum of |terms| on the left; each float
// gradient element carries a relative rounding error of a few ULP per
// summed product, far below it.
TEST(Conv, BackwardIsAdjointOfForward) {
  for (const BwdCase& c : kBwdCases) {
    const BwdInputs in = make_bwd_inputs(c);
    Conv2DOp op(in.p, ConvBackend::kIm2col);
    Tensor b({in.Wt.dim(0)});
    b.fill(0.0f);
    Tensor Y(in.dY.shape());
    op.forward({&in.X, &in.Wt, &b}, {&Y});
    const BwdResult g = run_backward(in);
    auto dot = [](const Tensor& u, const Tensor& v, double* mag) {
      double sum = 0;
      for (std::int64_t i = 0; i < u.elements(); ++i) {
        const double t = static_cast<double>(u.at(i)) * v.at(i);
        sum += t;
        if (mag != nullptr) *mag += std::fabs(t);
      }
      return sum;
    };
    double mag = 0;
    const double lhs = dot(Y, in.dY, &mag);
    const double tol = 1e-5 * std::max(1.0, mag);
    EXPECT_NEAR(dot(in.X, g.dX, nullptr), lhs, tol) << case_name(c) << " dX";
    EXPECT_NEAR(dot(in.Wt, g.dW, nullptr), lhs, tol) << case_name(c) << " dW";
  }
}

// Tolerance: 1e-4 relative to max(1, |reference|). Each gradient element is
// a sum of at most a few hundred products of values in [-1, 1]; the packed
// and the naive backward sum them in different orders, which moves a float
// result by a few ULP per term, far below this bound.
void expect_close(const Tensor& got, const Tensor& ref, const char* what) {
  ASSERT_EQ(got.elements(), ref.elements());
  for (std::int64_t i = 0; i < ref.elements(); ++i) {
    const float tol = 1e-4f * std::max(1.0f, std::fabs(ref.at(i)));
    ASSERT_NEAR(got.at(i), ref.at(i), tol) << what << "[" << i << "]";
  }
}

TEST(Conv, BackwardMatchesNaiveReference) {
  for (const BwdCase& c : kBwdCases) {
    const BwdInputs in = make_bwd_inputs(c);
    const BwdResult got = run_backward(in);
    BwdResult ref{Tensor(in.X.shape()), Tensor(in.Wt.shape()),
                  Tensor({in.Wt.dim(0)})};
    conv2d_backward_reference(in.X, in.Wt, in.dY, in.p, &ref.dX, &ref.dW,
                              &ref.db);
    expect_close(got.dX, ref.dX, "dX");
    expect_close(got.dW, ref.dW, "dW");
    expect_close(got.db, ref.db, "db");
  }
}

// The implicit-GEMM forward against conv2d_forward_reference (per-sample
// im2col, gemm(kPacked), bias, chain), bit for bit. Cases: tiles that span
// output rows (Wo = 1, 3, 8, 10 below NR), rows that fill one tile (Wo =
// NR) or spill one column into the next (NR + 1), LeNet's 28x28 outputs,
// partial filter blocks (F = 1, 5, 7, 13), K < MR, strides 2 and 3 (phase
// planes; stride 2 clipping the right edge), a 1x1 kernel at stride 2,
// dilation 2 at strides 1 and 2, pad 0 to 3 (pad >= kernel / 2, and phase
// planes with no input column), H != W, N = 1.
struct FwdCase {
  std::int64_t N, C, H, W, F, k, stride, pad, dilation;
};

const FwdCase kFwdCases[] = {
    {2, 1, 32, 32, 6, 5, 1, 0, 1},   // LeNet conv1: 28x28 outputs
    {3, 6, 14, 14, 16, 5, 1, 0, 1},  // LeNet conv2: 10x10 outputs
    {2, 3, 7, 9, 1, 3, 1, 1, 1},     // F = 1
    {2, 4, 6, 5, 5, 1, 1, 0, 1},     // 1x1, K = 4 < MR
    {1, 3, 9, 9, 7, 3, 2, 0, 1},     // N = 1, stride 2 clips the right edge
    {2, 2, 8, 11, 13, 3, 2, 2, 1},   // stride 2, pad 2
    {1, 4, 11, 10, 5, 3, 1, 2, 2},   // dilation 2, pad 2
    {3, 2, 3, 3, 7, 3, 1, 1, 1},     // 3x3 outputs: one panel, 3 samples
    {2, 3, 11, 13, 5, 3, 3, 1, 1},   // stride 3, H != W: 4x5 outputs
    {2, 2, 13, 12, 7, 3, 2, 1, 2},   // stride 2, dilation 2
    {2, 4, 9, 8, 6, 1, 2, 0, 1},     // 1x1 kernel, stride 2
    {2, 3, 5, 3, 4, 3, 1, 0, 1},     // Wo = 1
    {2, 5, 8, 8, 8, 3, 1, 1, 1},     // Wo = 8 (ResNet stage 2), Wq = 10
    {1, 2, 5, kNR, 3, 3, 1, 1, 1},   // Wo = NR
    {2, 2, 4, kNR + 1, 7, 3, 1, 1, 1},  // Wo = NR + 1
    {2, 2, 6, 7, 3, 3, 1, 3, 1},     // pad 3 > 3x3 kernel
    {1, 2, 3, 1, 2, 3, 2, 3, 1},     // W = 1, pad 3, stride 2
    {2, 1, 7, 9, 5, 5, 1, 4, 1},     // 5x5 kernel, pad 4
};

// n floats compared bit for bit; reports the first difference.
void expect_same_bits(const float* got, const float* ref, std::int64_t n,
                      const std::string& what) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::memcmp(got + i, ref + i, sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": first difference at " << i << ": "
                    << got[i] << " vs reference " << ref[i];
      return;
    }
  }
}

TEST(Conv, ForwardBitwiseMatchesReference) {
  const simd::KernelDispatch mode = simd::kernel_dispatch();
  const EpilogueMode epi_mode = gemm_epilogue_mode();
  set_gemm_epilogue_mode(EpilogueMode::kFused);
  const std::vector<std::vector<Activation>> chains = {
      {}, {Activation::kReLU}, {Activation::kTanh, Activation::kSigmoid}};
  for (const FwdCase& c : kFwdCases) {
    Conv2DParams p;
    p.kernel_h = p.kernel_w = c.k;
    p.stride = c.stride;
    p.pad = c.pad;
    p.dilation = c.dilation;
    Rng rng(static_cast<std::uint64_t>(101 + c.C * 13 + c.F));
    Tensor X({c.N, c.C, c.H, c.W}), Wt({c.F, c.C, c.k, c.k}), b({c.F});
    X.fill_uniform(rng, -1, 1);
    Wt.fill_uniform(rng, -1, 1);
    b.fill_uniform(rng, -1, 1);
    const Shape ys{c.N, c.F, p.out_dim(c.H, c.k), p.out_dim(c.W, c.k)};
    const std::int64_t K = c.C * c.k * c.k;
    std::vector<float> panels(
        static_cast<std::size_t>(gemm_packed_a_elems(c.F, K)));
    gemm_pack_a(c.F, K, Wt.data(), panels.data());
    for (const auto& chain : chains) {
      Tensor ref(ys), ref_pre(ys);
      conv2d_forward_reference(X, Wt, b, p, &ref, chain.data(),
                               static_cast<int>(chain.size()), &ref_pre);
      for (const bool prepack : {false, true}) {
        Conv2DOp op(p, ConvBackend::kIm2col);
        for (const Activation a : chain) ASSERT_TRUE(op.try_fuse_epilogue(a));
        if (prepack) op.set_prepacked_w(panels.data(), Wt.data());
        for (const auto dispatch :
             {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
          simd::set_kernel_dispatch(dispatch);
          for (const int threads : {1, 2, 4}) {
            ThreadPool::instance().reset(threads);
            Tensor Y(ys);
            op.forward({&X, &Wt, &b}, {&Y});
            const std::string what =
                "N" + std::to_string(c.N) + "C" + std::to_string(c.C) + "H" +
                std::to_string(c.H) + "W" + std::to_string(c.W) + "F" +
                std::to_string(c.F) + "k" + std::to_string(c.k) + "s" +
                std::to_string(c.stride) + "p" + std::to_string(c.pad) + "d" +
                std::to_string(c.dilation) + " chain" +
                std::to_string(chain.size()) +
                (prepack ? " prepacked " : " unpacked ") +
                simd::kernel_dispatch_name(dispatch) + " @" +
                std::to_string(threads) + "t";
            expect_same_bits(Y.data(), ref.data(), Y.elements(), what + " Y");
            if (op.epilogue().needs_pre())
              expect_same_bits(op.epilogue().saved_pre(), ref_pre.data(),
                               Y.elements(), what + " save_pre");
          }
        }
      }
    }
  }
  simd::set_kernel_dispatch(mode);
  set_gemm_epilogue_mode(epi_mode);
  ThreadPool::instance().reset(1);
}

TEST(Conv, WorkspaceScalesWithBatch) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 5;
  p.pad = 2;
  Conv2DOp op(p, ConvBackend::kIm2col);
  const Shape w{32, 16, 5, 5}, b{32};
  const std::size_t ws1 = op.workspace_bytes({{1, 16, 16, 16}, w, b});
  const std::size_t ws64 = op.workspace_bytes({{64, 16, 16, 16}, w, b});
  // Per sample: the padded X (16 planes of 20 x 20), dY padded by 2 on
  // every side (32 planes of 20 x 20), and dY packed into NR-filter panels
  // over the 16 x 20 padded-pitch grid. Once per call: NR + 20 floats of
  // slack after each padded buffer, the forward's W panels (32 filters
  // padded to MR rows, K = 400), the W^T panels (25 taps, 16 channels
  // padded to MR rows, 32 filters), and the tap-offset table (K padded to
  // MR rows, 8-byte entries).
  const std::size_t mr = static_cast<std::size_t>(gemm_micro_mr());
  const std::size_t nr = static_cast<std::size_t>(gemm_micro_nr());
  const std::size_t f_panels = (32 + nr - 1) / nr * nr;
  const std::size_t per_sample =
      (16 * 20 * 20 + 32 * 20 * 20 + f_panels * 16 * 20) * sizeof(float);
  const std::size_t fixed =
      (2 * (nr + 20) + (32 + mr - 1) / mr * mr * 400 +
       25 * ((16 + mr - 1) / mr * mr) * 32) * sizeof(float) +
      (400 + mr - 1) / mr * mr * sizeof(std::int64_t);
  EXPECT_EQ(ws1, per_sample + fixed);
  EXPECT_EQ(ws64, 64 * per_sample + fixed);
  Conv2DOp direct(p, ConvBackend::kDirect);
  EXPECT_EQ(direct.workspace_bytes({{64, 16, 16, 16}, w, b}), 0u);
}

TEST(Conv, FlopCount) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad = 1;
  Conv2DOp op(p);
  // 2 * N*F*Ho*Wo*C*k*k
  EXPECT_EQ(op.forward_flops({{2, 3, 8, 8}, {4, 3, 3, 3}, {4}}),
            2ull * 2 * 4 * 8 * 8 * 3 * 9);
}

}  // namespace
}  // namespace d500

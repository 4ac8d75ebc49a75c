#include "ops/pool.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/threadpool.hpp"

namespace d500 {

const char* pool_kind_name(PoolKind k) {
  switch (k) {
    case PoolKind::kMax: return "max";
    case PoolKind::kAvg: return "avg";
    case PoolKind::kMedian: return "median";
  }
  return "?";
}

std::string Pool2DOp::name() const {
  switch (kind_) {
    case PoolKind::kMax: return "MaxPool2D";
    case PoolKind::kAvg: return "AvgPool2D";
    case PoolKind::kMedian: return "MedianPool2D";
  }
  return "Pool2D";
}

std::vector<Shape> Pool2DOp::output_shapes(
    const std::vector<Shape>& inputs) const {
  D500_CHECK_MSG(inputs.size() == 1, "Pool2D expects 1 input");
  const Shape& x = inputs[0];
  if (x.size() != 4) throw ShapeError("Pool2D: input must be rank 4");
  const std::int64_t Ho = params_.out_dim(x[2]);
  const std::int64_t Wo = params_.out_dim(x[3]);
  if (Ho <= 0 || Wo <= 0)
    throw ShapeError("Pool2D: output would be empty for " + shape_to_string(x));
  return {{x[0], x[1], Ho, Wo}};
}

void Pool2DOp::forward(const ConstTensors& inputs, const MutTensors& outputs) {
  const Tensor& X = *inputs[0];
  Tensor& Y = *outputs[0];
  const std::int64_t N = X.dim(0), C = X.dim(1), H = X.dim(2), W = X.dim(3);
  const std::int64_t Ho = params_.out_dim(H), Wo = params_.out_dim(W);
  const float* x = X.data();
  float* y = Y.data();
  if (kind_ == PoolKind::kMax) {
    // A running `v = v < w ? w : v` over the window's in-image taps in
    // (kh, kw) order is what std::max_element over the gathered window
    // returns (the first of equal maxima: -0 vs +0 keeps the first, a NaN
    // first tap stays, a later NaN is skipped), with no window buffer and
    // no branch (the select compiles to a max instruction). A window
    // wholly in the padding gives 0. The (n, c) planes are independent.
    const Pool2DParams& p = params_;
    const std::int64_t k = p.kernel;
    const std::int64_t grain =
        std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, Ho * Wo * k * k));
    parallel_for(0, N * C, grain, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t nc = lo; nc < hi; ++nc) {
        for (std::int64_t oh = 0; oh < Ho; ++oh) {
          const std::int64_t ih = oh * p.stride - p.pad;
          const std::int64_t kh0 = std::max<std::int64_t>(0, -ih);
          const std::int64_t rows = std::min(k, H - ih) - kh0;
          for (std::int64_t ow = 0; ow < Wo; ++ow) {
            const std::int64_t iw = ow * p.stride - p.pad;
            const std::int64_t kw0 = std::max<std::int64_t>(0, -iw);
            const std::int64_t cols = std::min(k, W - iw) - kw0;
            float v = 0.0f;
            if (rows > 0 && cols > 0) {
              const float* const win = x + (nc * H + ih + kh0) * W + iw + kw0;
              v = win[0];
              for (std::int64_t kh = 0; kh < rows; ++kh)
                for (std::int64_t kw = 0; kw < cols; ++kw) {
                  const float w = win[kh * W + kw];
                  v = v < w ? w : v;
                }
            }
            y[(nc * Ho + oh) * Wo + ow] = v;
          }
        }
      }
    });
    return;
  }
  // Avg and median: grow-only per-thread workspace, refilled per output
  // element below.
  float* const window = ThreadScratch<float, struct PoolWindow>::get(
      static_cast<std::size_t>(params_.kernel) * params_.kernel);
  for (std::int64_t nc = 0; nc < N * C; ++nc) {
    const float* xc = x + nc * H * W;
    float* yc = y + nc * Ho * Wo;
    for (std::int64_t oh = 0; oh < Ho; ++oh) {
      for (std::int64_t ow = 0; ow < Wo; ++ow) {
        std::size_t n = 0;
        for (std::int64_t kh = 0; kh < params_.kernel; ++kh) {
          const std::int64_t ih = oh * params_.stride - params_.pad + kh;
          if (ih < 0 || ih >= H) continue;
          for (std::int64_t kw = 0; kw < params_.kernel; ++kw) {
            const std::int64_t iw = ow * params_.stride - params_.pad + kw;
            if (iw < 0 || iw >= W) continue;
            window[n++] = xc[ih * W + iw];
          }
        }
        float* const end = window + n;
        float v = 0.0f;
        if (n > 0 && kind_ == PoolKind::kAvg) {
          float acc = 0.0f;
          for (const float* e = window; e != end; ++e) acc += *e;
          v = acc / static_cast<float>(n);
        } else if (n > 0) {
          float* const mid = window + n / 2;
          std::nth_element(window, mid, end);
          if (n % 2 == 1) {
            v = *mid;
          } else {
            const float hi = *mid;
            const float lo = *std::max_element(window, mid);
            v = 0.5f * (lo + hi);
          }
        }
        yc[oh * Wo + ow] = v;
      }
    }
  }
}

void Pool2DOp::backward(const ConstTensors& grad_outputs,
                        const ConstTensors& fwd_inputs,
                        const ConstTensors& fwd_outputs,
                        const MutTensors& grad_inputs) {
  if (!grad_inputs[0]) return;
  const Tensor& dY = *grad_outputs[0];
  const Tensor& X = *fwd_inputs[0];
  Tensor& dX = *grad_inputs[0];
  dX.fill(0.0f);
  const std::int64_t N = X.dim(0), C = X.dim(1), H = X.dim(2), W = X.dim(3);
  const std::int64_t Ho = params_.out_dim(H), Wo = params_.out_dim(W);
  const float* x = X.data();
  const float* dy = dY.data();
  float* dx = dX.data();
  // Grow-only per-thread scratch for the max/median windows, so warm steps
  // stay allocation-free.
  using Entry = std::pair<float, std::int64_t>;
  Entry* const win = ThreadScratch<Entry, struct PoolBackwardWindow>::get(
      static_cast<std::size_t>(params_.kernel) * params_.kernel);
  for (std::int64_t nc = 0; nc < N * C; ++nc) {
    const float* xc = x + nc * H * W;
    const float* dyc = dy + nc * Ho * Wo;
    float* dxc = dx + nc * H * W;
    for (std::int64_t oh = 0; oh < Ho; ++oh) {
      for (std::int64_t ow = 0; ow < Wo; ++ow) {
        const float g = dyc[oh * Wo + ow];
        if (g == 0.0f) continue;
        // Count valid window entries first (needed for avg).
        std::int64_t count = 0;
        for (std::int64_t kh = 0; kh < params_.kernel; ++kh) {
          const std::int64_t ih = oh * params_.stride - params_.pad + kh;
          if (ih < 0 || ih >= H) continue;
          for (std::int64_t kw = 0; kw < params_.kernel; ++kw) {
            const std::int64_t iw = ow * params_.stride - params_.pad + kw;
            if (iw >= 0 && iw < W) ++count;
          }
        }
        if (count == 0) continue;
        if (kind_ == PoolKind::kAvg) {
          for (std::int64_t kh = 0; kh < params_.kernel; ++kh) {
            const std::int64_t ih = oh * params_.stride - params_.pad + kh;
            if (ih < 0 || ih >= H) continue;
            for (std::int64_t kw = 0; kw < params_.kernel; ++kw) {
              const std::int64_t iw = ow * params_.stride - params_.pad + kw;
              if (iw >= 0 && iw < W)
                dxc[ih * W + iw] += g / static_cast<float>(count);
            }
          }
          continue;
        }
        // Max / median: gather the window with positions, then route the
        // gradient to the selected element(s) — the argmax for max, the
        // middle order statistic for odd median windows, or half to each
        // of the two middle elements for even windows (matching the
        // forward's average of the middle pair).
        std::size_t n = 0;
        for (std::int64_t kh = 0; kh < params_.kernel; ++kh) {
          const std::int64_t ih = oh * params_.stride - params_.pad + kh;
          if (ih < 0 || ih >= H) continue;
          for (std::int64_t kw = 0; kw < params_.kernel; ++kw) {
            const std::int64_t iw = ow * params_.stride - params_.pad + kw;
            if (iw >= 0 && iw < W) win[n++] = {xc[ih * W + iw], ih * W + iw};
          }
        }
        Entry* const end = win + n;
        if (kind_ == PoolKind::kMax) {
          const Entry* it = std::max_element(win, end);
          dxc[it->second] += g;
        } else {
          Entry* const mid = win + n / 2;
          std::nth_element(win, mid, end);
          if (n % 2 == 1) {
            dxc[mid->second] += g;
          } else {
            const Entry* lo = std::max_element(win, mid);
            dxc[mid->second] += 0.5f * g;
            dxc[lo->second] += 0.5f * g;
          }
        }
      }
    }
  }
}

std::uint64_t Pool2DOp::forward_flops(const std::vector<Shape>& inputs) const {
  const Shape& x = inputs[0];
  const std::int64_t Ho = params_.out_dim(x[2]);
  const std::int64_t Wo = params_.out_dim(x[3]);
  return static_cast<std::uint64_t>(x[0]) * x[1] * Ho * Wo * params_.kernel *
         params_.kernel;
}

std::vector<Shape> GlobalAvgPoolOp::output_shapes(
    const std::vector<Shape>& inputs) const {
  D500_CHECK_MSG(inputs.size() == 1, "GlobalAvgPool expects 1 input");
  const Shape& x = inputs[0];
  if (x.size() != 4) throw ShapeError("GlobalAvgPool: input must be rank 4");
  return {{x[0], x[1]}};
}

void GlobalAvgPoolOp::forward(const ConstTensors& inputs,
                              const MutTensors& outputs) {
  const Tensor& X = *inputs[0];
  Tensor& Y = *outputs[0];
  const std::int64_t N = X.dim(0), C = X.dim(1);
  const std::int64_t S = X.dim(2) * X.dim(3);
  const float* x = X.data();
  float* y = Y.data();
  for (std::int64_t nc = 0; nc < N * C; ++nc) {
    const float* xc = x + nc * S;
    float acc = 0.0f;
    for (std::int64_t s = 0; s < S; ++s) acc += xc[s];
    y[nc] = acc / static_cast<float>(S);
  }
}

void GlobalAvgPoolOp::backward(const ConstTensors& grad_outputs,
                               const ConstTensors& fwd_inputs,
                               const ConstTensors&,
                               const MutTensors& grad_inputs) {
  if (!grad_inputs[0]) return;
  const Tensor& dY = *grad_outputs[0];
  const Tensor& X = *fwd_inputs[0];
  Tensor& dX = *grad_inputs[0];
  const std::int64_t N = X.dim(0), C = X.dim(1);
  const std::int64_t S = X.dim(2) * X.dim(3);
  const float* dy = dY.data();
  float* dx = dX.data();
  for (std::int64_t nc = 0; nc < N * C; ++nc) {
    const float g = dy[nc] / static_cast<float>(S);
    float* dxc = dx + nc * S;
    for (std::int64_t s = 0; s < S; ++s) dxc[s] = g;
  }
}

}  // namespace d500

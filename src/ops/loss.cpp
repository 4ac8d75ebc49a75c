#include "ops/loss.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/simd.hpp"
#include "core/threadpool.hpp"
#include "ops/softmax.hpp"

namespace d500 {

std::vector<Shape> SoftmaxCrossEntropyOp::output_shapes(
    const std::vector<Shape>& inputs) const {
  D500_CHECK_MSG(inputs.size() == 2, "SoftmaxCrossEntropy expects {logits, labels}");
  const Shape& z = inputs[0];
  const Shape& y = inputs[1];
  if (z.size() != 2 || y.size() != 1 || y[0] != z[0])
    throw ShapeError("SoftmaxCrossEntropy: logits [B,C], labels [B] required");
  return {{1}};
}

void SoftmaxCrossEntropyOp::forward(const ConstTensors& inputs,
                                    const MutTensors& outputs) {
  const Tensor& Z = *inputs[0];
  const Tensor& labels = *inputs[1];
  const std::int64_t B = Z.dim(0), C = Z.dim(1);
  // Grow-only per-thread workspace; softmax_rows fully rewrites it.
  float* const probs = ThreadScratch<float, struct SoftmaxCeProbs>::get(
      static_cast<std::size_t>(B) * C);
  softmax_rows(Z.data(), probs, B, C);
  double loss = 0.0;
  for (std::int64_t b = 0; b < B; ++b) {
    const auto label = static_cast<std::int64_t>(labels.at(b));
    D500_CHECK_MSG(label >= 0 && label < C,
                   "label " << label << " out of range [0," << C << ")");
    loss -= std::log(
        std::max(probs[static_cast<std::size_t>(b * C + label)], 1e-12f));
  }
  outputs[0]->at(0) = static_cast<float>(loss / static_cast<double>(B));
}

void SoftmaxCrossEntropyOp::backward(const ConstTensors& grad_outputs,
                                     const ConstTensors& fwd_inputs,
                                     const ConstTensors&,
                                     const MutTensors& grad_inputs) {
  if (!grad_inputs[0]) return;
  const float upstream = grad_outputs[0]->at(0);
  const Tensor& Z = *fwd_inputs[0];
  const Tensor& labels = *fwd_inputs[1];
  Tensor& dZ = *grad_inputs[0];
  const std::int64_t B = Z.dim(0), C = Z.dim(1);
  softmax_rows(Z.data(), dZ.data(), B, C);
  const float invB = upstream / static_cast<float>(B);
  float* dz = dZ.data();
  const float* lab = labels.data();
  simd::dispatch([&](auto tag) {
    using V = decltype(tag);
    parallel_for(0, B, 64, [&](std::int64_t b0, std::int64_t b1) {
      for (std::int64_t b = b0; b < b1; ++b) {
        const auto label = static_cast<std::int64_t>(lab[b]);
        float* row = dz + b * C;
        row[label] -= 1.0f;
        simd::lanes<V>(0, C, [&](auto t2, std::int64_t c) {
          using W = decltype(t2);
          (W::loadu(row + c) * W::broadcast(invB)).storeu(row + c);
        });
      }
    });
  });
}

std::vector<Shape> MSELossOp::output_shapes(
    const std::vector<Shape>& inputs) const {
  D500_CHECK_MSG(inputs.size() == 2, "MSELoss expects {pred, target}");
  if (inputs[0] != inputs[1])
    throw ShapeError("MSELoss: pred/target shape mismatch");
  return {{1}};
}

void MSELossOp::forward(const ConstTensors& inputs, const MutTensors& outputs) {
  const Tensor& P = *inputs[0];
  const Tensor& T = *inputs[1];
  const std::int64_t n = P.elements();
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(P.at(i)) - T.at(i);
    acc += d * d;
  }
  outputs[0]->at(0) = static_cast<float>(acc / static_cast<double>(n));
}

void MSELossOp::backward(const ConstTensors& grad_outputs,
                         const ConstTensors& fwd_inputs, const ConstTensors&,
                         const MutTensors& grad_inputs) {
  const float upstream = grad_outputs[0]->at(0);
  const Tensor& P = *fwd_inputs[0];
  const Tensor& T = *fwd_inputs[1];
  const std::int64_t n = P.elements();
  const float k = 2.0f * upstream / static_cast<float>(n);
  const float* p = P.data();
  const float* t = T.data();
  if (grad_inputs[0]) {
    float* d = grad_inputs[0]->data();
    simd::dispatch([&](auto tag) {
      simd::lanes<decltype(tag)>(0, n, [&](auto t2, std::int64_t i) {
        using W = decltype(t2);
        (W::broadcast(k) * (W::loadu(p + i) - W::loadu(t + i))).storeu(d + i);
      });
    });
  }
  if (grad_inputs[1]) {
    float* d = grad_inputs[1]->data();
    simd::dispatch([&](auto tag) {
      simd::lanes<decltype(tag)>(0, n, [&](auto t2, std::int64_t i) {
        using W = decltype(t2);
        (W::broadcast(-k) * (W::loadu(p + i) - W::loadu(t + i))).storeu(d + i);
      });
    });
  }
}

std::int64_t count_correct(const Tensor& logits, const Tensor& labels) {
  D500_CHECK(logits.rank() == 2 && labels.rank() == 1);
  const std::int64_t B = logits.dim(0), C = logits.dim(1);
  D500_CHECK(labels.dim(0) == B);
  std::int64_t correct = 0;
  for (std::int64_t b = 0; b < B; ++b) {
    const float* row = logits.data() + b * C;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < C; ++c)
      if (row[c] > row[best]) best = c;
    if (best == static_cast<std::int64_t>(labels.at(b))) ++correct;
  }
  return correct;
}

}  // namespace d500

#include "ops/fused.hpp"

#include <cmath>

#include "core/simd.hpp"
#include "core/threadpool.hpp"

namespace d500 {

// The per-lane chain kernels (apply_activation / activation_grad) and the
// ew_map chunk grid are shared with the GEMM epilogue path via
// ops/elementwise.hpp — one definition keeps every fused path bit-identical.

// ---- FusedElementwiseOp ----------------------------------------------------

FusedElementwiseOp::FusedElementwiseOp(std::vector<Activation> kinds)
    : kinds_(std::move(kinds)) {
  D500_CHECK_MSG(kinds_.size() >= 2 && kinds_.size() <= kMaxChain,
                 "FusedElementwise chain length must be in [2, "
                     << kMaxChain << "]");
}

std::vector<Shape> FusedElementwiseOp::output_shapes(
    const std::vector<Shape>& inputs) const {
  D500_CHECK_MSG(inputs.size() == 1, "FusedElementwise expects 1 input");
  return {inputs[0]};
}

void FusedElementwiseOp::forward(const ConstTensors& inputs,
                                 const MutTensors& outputs) {
  const float* x = inputs[0]->data();
  float* y = outputs[0]->data();
  const std::int64_t n = inputs[0]->elements();
  ew_map(n, [&](auto tag, std::int64_t i) {
    using W = decltype(tag);
    W v = W::loadu(x + i);
    for (Activation a : kinds_) v = apply_activation(a, v);
    v.storeu(y + i);
  });
}

void FusedElementwiseOp::backward(const ConstTensors& grad_outputs,
                                  const ConstTensors& fwd_inputs,
                                  const ConstTensors& /*fwd_outputs*/,
                                  const MutTensors& grad_inputs) {
  if (!grad_inputs[0]) return;
  const float* dy = grad_outputs[0]->data();
  const float* x = fwd_inputs[0]->data();
  float* dx = grad_inputs[0]->data();
  const std::int64_t n = fwd_inputs[0]->elements();
  const int m = static_cast<int>(kinds_.size());
  ew_map(n, [&](auto tag, std::int64_t i) {
    using W = decltype(tag);
    // Recompute the chain's intermediates in registers (the unfused graph
    // reloads them from activation slots; float round trips are exact).
    W vals[kMaxChain + 1];
    vals[0] = W::loadu(x + i);
    for (int j = 1; j <= m; ++j)
      vals[j] = apply_activation(kinds_[static_cast<std::size_t>(j - 1)],
                                 vals[j - 1]);
    W d = W::loadu(dy + i);
    for (int j = m; j >= 1; --j) {
      const W g = activation_grad(kinds_[static_cast<std::size_t>(j - 1)], d,
                                  vals[j - 1], vals[j]);
      // Internal hops add +0.0 (the executor's zeroed-scratch axpy between
      // unfused nodes); the final hop is the executor's own axpy.
      d = j > 1 ? W::zero() + g : g;
    }
    d.storeu(dx + i);
  });
}

std::uint64_t FusedElementwiseOp::forward_flops(
    const std::vector<Shape>& inputs) const {
  return static_cast<std::uint64_t>(shape_elements(inputs[0])) * kinds_.size();
}

// ---- FusedConvBnOp ---------------------------------------------------------

FusedConvBnOp::FusedConvBnOp(std::unique_ptr<Conv2DOp> conv,
                             std::unique_ptr<BatchNormOp> bn, bool with_relu)
    : conv_(std::move(conv)), bn_(std::move(bn)), with_relu_(with_relu) {
  D500_CHECK(conv_ != nullptr && bn_ != nullptr);
}

std::vector<Shape> FusedConvBnOp::output_shapes(
    const std::vector<Shape>& inputs) const {
  D500_CHECK_MSG(inputs.size() == 5,
                 "FusedConvBn expects {X, W, bias, gamma, beta}");
  const std::vector<Shape> conv_in(inputs.begin(), inputs.begin() + 3);
  const Shape y = conv_->output_shapes(conv_in)[0];
  return bn_->output_shapes({y, inputs[3], inputs[4]});
}

void FusedConvBnOp::set_training_mode(bool training) {
  if (training != bn_->training()) fold_dirty_ = true;
  bn_->set_training(training);
}

std::size_t FusedConvBnOp::workspace_bytes(
    const std::vector<Shape>& inputs) const {
  const std::vector<Shape> conv_in(inputs.begin(), inputs.begin() + 3);
  return conv_->workspace_bytes(conv_in);
}

void FusedConvBnOp::forward(const ConstTensors& inputs,
                            const MutTensors& outputs) {
  const Tensor& X = *inputs[0];
  const Tensor& W = *inputs[1];
  const Tensor& bias = *inputs[2];
  const Tensor& gamma = *inputs[3];
  const Tensor& beta = *inputs[4];
  Tensor& Y = *outputs[0];

  if (bn_->training()) {
    // Compare the retained conv output's dims in place: building the
    // output_shapes argument and result vectors would allocate every step.
    // A mismatch (first call, new batch size) takes the validating path.
    const Conv2DParams& p = conv_->params();
    const Shape& have = conv_out_.shape();
    if (have.size() != 4 || have[0] != X.dim(0) || have[1] != W.dim(0) ||
        have[2] != p.out_dim(X.dim(2), p.kernel_h) ||
        have[3] != p.out_dim(X.dim(3), p.kernel_w))
      conv_out_ =
          Tensor(conv_->output_shapes({X.shape(), W.shape(), bias.shape()})[0]);
    sub_in_.clear();
    sub_in_.push_back(&X);
    sub_in_.push_back(&W);
    sub_in_.push_back(&bias);
    sub_out_.clear();
    sub_out_.push_back(&conv_out_);
    conv_->forward(sub_in_, sub_out_);
    sub_in_.clear();
    sub_in_.push_back(&conv_out_);
    sub_in_.push_back(&gamma);
    sub_in_.push_back(&beta);
    sub_out_.clear();
    sub_out_.push_back(&Y);
    bn_->forward(sub_in_, sub_out_);
  } else {
    ensure_fold(W, bias, gamma, beta);
    sub_in_.clear();
    sub_in_.push_back(&X);
    sub_in_.push_back(&w_folded_);
    sub_in_.push_back(&b_folded_);
    sub_out_.clear();
    sub_out_.push_back(&Y);
    // Eval mode needs no backward, so the ReLU can ride the conv's fused
    // epilogue (one pass over Y on the im2col backend). Installed
    // transiently: the training path must keep ReLU after the bn sweep.
    if (with_relu_) conv_->try_fuse_epilogue(Activation::kReLU);
    conv_->forward(sub_in_, sub_out_);
    if (with_relu_) conv_->clear_epilogue();
    return;
  }
  if (with_relu_)
    activation_forward_inplace(Activation::kReLU, Y.data(), Y.elements());
}

void FusedConvBnOp::backward(const ConstTensors& grad_outputs,
                             const ConstTensors& fwd_inputs,
                             const ConstTensors& fwd_outputs,
                             const MutTensors& grad_inputs) {
  D500_CHECK_MSG(bn_->training(),
                 "FusedConvBn backward requires training mode (the eval "
                 "path runs folded weights and keeps no conv output)");
  const Tensor& dY = *grad_outputs[0];
  const Tensor* bn_gout = &dY;
  if (with_relu_) {
    // relu -> bn hop: dpre = 0.0 + select(y > 0, dy, 0), matching the
    // unfused graph's relu backward plus the zeroed-scratch axpy.
    if (d_bn_.shape() != dY.shape()) d_bn_ = Tensor(dY.shape());
    activation_backward_into(Activation::kReLU, dY.data(),
                             fwd_outputs[0]->data(), d_bn_.data(),
                             dY.elements());
    bn_gout = &d_bn_;
  }

  if (d_conv_.shape() != conv_out_.shape()) d_conv_ = Tensor(conv_out_.shape());
  sub_gout_.clear();
  sub_gout_.push_back(bn_gout);
  sub_fin_.clear();
  sub_fin_.push_back(&conv_out_);
  sub_fin_.push_back(fwd_inputs[3]);
  sub_fin_.push_back(fwd_inputs[4]);
  sub_fout_.clear();
  sub_fout_.push_back(fwd_outputs[0]);  // unused by bn backward
  sub_gin_.clear();
  sub_gin_.push_back(&d_conv_);
  sub_gin_.push_back(grad_inputs[3]);  // dgamma -> executor scratch
  sub_gin_.push_back(grad_inputs[4]);  // dbeta  -> executor scratch
  bn_->backward(sub_gout_, sub_fin_, sub_fout_, sub_gin_);

  // bn -> conv hop: the unfused graph routes bn's dX through a zeroed
  // scratch axpy (0.0 + v) before conv consumes it.
  float* dc = d_conv_.data();
  ew_map(d_conv_.elements(), [&](auto tag, std::int64_t i) {
    using V = decltype(tag);
    (V::zero() + V::loadu(dc + i)).storeu(dc + i);
  });

  sub_gout_.clear();
  sub_gout_.push_back(&d_conv_);
  sub_fin_.clear();
  sub_fin_.push_back(fwd_inputs[0]);
  sub_fin_.push_back(fwd_inputs[1]);
  sub_fin_.push_back(fwd_inputs[2]);
  sub_fout_.clear();
  sub_fout_.push_back(&conv_out_);
  sub_gin_.clear();
  sub_gin_.push_back(grad_inputs[0]);  // dX
  sub_gin_.push_back(grad_inputs[1]);  // dW
  sub_gin_.push_back(grad_inputs[2]);  // dbias
  conv_->backward(sub_gout_, sub_fin_, sub_fout_, sub_gin_);
}

void FusedConvBnOp::ensure_fold(const Tensor& W, const Tensor& bias,
                                const Tensor& gamma, const Tensor& beta) {
  if (!fold_dirty_ && fold_src_w_ == W.data() && fold_src_b_ == bias.data() &&
      fold_src_gamma_ == gamma.data() && fold_src_beta_ == beta.data())
    return;
  const std::int64_t F = W.dim(0);
  const std::int64_t CKK = W.dim(1) * W.dim(2) * W.dim(3);
  if (w_folded_.shape() != W.shape()) w_folded_ = Tensor(W.shape());
  if (b_folded_.shape() != bias.shape()) b_folded_ = Tensor(bias.shape());
  const std::vector<float>& mean = bn_->running_mean();
  const std::vector<float>& var = bn_->running_var();
  const float eps = bn_->eps();
  for (std::int64_t f = 0; f < F; ++f) {
    const float inv_std = 1.0f / std::sqrt(var[static_cast<std::size_t>(f)] + eps);
    const float s = gamma.at(f) * inv_std;
    const float* wf = W.data() + f * CKK;
    float* wo = w_folded_.data() + f * CKK;
    for (std::int64_t k = 0; k < CKK; ++k) wo[k] = wf[k] * s;
    b_folded_.at(f) =
        beta.at(f) + (bias.at(f) - mean[static_cast<std::size_t>(f)]) * s;
  }
  if (conv_->backend() == ConvBackend::kIm2col) {
    fold_panels_.resize(static_cast<std::size_t>(gemm_packed_a_elems(F, CKK)));
    gemm_pack_a(F, CKK, w_folded_.data(), fold_panels_.data());
    conv_->set_prepacked_w(fold_panels_.data(), w_folded_.data());
  }
  fold_src_w_ = W.data();
  fold_src_b_ = bias.data();
  fold_src_gamma_ = gamma.data();
  fold_src_beta_ = beta.data();
  fold_dirty_ = false;
}

std::uint64_t FusedConvBnOp::forward_flops(
    const std::vector<Shape>& inputs) const {
  const std::vector<Shape> conv_in(inputs.begin(), inputs.begin() + 3);
  const Shape y = conv_->output_shapes(conv_in)[0];
  std::uint64_t flops = conv_->forward_flops(conv_in) +
                        bn_->forward_flops({y, inputs[3], inputs[4]});
  if (with_relu_) flops += static_cast<std::uint64_t>(shape_elements(y));
  return flops;
}

}  // namespace d500

// Elementwise and broadcasting operators: activations, binary arithmetic,
// bias-add, and the fused Bias+ReLU used by the operator-fusion transform
// (the paper's Use Case 1 discusses exactly this fusion in Caffe2).
#pragma once

#include <cstdint>
#include <vector>

#include "core/simd.hpp"
#include "core/threadpool.hpp"
#include "ops/operator.hpp"

namespace d500 {

enum class Activation { kReLU, kSigmoid, kTanh };

const char* activation_name(Activation a);

/// Chunk size for parallel elementwise maps: large enough that chunk
/// dispatch is noise, small enough that mid-sized activations still spread
/// across workers. A multiple of every vector width, so only the final
/// chunk has a scalar tail.
inline constexpr std::int64_t kEwGrain = 16384;

/// Run `body(tag, i)` over [0, n) in parallel chunks, full-width lanes with
/// a Vec1 tail inside each chunk (core/simd tail rule). The chunk grid
/// depends only on n, and lanes never cross a chunk boundary, so results
/// are bit-identical at any thread count.
template <class F>
inline void ew_map(std::int64_t n, F&& body) {
  simd::dispatch([&](auto tag) {
    using V = decltype(tag);
    parallel_for(0, n, kEwGrain, [&](std::int64_t lo, std::int64_t hi) {
      simd::lanes<V>(lo, hi, body);
    });
  });
}

/// Longest activation chain the fused kernels keep in registers, shared by
/// FusedElementwiseOp and the GEMM epilogue descriptor (their backwards
/// hold the per-lane intermediates in a fixed-size array).
inline constexpr std::size_t kMaxActivationChain = 8;

/// One activation link applied to a vector lane — the exact expressions
/// ActivationOp::forward runs. Shared by every fused path (elementwise
/// chains, GEMM tile-store epilogues) so all of them produce the same bits
/// per lane as the standalone op.
template <class W>
inline W apply_activation(Activation a, W v) {
  switch (a) {
    case Activation::kReLU: return W::max(v, W::zero());
    case Activation::kSigmoid: return simd::vsigmoid(v);
    case Activation::kTanh: return simd::vtanh(v);
  }
  return v;
}

/// d(act)/d(pre) * d from the link's pre-activation x and post-activation
/// y — the same expressions (and evaluation order) as ActivationOp::backward.
template <class W>
inline W activation_grad(Activation a, W d, W x, W y) {
  switch (a) {
    case Activation::kReLU: return W::select_gt_zero(x, d, W::zero());
    case Activation::kSigmoid: return d * y * (W::broadcast(1.0f) - y);
    case Activation::kTanh: return d * (W::broadcast(1.0f) - y * y);
  }
  return d;
}

/// Fused-epilogue entry points (graph/passes fuse-epilogue): the compute
/// ops (MatMul/Linear/Conv2D) apply an activation in place over their
/// output instead of the graph running a separate ActivationOp. Same SIMD
/// kernels as ActivationOp, so fused results are bit-identical to the
/// unfused two-op sequence (a float store/load round trip is exact).
void activation_forward_inplace(Activation kind, float* y, std::int64_t n);

/// Epilogue backward: dpre[i] = 0.0f + d(act)/d(pre) * dy[i], computed
/// from the post-activation output y alone. ReLU keys off y > 0, which is
/// equivalent to pre > 0 under the max(pre, 0) forward kernel (NaN pre
/// maps to y = 0, matching select_gt_zero's all-false NaN compare). The
/// leading +0.0f reproduces the executor's zeroed-scratch axpy hop on the
/// act->op edge of the unfused graph, so -0.0 gradients canonicalize to
/// +0.0 exactly as they do unfused.
void activation_backward_into(Activation kind, const float* dy, const float* y,
                              float* dpre, std::int64_t n);

/// Chain backward: dpre[i] = d(chain)/d(pre) * dy[i], recomputing the
/// chain's intermediates per lane from the saved pre-chain values x0 (the
/// FusedElementwiseOp rule; float store/load round trips are exact, so the
/// recompute matches the unfused graph's reloaded activation slots bit for
/// bit). Every gradient hop — the internal links AND the final chain->op
/// hop — adds +0.0: the whole chain lives inside the owning op, so all of
/// the unfused graph's zeroed-scratch axpy edges are internalized here.
void activation_chain_backward_into(const Activation* chain, int len,
                                    const float* dy, const float* x0,
                                    float* dpre, std::int64_t n);

/// Shared epilogue state for the GEMM-family compute ops (MatMul, Linear,
/// Conv2D): a 0..kMaxActivationChain-link activation chain plus the
/// grow-only scratch its backward needs. Replaces the per-op copies of the
/// PR 6 epilogue forward/backward blocks.
///
/// Two forward paths, bitwise identical by construction
/// (D500_GEMM_EPILOGUE, ops/gemm):
///   fused — the packed-GEMM microkernel applies bias + chain in registers
///           at tile store time (gemm_packed_ex descriptor); this class
///           only supplies the chain and the pre-chain save buffer.
///   post  — forward_post() runs the pre-fusion two-pass code: one
///           in-place activation sweep per link after the GEMM.
/// Backward is shared: single links reconstruct dpre from the op output
/// alone (ReLU keys off y>0, which is equivalent to pre>0 under max(pre,0)
/// incl. NaN; sigmoid/tanh grads use only their own output); longer chains
/// recompute intermediates from the pre-chain values saved at forward time.
class EpilogueChain {
 public:
  bool empty() const { return chain_.empty(); }
  int size() const { return static_cast<int>(chain_.size()); }
  const std::vector<Activation>& chain() const { return chain_; }

  /// Appends a link; false once the chain is full (the fuse-epilogue pass
  /// stops absorbing there).
  bool try_push(Activation kind);

  /// Drops all links (FusedConvBn installs a transient eval-mode epilogue
  /// on its inner conv). Keeps scratch capacity.
  void clear() { chain_.clear(); }

  /// True when the backward needs pre-chain values saved at forward time:
  /// chains of two or more links must recompute their intermediates.
  bool needs_pre() const { return chain_.size() >= 2; }

  /// Grow-only pre-chain save buffer sized for n elements. The fused tile
  /// store writes it from registers; forward_post() snapshots into it.
  float* ensure_pre(std::int64_t n);
  /// The pre-chain values the last forward saved (needs_pre() chains).
  const float* saved_pre() const { return pre_.data(); }

  /// Post-path forward (the pre-fusion differential oracle): snapshot the
  /// pre-chain values when the backward will need them, then one in-place
  /// activation sweep per link over y.
  void forward_post(float* y, std::int64_t n);

  /// Converts dY into the pre-epilogue gradient. Returns `gout` untouched
  /// for an empty chain, otherwise internal scratch holding dpre. `y` is
  /// the op's saved (post-chain) forward output.
  const Tensor* backward(const Tensor* gout, const float* y);

 private:
  std::vector<Activation> chain_;
  Tensor pre_;   // pre-chain values saved by forward (chains >= 2 links)
  Tensor dpre_;  // grow-only backward scratch
};

/// Unary activation: {X} -> {Y}, any rank.
class ActivationOp : public CustomOperator {
 public:
  explicit ActivationOp(Activation kind) : kind_(kind) {}
  std::string name() const override;
  std::size_t num_inputs() const override { return 1; }
  std::size_t num_outputs() const override { return 1; }
  std::vector<Shape> output_shapes(
      const std::vector<Shape>& inputs) const override;
  void forward(const ConstTensors& inputs, const MutTensors& outputs) override;
  void backward(const ConstTensors& grad_outputs, const ConstTensors& fwd_inputs,
                const ConstTensors& fwd_outputs,
                const MutTensors& grad_inputs) override;
  std::uint64_t forward_flops(const std::vector<Shape>& inputs) const override;
  Activation kind() const { return kind_; }

 private:
  Activation kind_;
};

enum class BinaryKind { kAdd, kSub, kMul };

/// Binary elementwise op on same-shape tensors: {A, B} -> {C}.
class BinaryOp : public CustomOperator {
 public:
  explicit BinaryOp(BinaryKind kind) : kind_(kind) {}
  std::string name() const override;
  std::size_t num_inputs() const override { return 2; }
  std::size_t num_outputs() const override { return 1; }
  std::vector<Shape> output_shapes(
      const std::vector<Shape>& inputs) const override;
  void forward(const ConstTensors& inputs, const MutTensors& outputs) override;
  void backward(const ConstTensors& grad_outputs, const ConstTensors& fwd_inputs,
                const ConstTensors& fwd_outputs,
                const MutTensors& grad_inputs) override;
  std::uint64_t forward_flops(const std::vector<Shape>& inputs) const override;
  BinaryKind kind() const { return kind_; }

 private:
  BinaryKind kind_;
};

/// Channel bias-add on NCHW: {X [N,C,H,W], bias [C]} -> {Y}.
class BiasAddOp : public CustomOperator {
 public:
  std::string name() const override { return "BiasAdd"; }
  std::size_t num_inputs() const override { return 2; }
  std::size_t num_outputs() const override { return 1; }
  std::vector<Shape> output_shapes(
      const std::vector<Shape>& inputs) const override;
  void forward(const ConstTensors& inputs, const MutTensors& outputs) override;
  void backward(const ConstTensors& grad_outputs, const ConstTensors& fwd_inputs,
                const ConstTensors& fwd_outputs,
                const MutTensors& grad_inputs) override;
};

/// Fused BiasAdd+ReLU: produced by the Level 1 fusion transform; a single
/// pass over memory instead of two (the fusion the paper attributes to
/// Caffe2-style kernels).
class FusedBiasReluOp : public CustomOperator {
 public:
  std::string name() const override { return "FusedBiasRelu"; }
  std::size_t num_inputs() const override { return 2; }
  std::size_t num_outputs() const override { return 1; }
  std::vector<Shape> output_shapes(
      const std::vector<Shape>& inputs) const override;
  void forward(const ConstTensors& inputs, const MutTensors& outputs) override;
  void backward(const ConstTensors& grad_outputs, const ConstTensors& fwd_inputs,
                const ConstTensors& fwd_outputs,
                const MutTensors& grad_inputs) override;
};

}  // namespace d500

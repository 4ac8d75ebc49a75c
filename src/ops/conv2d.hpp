// 2-D convolution, the paper's flagship Level 0 operator (Fig. 6a).
//
// Three forward backends exercise the algorithmic diversity the paper calls
// out in the introduction ("operators can be computed using different
// methods, e.g., im2col or Winograd"):
//   kDirect   — 7-loop direct convolution
//   kIm2col   — the im2col formulation (Chellapilla et al.) as an implicit
//               GEMM: X is copied once into a zero-padded buffer, split
//               into stride phase planes, so each B row of a microkernel
//               tile is NR contiguous floats at a per-tap row offset; the
//               pool splits the tiles, and each tile gets its bias and
//               fused chain in L1 and is stored straight into NCHW Y. No
//               column matrix, no packed B panel, no scatter pass;
//               bitwise equal to conv2d_forward_reference
//   kWinograd — Winograd F(2x2, 3x3) minimal filtering (Lavin & Gray);
//               requires 3x3 kernel, stride 1, dilation 1
// Backward, for every backend, is the im2col formulation run as
// whole-minibatch packed GEMMs (Conv2DOp::backward in conv2d.cpp): one
// GEMM for dW over all N samples at once, one for the column gradient, then
// col2im per sample. Its workspace scales with the minibatch, which is what
// micro-batching (graph/microbatch) shrinks. DESIGN.md §9 gives the
// determinism argument for both directions.
#pragma once

#include "ops/gemm.hpp"
#include "ops/operator.hpp"

namespace d500 {

enum class ConvBackend { kDirect, kIm2col, kWinograd };

const char* conv_backend_name(ConvBackend b);

/// Convolution geometry. Square kernels/strides/pads keep the DeepBench
/// subset expressible; the implementation is general in H/W.
struct Conv2DParams {
  std::int64_t kernel_h = 3;
  std::int64_t kernel_w = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t dilation = 1;

  std::int64_t out_dim(std::int64_t in, std::int64_t k) const {
    const std::int64_t eff = (k - 1) * dilation + 1;
    return (in + 2 * pad - eff) / stride + 1;
  }
};

/// Conv2D operator: inputs {X [N,C,H,W], W [F,C,kh,kw], bias [F]},
/// output {Y [N,F,Ho,Wo]}. NCHW layout.
class Conv2DOp : public CustomOperator {
 public:
  Conv2DOp(Conv2DParams params, ConvBackend backend = ConvBackend::kIm2col)
      : params_(params), backend_(backend) {}

  std::string name() const override { return "Conv2D"; }
  std::size_t num_inputs() const override { return 3; }
  std::size_t num_outputs() const override { return 1; }
  std::vector<Shape> output_shapes(
      const std::vector<Shape>& inputs) const override;
  void forward(const ConstTensors& inputs, const MutTensors& outputs) override;
  void backward(const ConstTensors& grad_outputs, const ConstTensors& fwd_inputs,
                const ConstTensors& fwd_outputs,
                const MutTensors& grad_inputs) override;
  std::uint64_t forward_flops(const std::vector<Shape>& inputs) const override;

  const Conv2DParams& params() const { return params_; }
  ConvBackend backend() const { return backend_; }

  /// Installs pre-packed A-panels of the filter tensor (im2col backend's
  /// GEMM treats W reshaped to [F, C*kh*kw] as the A operand). `src` is the
  /// data pointer of the tensor the panels were packed from; the forward
  /// uses the panels only while inputs[1].data() == src, so a swapped-out
  /// weight tensor silently falls back to per-call packing.
  void set_prepacked_w(const float* packed, const float* src) {
    prepacked_w_ = packed;
    prepacked_src_ = src;
  }

  /// Bytes of per-thread scratch for the given input shapes; used by the
  /// micro-batching memory model (Level 1). kIm2col reports its backward's
  /// whole-minibatch workspace; its forward's padded input (N*C*Hq*Wq
  /// floats per kept stride phase pair, plus NR + Wq) is a separate
  /// buffer, smaller for all but layers of a few dozen floats, and is not
  /// counted. kDirect and kWinograd report their forward scratch only
  /// (their backward runs on the im2col workspace).
  std::size_t workspace_bytes(const std::vector<Shape>& inputs) const;

  /// Fused activation epilogue chain; see MatMulOp::try_fuse_epilogue.
  /// Conv's bias is per filter, i.e. per ROW of its filter-major GEMM, so
  /// the chain cannot ride the per-column GemmEpilogue descriptor; instead
  /// the im2col backend applies bias + chain on each L1-resident
  /// microkernel tile before storing it into Y (zero extra sweeps).
  /// Direct/winograd backends always run the post-sweep path.
  bool try_fuse_epilogue(Activation kind) { return epilogue_.try_push(kind); }
  /// Drop the chain (FusedConvBn installs a transient eval-mode ReLU).
  void clear_epilogue() { epilogue_.clear(); }
  const EpilogueChain& epilogue() const { return epilogue_; }

 private:
  Conv2DParams params_;
  ConvBackend backend_;
  const float* prepacked_w_ = nullptr;
  const float* prepacked_src_ = nullptr;
  EpilogueChain epilogue_;
};

/// im2col lowering: writes the [C*kh*kw, Ho*Wo] column matrix for one
/// sample, rows `row_stride` floats apart (0 = Ho*Wo, densely packed).
/// Exposed for tests.
void im2col(const float* x, std::int64_t C, std::int64_t H, std::int64_t W,
            const Conv2DParams& p, float* col, std::int64_t row_stride = 0);

/// Transposed scatter of im2col (accumulates into x_grad); rows of `col`
/// are `row_stride` floats apart (0 = Ho*Wo).
void col2im(const float* col, std::int64_t C, std::int64_t H, std::int64_t W,
            const Conv2DParams& p, float* x_grad, std::int64_t row_stride = 0);

/// Reference conv forward: per sample, im2col, then gemm(kPacked) into
/// Y's [F, Ho*Wo] plane, then the bias add and `chain` (chain_len links)
/// per element; `pre`, if non-null, receives the value before the chain.
/// The oracle the implicit-GEMM forward must match bit for bit (tests,
/// bench_l0_conv).
void conv2d_forward_reference(const Tensor& X, const Tensor& Wt,
                              const Tensor& bias, const Conv2DParams& p,
                              Tensor* Y, const Activation* chain = nullptr,
                              int chain_len = 0, Tensor* pre = nullptr);

/// Reference conv backward: per sample, im2col + naive serial GEMMs + a
/// bounds-checked per-element scatter, and plain ascending bias sums. The
/// oracle Conv2DOp::backward is checked against (tests, bench_l0_conv).
/// dX/dW/db may each be null.
void conv2d_backward_reference(const Tensor& X, const Tensor& Wt,
                               const Tensor& dY, const Conv2DParams& p,
                               Tensor* dX, Tensor* dW, Tensor* db);

}  // namespace d500

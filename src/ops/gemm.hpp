// General matrix multiplication: the kernel at the heart of FC layers and
// im2col convolution, and one of the two DeepBench operator families the
// paper benchmarks at Level 0 (Fig. 6b).
//
// Three backends with genuinely different performance (used to play the
// roles of "framework kernels" vs. the DeepBench bare-kernel baseline):
//   kNaive   — textbook ijk triple loop, strictly serial
//   kBlocked — ikj ordering + cache blocking (explicit SIMD inner loop),
//              row blocks spread over the shared thread pool
//   kPacked  — BLIS-style: A packed into MR-interleaved panels, B into
//              NR-column panels, consumed by a register-blocked
//              6 x (2 * vector width) microkernel written on core/simd;
//              packing and row blocks run as parallel_for chunks
//
// Panel layout constants derive from the compile-time native vector width
// (core/simd kNativeWidth), NOT from the runtime D500_KERNEL dispatch —
// pre-packed buffers built once stay valid if the dispatch mode changes,
// and the scalar and SIMD instantiations of the microkernel accumulate
// each output element in the same order with the same fused operations, so
// kPacked results are bit-identical across dispatch modes.
//
// The packing API below is shared between the per-call path and the
// PlanExecutor pre-packed weight cache: both produce byte-identical panel
// buffers and feed the same microkernel, which is what keeps "prepack on"
// vs "prepack off" bitwise-equal (tests/test_memory_plan.cpp relies on
// this to compare PlanExecutor against ReferenceExecutor).
//
// All parallel decomposition is a pure function of the problem size (never
// of the thread count), so every backend is bit-deterministic at any
// D500_THREADS setting.
#pragma once

#include <cstdint>

#include "core/simd.hpp"
#include "ops/elementwise.hpp"
#include "ops/operator.hpp"

namespace d500 {

enum class GemmBackend { kNaive, kBlocked, kPacked };

const char* gemm_backend_name(GemmBackend b);

/// Backend used when none is requested explicitly (op constructor defaults,
/// graph import without a backend attribute): D500_GEMM=naive|blocked|packed,
/// parsed once, defaulting to kPacked.
GemmBackend default_gemm_backend();

// --- Epilogue fusion mode --------------------------------------------------

/// How compute ops with an EpilogueChain realize it (D500_GEMM_EPILOGUE):
///   kFused — one kernel launch, zero extra passes over C at DRAM distance:
///            the bias applies in registers at microkernel tile store time,
///            the activation chain per completed row block while it is
///            still L1-resident from those stores
///   kPost  — the pre-fusion two-pass path: GEMM, then separate bias and
///            activation sweeps. Kept as the differential oracle; both
///            modes are bitwise identical by construction (a float
///            store/load round trip is exact, and every per-element
///            operation — bias add, activation polynomial — produces the
///            same bits in any vector width, so regrouping the work into
///            tiles cannot change any output element).
enum class EpilogueMode { kFused, kPost };

/// Parsed once from D500_GEMM_EPILOGUE (default kFused); tests and benches
/// flip it programmatically to compare the paths inside one process.
EpilogueMode gemm_epilogue_mode();
void set_gemm_epilogue_mode(EpilogueMode m);
const char* epilogue_mode_name(EpilogueMode m);

/// Per-GEMM epilogue descriptor consumed by gemm_packed_ex at tile store
/// time. All pointers are borrowed; null members disable that part.
struct GemmEpilogue {
  /// Per-column bias, length N (Linear's bias vector). Added to each
  /// output element before the chain.
  const float* bias = nullptr;
  /// Activation chain applied in order after the bias add.
  const Activation* chain = nullptr;
  int chain_len = 0;
  /// When non-null, receives the post-bias / pre-chain value of every
  /// element (same M x N layout as C) — copied from the cache-resident row
  /// block before its chain runs, for the chain backward's per-lane
  /// recompute.
  float* save_pre = nullptr;

  bool active() const {
    return bias != nullptr || chain_len > 0;
  }
};

/// C(MxN) = alpha * A(MxK) x B(KxN) + beta * C. Row-major, no transposes
/// (transposition is handled a level up where needed).
void gemm(GemmBackend backend, std::int64_t M, std::int64_t N, std::int64_t K,
          float alpha, const float* A, const float* B, float beta, float* C);

/// C += A^T x B where A is (KxM): used by weight-gradient computation.
/// kNaive is the serial reference; kBlocked/kPacked run a k-blocked tiling
/// with C row blocks spread over the shared thread pool.
void gemm_at_b(GemmBackend backend, std::int64_t M, std::int64_t N,
               std::int64_t K, const float* A, const float* B, float* C);

/// C += A x B^T where B is (NxK): used by input-gradient computation.
/// kNaive is the serial reference; kBlocked/kPacked tile over rows/columns
/// of C with row blocks spread over the shared thread pool.
void gemm_a_bt(GemmBackend backend, std::int64_t M, std::int64_t N,
               std::int64_t K, const float* A, const float* B, float* C);

inline std::uint64_t gemm_flops(std::int64_t M, std::int64_t N,
                                std::int64_t K) {
  return 2ULL * static_cast<std::uint64_t>(M) * static_cast<std::uint64_t>(N) *
         static_cast<std::uint64_t>(K);
}

// --- kPacked panel API -----------------------------------------------------
// Shared by the per-call path and the PlanExecutor pre-packed weight cache.
// Panel geometry (MR row interleave, NR column width) is a build constant;
// buffers sized with the helpers below stay valid for the process lifetime.

/// Elements a packed copy of A (M x K row-major) occupies: rows padded up
/// to the microkernel row count MR.
std::int64_t gemm_packed_a_elems(std::int64_t M, std::int64_t K);

/// Elements a packed copy of B (K x N row-major) occupies: columns padded
/// up to the panel width NR.
std::int64_t gemm_packed_b_elems(std::int64_t K, std::int64_t N);

/// Pack A (M x K row-major) into MR-interleaved, zero-padded panels.
/// Parallel over panels on the shared pool; writes gemm_packed_a_elems.
void gemm_pack_a(std::int64_t M, std::int64_t K, const float* A, float* packed);

/// Pack B (K x N row-major) into NR-column, zero-padded panels.
void gemm_pack_b(std::int64_t K, std::int64_t N, const float* B, float* packed);

/// Pack B^T panels from Bt stored (N x K row-major) — i.e. pack the K x N
/// logical matrix Bt^T without materializing it. Used for Linear weights
/// (W is [out, in]; the forward GEMM needs W^T panels).
void gemm_pack_bt(std::int64_t N, std::int64_t K, const float* Bt,
                  float* packed);

/// Microkernel register-tile geometry (rows x columns). Exposed so tests
/// and benches can target the tile-tail boundary sizes; build constants,
/// not dispatch-mode properties.
constexpr std::int64_t gemm_micro_mr() { return 6; }
constexpr std::int64_t gemm_micro_nr() { return 2 * simd::kNativeWidth; }

/// One full register tile whose B operand is read in place (the
/// implicit-GEMM convolution forward): tile[r * NR + j] = the sum over
/// ascending k of packed_a[k * MR + r] * base[rows[k] + j], for the
/// MR x NR = gemm_micro_mr() x gemm_micro_nr() tile. packed_a is one
/// MR-row panel in gemm_pack_a layout; B row k is the NR floats at
/// base + rows[k]. The k-loop is gemm_packed_ex's, so each element is the
/// same fma chain and store it gives with alpha 1, beta 0 and a packed B
/// panel holding those rows: the bits match it.
void gemm_micro_tile_rows(std::int64_t K, const float* packed_a,
                          const float* base, const std::int64_t* rows,
                          float* tile);

/// kPacked core with optional pre-packed operands. Computes
/// C = alpha * A x B + beta * C. `packedA` / `packedB` — when non-null —
/// must hold gemm_pack_a(M, K, A) / gemm_pack_b(K, N, B) output; null
/// operands are packed per call into grow-only thread-local workspaces.
/// When `b_transposed` is true, B is stored (N x K) and packed via
/// gemm_pack_bt instead (packedB, if given, must match that layout).
/// Both paths run identical arithmetic, so prepacked vs per-call results
/// are bitwise equal.
///
/// `epi` — when non-null and active — fuses the bias / activation-chain
/// epilogue into the GEMM (requires beta == 0: each C element is produced
/// exactly once, by its own tile store). The bias adds in registers at tile
/// store time; the chain (and save_pre copy) runs per completed row block
/// while it is cache-resident, inside the same parallel region. The
/// epilogue is a pure per-element map, so fusing it this way is bitwise
/// identical to running the same sweeps after the GEMM, at any dispatch
/// mode or thread count.
void gemm_packed_ex(std::int64_t M, std::int64_t N, std::int64_t K,
                    float alpha, const float* A, const float* packedA,
                    const float* B, const float* packedB, bool b_transposed,
                    float beta, float* C, const GemmEpilogue* epi = nullptr);

/// MatMul operator: inputs {A [M,K], B [K,N]}, output {C [M,N]}.
class MatMulOp : public CustomOperator {
 public:
  explicit MatMulOp(GemmBackend backend = default_gemm_backend())
      : backend_(backend) {}

  std::string name() const override { return "MatMul"; }
  std::size_t num_inputs() const override { return 2; }
  std::size_t num_outputs() const override { return 1; }
  std::vector<Shape> output_shapes(
      const std::vector<Shape>& inputs) const override;
  void forward(const ConstTensors& inputs, const MutTensors& outputs) override;
  void backward(const ConstTensors& grad_outputs, const ConstTensors& fwd_inputs,
                const ConstTensors& fwd_outputs,
                const MutTensors& grad_inputs) override;
  std::uint64_t forward_flops(const std::vector<Shape>& inputs) const override;

  GemmBackend backend() const { return backend_; }

  /// Install a pre-packed copy of input B (PlanExecutor weight cache).
  /// `src` is the tensor data the panels were packed from; the packed copy
  /// is consumed only while inputs[1] still aliases that storage, so a
  /// swapped-out weight tensor silently falls back to per-call packing.
  void set_prepacked_b(const float* packed, const float* src) {
    prepacked_b_ = packed;
    prepacked_src_ = src;
  }

  /// Fused activation epilogue chain (graph/passes fuse-epilogue): under
  /// EpilogueMode::kFused the packed path applies the chain inside the
  /// GEMM kernel launch, per cache-resident row block; otherwise (kPost,
  /// or a non-packed backend) the chain runs as separate in-place sweeps
  /// after the GEMM. Backward reconstructs
  /// the pre-chain gradient internally — bit-identical to the unfused
  /// MatMul + activation-node sequence (ops/elementwise EpilogueChain).
  /// Returns false once the chain is full.
  bool try_fuse_epilogue(Activation kind) { return epilogue_.try_push(kind); }
  const EpilogueChain& epilogue() const { return epilogue_; }

 private:
  GemmBackend backend_;
  const float* prepacked_b_ = nullptr;
  const float* prepacked_src_ = nullptr;
  EpilogueChain epilogue_;
};

/// Fully-connected (linear) layer: inputs {X [B,in], W [out,in], bias [out]},
/// output {Y [B,out]} with Y = X W^T + bias.
class LinearOp : public CustomOperator {
 public:
  explicit LinearOp(GemmBackend backend = default_gemm_backend())
      : backend_(backend) {}

  std::string name() const override { return "Linear"; }
  std::size_t num_inputs() const override { return 3; }
  std::size_t num_outputs() const override { return 1; }
  std::vector<Shape> output_shapes(
      const std::vector<Shape>& inputs) const override;
  void forward(const ConstTensors& inputs, const MutTensors& outputs) override;
  void backward(const ConstTensors& grad_outputs, const ConstTensors& fwd_inputs,
                const ConstTensors& fwd_outputs,
                const MutTensors& grad_inputs) override;
  std::uint64_t forward_flops(const std::vector<Shape>& inputs) const override;

  GemmBackend backend() const { return backend_; }

  /// Install pre-packed W^T panels (gemm_pack_bt of W [out, in]).
  /// Consumed only while inputs[1] still aliases `src`.
  void set_prepacked_w(const float* packed, const float* src) {
    prepacked_w_ = packed;
    prepacked_src_ = src;
  }

  /// Fused activation epilogue chain; see MatMulOp::try_fuse_epilogue.
  /// Linear additionally folds its own bias add into the fused tile store
  /// (the packed forward is one kernel even with an empty chain).
  bool try_fuse_epilogue(Activation kind) { return epilogue_.try_push(kind); }
  const EpilogueChain& epilogue() const { return epilogue_; }

 private:
  GemmBackend backend_;
  const float* prepacked_w_ = nullptr;
  const float* prepacked_src_ = nullptr;
  EpilogueChain epilogue_;
};

}  // namespace d500

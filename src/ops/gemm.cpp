#include "ops/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/env.hpp"
#include "core/simd.hpp"
#include "core/threadpool.hpp"

namespace d500 {

const char* gemm_backend_name(GemmBackend b) {
  switch (b) {
    case GemmBackend::kNaive: return "naive";
    case GemmBackend::kBlocked: return "blocked";
    case GemmBackend::kPacked: return "packed";
  }
  return "?";
}

GemmBackend default_gemm_backend() {
  static const GemmBackend b = [] {
    const std::string s = gemm_backend_setting();
    if (s == "naive") return GemmBackend::kNaive;
    if (s == "blocked") return GemmBackend::kBlocked;
    return GemmBackend::kPacked;
  }();
  return b;
}

namespace {
std::atomic<EpilogueMode>& epilogue_mode_state() {
  static std::atomic<EpilogueMode> mode{[] {
    return gemm_epilogue_setting() == "post" ? EpilogueMode::kPost
                                             : EpilogueMode::kFused;
  }()};
  return mode;
}
}  // namespace

EpilogueMode gemm_epilogue_mode() {
  return epilogue_mode_state().load(std::memory_order_relaxed);
}

void set_gemm_epilogue_mode(EpilogueMode m) {
  epilogue_mode_state().store(m, std::memory_order_relaxed);
}

const char* epilogue_mode_name(EpilogueMode m) {
  return m == EpilogueMode::kPost ? "post" : "fused";
}

namespace {

using simd::Vec1;
using simd::VecN;

// Microkernel geometry: 6 C rows x 2 native vectors of columns. Build
// constants (not dispatch-dependent) so packed panel layouts are stable —
// see the header comment.
constexpr std::int64_t kMR = gemm_micro_mr();
constexpr std::int64_t kNR = gemm_micro_nr();

void gemm_naive(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
                const float* A, const float* B, float beta, float* C) {
  for (std::int64_t i = 0; i < M; ++i) {
    for (std::int64_t j = 0; j < N; ++j) {
      float acc = 0.0f;
      for (std::int64_t k = 0; k < K; ++k) acc += A[i * K + k] * B[k * N + j];
      C[i * N + j] = alpha * acc + beta * C[i * N + j];
    }
  }
}

// y[0..n) += a * x[0..n), fused per element; tail follows the uniform
// full-width-then-Vec1 rule from core/simd.
template <class V>
inline void axpy_span(std::int64_t n, float a, const float* x, float* y) {
  simd::lanes<V>(0, n, [&](auto tag, std::int64_t i) {
    using W = decltype(tag);
    W::fma(W::broadcast(a), W::loadu(x + i), W::loadu(y + i)).storeu(y + i);
  });
}

// sum(x[0..n) * y[0..n)): one vector accumulator over full-width lanes,
// horizontal sum, then a scalar fma tail — deterministic per dispatch mode.
template <class V>
inline float dot_span(std::int64_t n, const float* x, const float* y) {
  V acc = V::zero();
  std::int64_t i = 0;
  for (; i + V::width <= n; i += V::width)
    acc = V::fma(V::loadu(x + i), V::loadu(y + i), acc);
  float s = acc.hsum();
  for (; i < n; ++i) s = std::fma(x[i], y[i], s);
  return s;
}

template <class V>
void gemm_blocked_impl(std::int64_t M, std::int64_t N, std::int64_t K,
                       float alpha, const float* A, const float* B, float beta,
                       float* C) {
  // Row blocks of C are independent, so they run as parallel_for chunks on
  // the shared pool (one chunk = one MB-row block, a pure function of M).
  // Within a block: scale/zero the C rows, then accumulate with ikj
  // ordering inside cache blocks; the j loop is a contiguous SIMD axpy
  // over both B and C.
  constexpr std::int64_t MB = 64, NB = 256, KB = 64;
  parallel_for(0, (M + MB - 1) / MB, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t blk = b0; blk < b1; ++blk) {
      const std::int64_t i0 = blk * MB;
      const std::int64_t i1 = std::min(i0 + MB, M);
      if (beta == 0.0f) {
        std::memset(C + i0 * N, 0,
                    static_cast<std::size_t>(i1 - i0) * N * sizeof(float));
      } else if (beta != 1.0f) {
        for (std::int64_t i = i0 * N; i < i1 * N; ++i) C[i] *= beta;
      }
      for (std::int64_t k0 = 0; k0 < K; k0 += KB) {
        const std::int64_t k1 = std::min(k0 + KB, K);
        for (std::int64_t j0 = 0; j0 < N; j0 += NB) {
          const std::int64_t j1 = std::min(j0 + NB, N);
          for (std::int64_t i = i0; i < i1; ++i) {
            float* Ci = C + i * N;
            for (std::int64_t k = k0; k < k1; ++k) {
              const float a = alpha * A[i * K + k];
              axpy_span<V>(j1 - j0, a, B + k * N + j0, Ci + j0);
            }
          }
        }
      }
    }
  });
}

// --- kPacked: panel packing + 6 x kNR microkernel --------------------------

void pack_a_panel(std::int64_t i0, std::int64_t rows, std::int64_t K,
                  const float* A, std::int64_t lda, float* dst) {
  // dst[k*kMR + r] = A[(i0+r)*lda + k], rows zero-padded to kMR so the
  // microkernel can unroll all kMR rows unconditionally.
  for (std::int64_t k = 0; k < K; ++k) {
    float* d = dst + k * kMR;
    std::int64_t r = 0;
    for (; r < rows; ++r) d[r] = A[(i0 + r) * lda + k];
    for (; r < kMR; ++r) d[r] = 0.0f;
  }
}

void pack_b_panel(std::int64_t j0, std::int64_t cols, std::int64_t K,
                  const float* B, std::int64_t ldb, float* dst) {
  // dst[k*kNR + jj] = B[k*ldb + j0+jj], columns zero-padded to kNR.
  for (std::int64_t k = 0; k < K; ++k) {
    const float* src = B + k * ldb + j0;
    float* d = dst + k * kNR;
    std::int64_t jj = 0;
    for (; jj < cols; ++jj) d[jj] = src[jj];
    for (; jj < kNR; ++jj) d[jj] = 0.0f;
  }
}

void pack_bt_panel(std::int64_t j0, std::int64_t cols, std::int64_t K,
                   const float* Bt, std::int64_t ldbt, float* dst) {
  // Same destination layout as pack_b_panel, sourced from Bt (N x K): the
  // logical B is Bt^T, so dst[k*kNR + jj] = Bt[(j0+jj)*ldbt + k].
  for (std::int64_t jj = 0; jj < cols; ++jj) {
    const float* src = Bt + (j0 + jj) * ldbt;
    for (std::int64_t k = 0; k < K; ++k) dst[k * kNR + jj] = src[k];
  }
  for (std::int64_t jj = cols; jj < kNR; ++jj)
    for (std::int64_t k = 0; k < K; ++k) dst[k * kNR + jj] = 0.0f;
}

// Full unroll of the register-tile loops: trip counts are compile-time
// constants, and without the pragma gcc -O2 leaves the accumulator tile in
// a stack array — every k iteration then runs through store-forwarding
// instead of registers, costing ~3x on the packed GEMM.
#if defined(__clang__)
#define D500_UNROLL _Pragma("unroll")
#elif defined(__GNUC__)
#define D500_UNROLL _Pragma("GCC unroll 16")
#else
#define D500_UNROLL
#endif

// Where the microkernel reads A element (k, r): a packed kMR-interleaved
// panel, or (the convolution weight gradient) kMR streams of a padded input.
struct PanelA {
  const float* panel;
  float operator()(std::int64_t k, int r) const { return panel[k * kMR + r]; }
};

struct StreamsA {
  const float* s[kMR];
  float operator()(std::int64_t k, int r) const { return s[r][k]; }
};

// Where the microkernel reads B row k: a packed kNR-column panel, or (the
// convolution forward and dX) kNR floats at an offset into a padded input.
struct PanelRows {
  const float* panel;
  const float* operator()(std::int64_t k) const { return panel + k * kNR; }
};

struct OffsetRows {
  const float* base;
  const std::int64_t* rows;
  const float* operator()(std::int64_t k) const { return base + rows[k]; }
};

// kStore writes fma(alpha, acc, 0); kAdd, fma(alpha, acc, c); kCarry starts
// acc from a full kMR x kNR tile of C and stores like kStore.
enum class CMode { kStore, kAdd, kCarry };

// C(rows x cols) = alpha * A x B (+ C under kAdd) for one (m-panel,
// n-panel) pair. A: `a(k, r)`, zero-padded to kMR rows when packed; B:
// kNR-wide rows found by `b_rows`, zero-padded columns when packed. All
// accumulation is per output element in ascending k with
// one fma per step, and writeback is one fma per element in both the
// full-width and the spill path — so results are identical for every
// instantiation V. Under kStore (beta == 0) the writeback is
// fma(alpha, acc, 0) from registers: the same bits a memset C reloaded as
// the fma's addend gives, without the memset and the reload.
//
// The optional bias (pre-offset to the tile's column window j0) applies per
// element at store time, still in registers: x = fma(alpha, acc, c) +
// bias[j]. A plain per-lane add has width-independent bits, so the fused
// store is bitwise identical to a flat bias sweep after the GEMM — and the
// spill path's Vec1 add matches the full-width path lane for lane.
// HasBias is a compile-time split, not a runtime branch, so the bias-free
// kernel compiles exactly as before the epilogue existed. The activation
// chain deliberately does NOT run here: the polynomial bodies
// (vsigmoid/vtanh) inlined into the store path measurably degrade the
// k-loop's register allocation and serialize the chain per kNR-wide slice.
// The chain instead runs per completed row block in gemm_packed_ex, while
// the block is still L1-resident (see apply_block_epilogue).
template <class V, bool HasBias, CMode Mode, class ARows = PanelA,
          class BRows = PanelRows>
void micro_kernel(std::int64_t K, ARows a, BRows b_rows, float alpha,
                  float* C, std::int64_t ldc, std::int64_t rows,
                  std::int64_t cols, const float* bias) {
  constexpr int NV = static_cast<int>(kNR / V::width);
  constexpr bool LoadC = Mode == CMode::kAdd;
  V acc[kMR][NV];
  D500_UNROLL
  for (int r = 0; r < kMR; ++r)
    D500_UNROLL
    for (int v = 0; v < NV; ++v)
      acc[r][v] = Mode == CMode::kCarry ? V::loadu(C + r * ldc + v * V::width)
                                        : V::zero();

  for (std::int64_t k = 0; k < K; ++k) {
    const float* b = b_rows(k);
    V bv[NV];
    D500_UNROLL
    for (int v = 0; v < NV; ++v) bv[v] = V::loadu(b + v * V::width);
    D500_UNROLL
    for (int r = 0; r < kMR; ++r) {
      const V av = V::broadcast(a(k, r));
      D500_UNROLL
      for (int v = 0; v < NV; ++v) acc[r][v] = V::fma(av, bv[v], acc[r][v]);
    }
  }

  if (cols == kNR) {
    const V alpha_v = V::broadcast(alpha);
    [[maybe_unused]] V bv[NV];
    if constexpr (HasBias) {
      D500_UNROLL
      for (int v = 0; v < NV; ++v) bv[v] = V::loadu(bias + v * V::width);
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      float* c = C + r * ldc;
      for (int v = 0; v < NV; ++v) {
        const V cv = LoadC ? V::loadu(c + v * V::width) : V::zero();
        V x = V::fma(alpha_v, acc[r][v], cv);
        if constexpr (HasBias) x = x + bv[v];
        x.storeu(c + v * V::width);
      }
    }
  } else {
    alignas(64) float buf[kNR];
    for (std::int64_t r = 0; r < rows; ++r) {
      for (int v = 0; v < NV; ++v)
        acc[r][v].storeu(buf + v * V::width);
      float* c = C + r * ldc;
      for (std::int64_t j = 0; j < cols; ++j) {
        Vec1 x{std::fma(alpha, buf[j], LoadC ? c[j] : 0.0f)};
        if constexpr (HasBias) x = x + Vec1{bias[j]};
        c[j] = x.v;
      }
    }
  }
}

using MicroKernelFn = void (*)(std::int64_t, PanelA, PanelRows, float,
                               float*, std::int64_t, std::int64_t, std::int64_t,
                               const float*);

template <bool HasBias, CMode Mode>
MicroKernelFn pick_micro_kernel() {
  return simd::dispatch_simd() ? &micro_kernel<VecN, HasBias, Mode>
                               : &micro_kernel<Vec1, HasBias, Mode>;
}

MicroKernelFn pick_micro_kernel(bool has_bias, bool load_c) {
  if (has_bias)
    return load_c ? pick_micro_kernel<true, CMode::kAdd>()
                  : pick_micro_kernel<true, CMode::kStore>();
  return load_c ? pick_micro_kernel<false, CMode::kAdd>()
                : pick_micro_kernel<false, CMode::kStore>();
}

// One full kMR x kNR tile with alpha 1 and no bias.
template <CMode Mode, class ARows, class BRows>
void micro_tile(std::int64_t K, ARows a, BRows b, float* tile) {
  simd::dispatch([&](auto tag) {
    micro_kernel<decltype(tag), false, Mode>(K, a, b, 1.0f, tile, kNR, kMR,
                                             kNR, nullptr);
  });
}

// Runs the activation chain (and the optional pre-chain save-out the
// backward pass needs for chains of length >= 2) over one completed row
// block of C. The block — kMR full-width rows, i.e. a contiguous span of
// n = rows * N floats — was just written by the microkernel sweeps of this
// same parallel_for iteration, so it is still L1/L2-resident: the chain
// costs no extra pass over C at DRAM distance even though it re-reads the
// span. Applying the chain here instead of inside the tile store keeps the
// polynomial bodies out of the microkernel (register allocation) and gives
// each link a flat sweep with full instruction-level parallelism across
// vectors, exactly like the unfused activation sweeps — and since every
// per-lane map has width-independent bits, the result is bitwise identical
// to those sweeps (the Vec1 tail included).
void apply_block_epilogue(const GemmEpilogue* epi, float* c, float* pre,
                          std::int64_t n) {
  if (pre != nullptr) std::memcpy(pre, c, static_cast<std::size_t>(n) * sizeof(float));
  simd::dispatch([&](auto tag) {
    using V = decltype(tag);
    for (int l = 0; l < epi->chain_len; ++l) {
      const Activation a = epi->chain[l];
      simd::lanes<V>(0, n, [&](auto w, std::int64_t i) {
        using W = decltype(w);
        apply_activation(a, W::loadu(c + i)).storeu(c + i);
      });
    }
  });
}

}  // namespace

void gemm_micro_tile_rows(std::int64_t K, const float* packed_a,
                          const float* base, const std::int64_t* rows,
                          float* tile, bool accumulate) {
  const PanelA a{packed_a};
  const OffsetRows b{base, rows};
  if (accumulate)
    micro_tile<CMode::kAdd>(K, a, b, tile);
  else
    micro_tile<CMode::kStore>(K, a, b, tile);
}

void gemm_micro_tile_streams(std::int64_t K, const float* base,
                             const std::int64_t* rows, const float* packed_b,
                             float* tile) {
  StreamsA a;
  for (int r = 0; r < kMR; ++r) a.s[r] = base + rows[r];
  micro_tile<CMode::kCarry>(K, a, PanelRows{packed_b}, tile);
}

std::int64_t gemm_packed_a_elems(std::int64_t M, std::int64_t K) {
  return (M + kMR - 1) / kMR * kMR * K;
}

std::int64_t gemm_packed_b_elems(std::int64_t K, std::int64_t N) {
  return (N + kNR - 1) / kNR * kNR * K;
}

void gemm_pack_a(std::int64_t M, std::int64_t K, const float* A,
                 float* packed) {
  const std::int64_t mp = (M + kMR - 1) / kMR;
  parallel_for(0, mp, 4, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t i0 = p * kMR;
      pack_a_panel(i0, std::min(kMR, M - i0), K, A, K, packed + p * K * kMR);
    }
  });
}

void gemm_pack_b(std::int64_t K, std::int64_t N, const float* B,
                 float* packed) {
  const std::int64_t np = (N + kNR - 1) / kNR;
  parallel_for(0, np, 4, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t j0 = p * kNR;
      pack_b_panel(j0, std::min(kNR, N - j0), K, B, N, packed + p * K * kNR);
    }
  });
}

void gemm_pack_bt(std::int64_t N, std::int64_t K, const float* Bt,
                  float* packed) {
  const std::int64_t np = (N + kNR - 1) / kNR;
  parallel_for(0, np, 4, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t j0 = p * kNR;
      pack_bt_panel(j0, std::min(kNR, N - j0), K, Bt, K, packed + p * K * kNR);
    }
  });
}

void gemm_packed_ex(std::int64_t M, std::int64_t N, std::int64_t K,
                    float alpha, const float* A, const float* packedA,
                    const float* B, const float* packedB, bool b_transposed,
                    float beta, float* C, const GemmEpilogue* epi) {
  if (epi != nullptr && !epi->active()) epi = nullptr;
  D500_CHECK_MSG(epi == nullptr || beta == 0.0f,
                 "gemm epilogue requires beta == 0 (each C element must be "
                 "produced by exactly one tile store)");
  const std::int64_t mp = (M + kMR - 1) / kMR;
  const std::int64_t np = (N + kNR - 1) / kNR;

  // Pack whichever operands arrived unpacked into grow-only per-thread
  // workspaces (steady-state calls never touch the heap). The lambdas must
  // see the CALLER's buffer: a thread_local named inside a lambda body
  // resolves to the executing worker's own (empty) instance, so hand
  // workers plain pointers instead. A and B panels pack in ONE parallel
  // region: indices below `mp` are A panels, the rest B panels.
  const std::int64_t need_a = packedA == nullptr ? mp : 0;
  const std::int64_t need_b = packedB == nullptr ? np : 0;
  float* const pa_buf =
      need_a ? ThreadScratch<float, struct GemmPackA>::get(
                   static_cast<std::size_t>(mp * K * kMR))
             : nullptr;
  float* const pb_buf =
      need_b ? ThreadScratch<float, struct GemmPackB>::get(
                   static_cast<std::size_t>(np * K * kNR))
             : nullptr;
  if (need_a + need_b > 0) {
    parallel_for(0, need_a + need_b, 4,
                 [&, pa_buf, pb_buf](std::int64_t p0, std::int64_t p1) {
      for (std::int64_t p = p0; p < p1; ++p) {
        if (p < need_a) {
          const std::int64_t i0 = p * kMR;
          pack_a_panel(i0, std::min(kMR, M - i0), K, A, K,
                       pa_buf + p * K * kMR);
        } else {
          const std::int64_t q = p - need_a;
          const std::int64_t j0 = q * kNR;
          const std::int64_t cols = std::min(kNR, N - j0);
          if (b_transposed)
            pack_bt_panel(j0, cols, K, B, K, pb_buf + q * K * kNR);
          else
            pack_b_panel(j0, cols, K, B, N, pb_buf + q * K * kNR);
        }
      }
    });
  }
  const float* const pa = packedA != nullptr ? packedA : pa_buf;
  const float* const pb = packedB != nullptr ? packedB : pb_buf;

  // Compute: kMR-row blocks of C sweep every B panel; each block owns its
  // C rows end to end (beta scaling included; beta == 0 never reads C), so
  // blocks are independent and the decomposition depends only on M.
  const float* const bias = epi != nullptr ? epi->bias : nullptr;
  const bool block_epi =
      epi != nullptr && (epi->chain_len > 0 || epi->save_pre != nullptr);
  const MicroKernelFn micro = pick_micro_kernel(bias != nullptr, beta != 0.0f);
  parallel_for(0, mp, 2, [&, pa, pb, micro](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t blk = b0; blk < b1; ++blk) {
      const std::int64_t i0 = blk * kMR;
      const std::int64_t rows = std::min(kMR, M - i0);
      if (beta != 0.0f && beta != 1.0f) {
        for (std::int64_t i = i0 * N; i < (i0 + rows) * N; ++i) C[i] *= beta;
      }
      for (std::int64_t p = 0; p < np; ++p) {
        const std::int64_t j0 = p * kNR;
        micro(K, PanelA{pa + blk * K * kMR}, PanelRows{pb + p * K * kNR},
              alpha, C + i0 * N + j0, N, rows, std::min(kNR, N - j0),
              bias != nullptr ? bias + j0 : nullptr);
      }
      if (block_epi)
        apply_block_epilogue(
            epi, C + i0 * N,
            epi->save_pre != nullptr ? epi->save_pre + i0 * N : nullptr,
            rows * N);
    }
  });
}

void gemm(GemmBackend backend, std::int64_t M, std::int64_t N, std::int64_t K,
          float alpha, const float* A, const float* B, float beta, float* C) {
  D500_CHECK(M >= 0 && N >= 0 && K >= 0);
  if (M == 0 || N == 0) return;
  if (K == 0) {
    if (beta == 0.0f)
      std::memset(C, 0, static_cast<std::size_t>(M) * N * sizeof(float));
    else if (beta != 1.0f)
      for (std::int64_t i = 0; i < M * N; ++i) C[i] *= beta;
    return;
  }
  switch (backend) {
    case GemmBackend::kNaive:
      gemm_naive(M, N, K, alpha, A, B, beta, C);
      break;
    case GemmBackend::kBlocked:
      if (simd::dispatch_simd())
        gemm_blocked_impl<VecN>(M, N, K, alpha, A, B, beta, C);
      else
        gemm_blocked_impl<Vec1>(M, N, K, alpha, A, B, beta, C);
      break;
    case GemmBackend::kPacked:
      gemm_packed_ex(M, N, K, alpha, A, nullptr, B, nullptr, false, beta, C);
      break;
  }
}

namespace {

template <class V>
void gemm_at_b_impl(std::int64_t M, std::int64_t N, std::int64_t K,
                    const float* A, const float* B, float* C) {
  // Row blocks of C are independent parallel_for chunks; inside a block, k
  // is tiled so the touched B panel stays in cache while the contiguous j
  // loop runs as a SIMD axpy. Accumulation over k stays in ascending order
  // per row, so the result is thread-count independent.
  constexpr std::int64_t MB = 64, KB = 64;
  parallel_for(0, (M + MB - 1) / MB, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t blk = b0; blk < b1; ++blk) {
      const std::int64_t i0 = blk * MB;
      const std::int64_t i1 = std::min(i0 + MB, M);
      for (std::int64_t k0 = 0; k0 < K; k0 += KB) {
        const std::int64_t k1 = std::min(k0 + KB, K);
        for (std::int64_t i = i0; i < i1; ++i) {
          float* Ci = C + i * N;
          for (std::int64_t k = k0; k < k1; ++k) {
            const float a = A[k * M + i];
            if (a == 0.0f) continue;
            axpy_span<V>(N, a, B + k * N, Ci);
          }
        }
      }
    }
  });
}

template <class V>
void gemm_a_bt_impl(std::int64_t M, std::int64_t N, std::int64_t K,
                    const float* A, const float* B, float* C) {
  // i/j tiling reuses a block of B rows across the A rows of the tile;
  // each (i,j) entry is one SIMD dot product over the full K, and C row
  // blocks are independent parallel_for chunks.
  constexpr std::int64_t MB = 32, NB = 64;
  parallel_for(0, (M + MB - 1) / MB, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t blk = b0; blk < b1; ++blk) {
      const std::int64_t i0 = blk * MB;
      const std::int64_t i1 = std::min(i0 + MB, M);
      for (std::int64_t j0 = 0; j0 < N; j0 += NB) {
        const std::int64_t j1 = std::min(j0 + NB, N);
        for (std::int64_t i = i0; i < i1; ++i) {
          const float* Ai = A + i * K;
          float* Ci = C + i * N;
          for (std::int64_t j = j0; j < j1; ++j)
            Ci[j] += dot_span<V>(K, Ai, B + j * K);
        }
      }
    }
  });
}

}  // namespace

void gemm_at_b(GemmBackend backend, std::int64_t M, std::int64_t N,
               std::int64_t K, const float* A, const float* B, float* C) {
  // C(MxN) += A^T(MxK as KxM input) x B(KxN): A is stored (K rows, M cols).
  if (M <= 0 || N <= 0 || K <= 0) return;
  if (backend == GemmBackend::kNaive) {
    for (std::int64_t k = 0; k < K; ++k) {
      const float* Ak = A + k * M;
      const float* Bk = B + k * N;
      for (std::int64_t i = 0; i < M; ++i) {
        const float a = Ak[i];
        if (a == 0.0f) continue;
        float* Ci = C + i * N;
        for (std::int64_t j = 0; j < N; ++j) Ci[j] += a * Bk[j];
      }
    }
    return;
  }
  if (simd::dispatch_simd())
    gemm_at_b_impl<VecN>(M, N, K, A, B, C);
  else
    gemm_at_b_impl<Vec1>(M, N, K, A, B, C);
}

void gemm_a_bt(GemmBackend backend, std::int64_t M, std::int64_t N,
               std::int64_t K, const float* A, const float* B, float* C) {
  // C(MxN) += A(MxK) x B^T where B is stored (N rows, K cols).
  if (M <= 0 || N <= 0 || K <= 0) return;
  if (backend == GemmBackend::kNaive) {
    for (std::int64_t i = 0; i < M; ++i) {
      const float* Ai = A + i * K;
      float* Ci = C + i * N;
      for (std::int64_t j = 0; j < N; ++j) {
        const float* Bj = B + j * K;
        float acc = 0.0f;
        for (std::int64_t k = 0; k < K; ++k) acc += Ai[k] * Bj[k];
        Ci[j] += acc;
      }
    }
    return;
  }
  if (simd::dispatch_simd())
    gemm_a_bt_impl<VecN>(M, N, K, A, B, C);
  else
    gemm_a_bt_impl<Vec1>(M, N, K, A, B, C);
}

std::vector<Shape> MatMulOp::output_shapes(
    const std::vector<Shape>& inputs) const {
  D500_CHECK_MSG(inputs.size() == 2, "MatMul expects 2 inputs");
  const Shape& a = inputs[0];
  const Shape& b = inputs[1];
  if (a.size() != 2 || b.size() != 2 || a[1] != b[0])
    throw ShapeError("MatMul: incompatible shapes " + shape_to_string(a) +
                     " x " + shape_to_string(b));
  return {{a[0], b[1]}};
}

void MatMulOp::forward(const ConstTensors& inputs, const MutTensors& outputs) {
  const Tensor& A = *inputs[0];
  const Tensor& B = *inputs[1];
  Tensor& C = *outputs[0];
  const std::int64_t M = A.dim(0), K = A.dim(1), N = B.dim(1);
  const bool use_prepacked = backend_ == GemmBackend::kPacked &&
                             prepacked_b_ != nullptr &&
                             prepacked_src_ == B.data();
  const bool fuse = backend_ == GemmBackend::kPacked && !epilogue_.empty() &&
                    gemm_epilogue_mode() == EpilogueMode::kFused;
  if (fuse) {
    // One kernel launch: the chain applies per row block while it is still
    // cache-resident from the tile stores.
    const GemmEpilogue epi{
        nullptr, epilogue_.chain().data(), epilogue_.size(),
        epilogue_.needs_pre() ? epilogue_.ensure_pre(C.elements()) : nullptr};
    gemm_packed_ex(M, N, K, 1.0f, A.data(), nullptr, B.data(),
                   use_prepacked ? prepacked_b_ : nullptr, false, 0.0f,
                   C.data(), &epi);
    return;
  }
  if (use_prepacked) {
    gemm_packed_ex(M, N, K, 1.0f, A.data(), nullptr, B.data(), prepacked_b_,
                   false, 0.0f, C.data());
  } else {
    gemm(backend_, M, N, K, 1.0f, A.data(), B.data(), 0.0f, C.data());
  }
  epilogue_.forward_post(C.data(), C.elements());
}

void MatMulOp::backward(const ConstTensors& grad_outputs,
                        const ConstTensors& fwd_inputs,
                        const ConstTensors& fwd_outputs,
                        const MutTensors& grad_inputs) {
  const Tensor* gout =
      epilogue_.backward(grad_outputs[0], fwd_outputs[0]->data());
  const Tensor& dC = *gout;
  const Tensor& A = *fwd_inputs[0];
  const Tensor& B = *fwd_inputs[1];
  const std::int64_t M = A.dim(0), K = A.dim(1), N = B.dim(1);
  if (grad_inputs[0]) {  // dA = dC x B^T
    grad_inputs[0]->fill(0.0f);
    gemm_a_bt(backend_, M, K, N, dC.data(), B.data(), grad_inputs[0]->data());
  }
  if (grad_inputs[1]) {  // dB = A^T x dC
    grad_inputs[1]->fill(0.0f);
    gemm_at_b(backend_, K, N, M, A.data(), dC.data(), grad_inputs[1]->data());
  }
}

std::uint64_t MatMulOp::forward_flops(const std::vector<Shape>& inputs) const {
  return gemm_flops(inputs[0][0], inputs[1][1], inputs[0][1]);
}

std::vector<Shape> LinearOp::output_shapes(
    const std::vector<Shape>& inputs) const {
  D500_CHECK_MSG(inputs.size() == 3, "Linear expects inputs {X, W, bias}");
  const Shape& x = inputs[0];
  const Shape& w = inputs[1];
  const Shape& b = inputs[2];
  if (x.size() != 2 || w.size() != 2 || b.size() != 1 || x[1] != w[1] ||
      b[0] != w[0])
    throw ShapeError("Linear: incompatible shapes X=" + shape_to_string(x) +
                     " W=" + shape_to_string(w) + " b=" + shape_to_string(b));
  return {{x[0], w[0]}};
}

void LinearOp::forward(const ConstTensors& inputs, const MutTensors& outputs) {
  const Tensor& X = *inputs[0];
  const Tensor& W = *inputs[1];
  const Tensor& bias = *inputs[2];
  Tensor& Y = *outputs[0];
  const std::int64_t B = X.dim(0), in = X.dim(1), out = W.dim(0);
  // Y = X x W^T + bias.
  if (backend_ == GemmBackend::kPacked) {
    // Packed path: W^T panels either come from the PlanExecutor prepack
    // cache or are packed per call — identical arithmetic either way.
    const float* pb =
        prepacked_w_ != nullptr && prepacked_src_ == W.data() ? prepacked_w_
                                                              : nullptr;
    if (gemm_epilogue_mode() == EpilogueMode::kFused) {
      // The headline fusion: GEMM + bias + activation chain as ONE kernel
      // launch — the bias applies in registers at tile store time and the
      // chain per cache-resident row block, so the pre-fusion bias sweep
      // and per-link DRAM sweeps over Y disappear (bias fuses even with an
      // empty chain).
      const GemmEpilogue epi{
          bias.data(), epilogue_.chain().data(), epilogue_.size(),
          epilogue_.needs_pre() ? epilogue_.ensure_pre(Y.elements()) : nullptr};
      gemm_packed_ex(B, out, in, 1.0f, X.data(), nullptr, W.data(), pb,
                     /*b_transposed=*/true, 0.0f, Y.data(), &epi);
      return;
    }
    gemm_packed_ex(B, out, in, 1.0f, X.data(), nullptr, W.data(), pb,
                   /*b_transposed=*/true, 0.0f, Y.data());
  } else {
    Y.fill(0.0f);
    gemm_a_bt(backend_, B, out, in, X.data(), W.data(), Y.data());
  }
  const float* bias_p = bias.data();
  const auto add_bias = [&](auto tag) {
    using V = decltype(tag);
    for (std::int64_t i = 0; i < B; ++i) {
      float* y = Y.data() + i * out;
      simd::lanes<V>(0, out, [&](auto t2, std::int64_t j) {
        using W2 = decltype(t2);
        (W2::loadu(y + j) + W2::loadu(bias_p + j)).storeu(y + j);
      });
    }
  };
  if (simd::dispatch_simd())
    add_bias(VecN::zero());
  else
    add_bias(Vec1::zero());
  epilogue_.forward_post(Y.data(), Y.elements());
}

void LinearOp::backward(const ConstTensors& grad_outputs,
                        const ConstTensors& fwd_inputs,
                        const ConstTensors& fwd_outputs,
                        const MutTensors& grad_inputs) {
  const Tensor* gout =
      epilogue_.backward(grad_outputs[0], fwd_outputs[0]->data());
  const Tensor& dY = *gout;
  const Tensor& X = *fwd_inputs[0];
  const Tensor& W = *fwd_inputs[1];
  const std::int64_t B = X.dim(0), in = X.dim(1), out = W.dim(0);
  if (grad_inputs[0]) {  // dX = dY x W
    Tensor& dX = *grad_inputs[0];
    gemm(backend_, B, in, out, 1.0f, dY.data(), W.data(), 0.0f, dX.data());
  }
  if (grad_inputs[1]) {  // dW = dY^T x X  (out x in)
    grad_inputs[1]->fill(0.0f);
    gemm_at_b(backend_, out, in, B, dY.data(), X.data(),
              grad_inputs[1]->data());
  }
  if (grad_inputs[2]) {  // dbias = column sum of dY
    Tensor& db = *grad_inputs[2];
    db.fill(0.0f);
    float* dbp = db.data();
    const auto col_sum = [&](auto tag) {
      using V = decltype(tag);
      for (std::int64_t i = 0; i < B; ++i) {
        const float* dy = dY.data() + i * out;
        simd::lanes<V>(0, out, [&](auto t2, std::int64_t j) {
          using W2 = decltype(t2);
          (W2::loadu(dbp + j) + W2::loadu(dy + j)).storeu(dbp + j);
        });
      }
    };
    if (simd::dispatch_simd())
      col_sum(VecN::zero());
    else
      col_sum(Vec1::zero());
  }
}

std::uint64_t LinearOp::forward_flops(const std::vector<Shape>& inputs) const {
  // X[B,in] x W^T[in,out] plus bias add.
  return gemm_flops(inputs[0][0], inputs[1][0], inputs[0][1]) +
         static_cast<std::uint64_t>(inputs[0][0]) * inputs[1][0];
}

}  // namespace d500

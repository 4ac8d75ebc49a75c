#include "ops/conv2d.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/simd.hpp"
#include "core/threadpool.hpp"

namespace d500 {

const char* conv_backend_name(ConvBackend b) {
  switch (b) {
    case ConvBackend::kDirect: return "direct";
    case ConvBackend::kIm2col: return "im2col";
    case ConvBackend::kWinograd: return "winograd";
  }
  return "?";
}

namespace {

// The output columns [lo, hi) of one kernel tap whose input column
// ow*stride + off lies inside [0, W); the others read the zero padding.
struct ValidCols {
  std::int64_t lo, hi;
};

ValidCols valid_cols(std::int64_t off, std::int64_t stride, std::int64_t W,
                     std::int64_t Wo) {
  const std::int64_t lo = off >= 0 ? 0 : (stride - 1 - off) / stride;
  const std::int64_t hi =
      std::min(Wo, off >= W ? 0 : (W - off + stride - 1) / stride);
  return {std::min(lo, hi), hi};
}

}  // namespace

void im2col(const float* x, std::int64_t C, std::int64_t H, std::int64_t W,
            const Conv2DParams& p, float* col, std::int64_t row_stride) {
  const std::int64_t Ho = p.out_dim(H, p.kernel_h);
  const std::int64_t Wo = p.out_dim(W, p.kernel_w);
  if (row_stride == 0) row_stride = Ho * Wo;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < p.kernel_w; ++kw, ++row) {
        float* dst = col + row * row_stride;
        for (std::int64_t oh = 0; oh < Ho; ++oh) {
          const std::int64_t ih = oh * p.stride - p.pad + kh * p.dilation;
          if (ih < 0 || ih >= H) {
            std::memset(dst + oh * Wo, 0, static_cast<std::size_t>(Wo) * 4);
            continue;
          }
          const float* src = x + (c * H + ih) * W;
          for (std::int64_t ow = 0; ow < Wo; ++ow) {
            const std::int64_t iw = ow * p.stride - p.pad + kw * p.dilation;
            dst[oh * Wo + ow] = (iw >= 0 && iw < W) ? src[iw] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* col, std::int64_t C, std::int64_t H, std::int64_t W,
            const Conv2DParams& p, float* x_grad, std::int64_t row_stride) {
  const std::int64_t Ho = p.out_dim(H, p.kernel_h);
  const std::int64_t Wo = p.out_dim(W, p.kernel_w);
  if (row_stride == 0) row_stride = Ho * Wo;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < p.kernel_w; ++kw, ++row) {
        const float* src = col + row * row_stride;
        const std::int64_t off = kw * p.dilation - p.pad;
        const ValidCols v = valid_cols(off, p.stride, W, Wo);
        for (std::int64_t oh = 0; oh < Ho; ++oh) {
          const std::int64_t ih = oh * p.stride - p.pad + kh * p.dilation;
          if (ih < 0 || ih >= H) continue;
          float* dst = x_grad + (c * H + ih) * W;
          const float* s = src + oh * Wo;
          if (p.stride == 1) {
            // One add per element, so the vector width cannot change bits.
            float* d = dst + v.lo + off;
            const float* sl = s + v.lo;
            simd::dispatch([&](auto tag) {
              using V = decltype(tag);
              simd::lanes<V>(0, v.hi - v.lo, [&](auto w, std::int64_t i) {
                using L = decltype(w);
                (L::loadu(d + i) + L::loadu(sl + i)).storeu(d + i);
              });
            });
          } else {
            for (std::int64_t ow = v.lo; ow < v.hi; ++ow)
              dst[ow * p.stride + off] += s[ow];
          }
        }
      }
    }
  }
}

void conv2d_backward_reference(const Tensor& X, const Tensor& Wt,
                               const Tensor& dY, const Conv2DParams& p,
                               Tensor* dX, Tensor* dW, Tensor* db) {
  const std::int64_t N = X.dim(0), C = X.dim(1), H = X.dim(2), W = X.dim(3);
  const std::int64_t F = Wt.dim(0);
  const std::int64_t K = C * p.kernel_h * p.kernel_w;
  const std::int64_t Wo = p.out_dim(W, p.kernel_w);
  const std::int64_t spatial = p.out_dim(H, p.kernel_h) * Wo;
  if (dX) dX->fill(0.0f);
  if (dW) dW->fill(0.0f);
  if (db) db->fill(0.0f);
  std::vector<float> col(static_cast<std::size_t>(K * spatial));
  std::vector<float> dcol(col.size());
  for (std::int64_t n = 0; n < N; ++n) {
    const float* dy = dY.data() + n * F * spatial;
    if (dW) {
      im2col(X.data() + n * C * H * W, C, H, W, p, col.data());
      gemm_a_bt(GemmBackend::kNaive, F, K, spatial, dy, col.data(),
                dW->data());
    }
    if (dX) {
      std::fill(dcol.begin(), dcol.end(), 0.0f);
      gemm_at_b(GemmBackend::kNaive, K, spatial, F, Wt.data(), dy,
                dcol.data());
      // Bounds-checked scatter per element, independent of col2im's
      // valid-range loops so the oracle does not share their faults.
      float* dx = dX->data() + n * C * H * W;
      for (std::int64_t r = 0; r < K; ++r) {
        const std::int64_t c = r / (p.kernel_h * p.kernel_w);
        const std::int64_t kh = r / p.kernel_w % p.kernel_h;
        const std::int64_t kw = r % p.kernel_w;
        for (std::int64_t s = 0; s < spatial; ++s) {
          const std::int64_t ih = s / Wo * p.stride - p.pad + kh * p.dilation;
          const std::int64_t iw = s % Wo * p.stride - p.pad + kw * p.dilation;
          if (ih >= 0 && ih < H && iw >= 0 && iw < W)
            dx[(c * H + ih) * W + iw] += dcol[r * spatial + s];
        }
      }
    }
    if (db)
      for (std::int64_t f = 0; f < F; ++f)
        for (std::int64_t s = 0; s < spatial; ++s)
          db->data()[f] += dy[f * spatial + s];
  }
}

void conv2d_forward_reference(const Tensor& X, const Tensor& Wt,
                              const Tensor& bias, const Conv2DParams& p,
                              Tensor* Y, const Activation* chain,
                              int chain_len, Tensor* pre) {
  const std::int64_t N = X.dim(0), C = X.dim(1), H = X.dim(2), W = X.dim(3);
  const std::int64_t F = Wt.dim(0);
  const std::int64_t K = C * p.kernel_h * p.kernel_w;
  const std::int64_t spatial =
      p.out_dim(H, p.kernel_h) * p.out_dim(W, p.kernel_w);
  std::vector<float> col(static_cast<std::size_t>(K * spatial));
  for (std::int64_t n = 0; n < N; ++n) {
    im2col(X.data() + n * C * H * W, C, H, W, p, col.data());
    // Sample n of Y is the [F, spatial] product.
    float* const y = Y->data() + n * F * spatial;
    gemm(GemmBackend::kPacked, F, spatial, K, 1.0f, Wt.data(), col.data(),
         0.0f, y);
    for (std::int64_t f = 0; f < F; ++f) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        const std::int64_t i = f * spatial + s;
        simd::Vec1 v = simd::Vec1{y[i]} + simd::Vec1{bias.at(f)};
        if (pre != nullptr) pre->data()[n * F * spatial + i] = v.v;
        for (int l = 0; l < chain_len; ++l) v = apply_activation(chain[l], v);
        y[i] = v.v;
      }
    }
  }
}

namespace {

// The backward's per-thread workspace. Grow-only (ThreadScratch) and fully
// rewritten by each use, so warm steps do not allocate.
//   col   — the im2col columns lowered into packed-A panels [Kp, N*spatial],
//           then dcol [K, N*spatial]
//   stage — filter-major dY [F, N*spatial], then a [Kp, F] tail for dW^T
//           and the packed W^T panels (Kp = K padded to gemm_micro_mr())
// Pool workers must write the CALLER's buffers, so callers hand workers
// plain pointers.
float* conv_col(std::int64_t elems) {
  return ThreadScratch<float, struct ConvCol>::get(
      static_cast<std::size_t>(elems));
}

float* conv_stage(std::int64_t elems) {
  return ThreadScratch<float, struct ConvStage>::get(
      static_cast<std::size_t>(elems));
}

// im2col of one sample straight into the packed-A panel layout that
// gemm_packed_ex consumes for an [K, ncols] A operand: element (r, j) lives
// at panels[(r / MR) * ncols * MR + j * MR + r % MR]. The sample fills
// columns [col0, col0 + Ho*Wo); rows K..Kp-1 (the last panel's padding) are
// zeroed, so the panels need no second packing pass.
void im2col_panels(const float* x, std::int64_t C, std::int64_t H,
                   std::int64_t W, const Conv2DParams& p, float* panels,
                   std::int64_t ncols, std::int64_t col0) {
  const std::int64_t Ho = p.out_dim(H, p.kernel_h);
  const std::int64_t Wo = p.out_dim(W, p.kernel_w);
  const std::int64_t mr = gemm_micro_mr();
  auto lane = [&](std::int64_t r) {
    return panels + (r / mr) * ncols * mr + col0 * mr + r % mr;
  };
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < p.kernel_w; ++kw, ++row) {
        float* dst = lane(row);
        const std::int64_t off = kw * p.dilation - p.pad;
        const ValidCols v = valid_cols(off, p.stride, W, Wo);
        for (std::int64_t oh = 0; oh < Ho; ++oh) {
          const std::int64_t ih = oh * p.stride - p.pad + kh * p.dilation;
          float* d = dst + oh * Wo * mr;
          const bool inside = ih >= 0 && ih < H;
          const std::int64_t lo = inside ? v.lo : Wo;
          const std::int64_t hi = inside ? v.hi : Wo;
          std::int64_t ow = 0;
          for (; ow < lo; ++ow) d[ow * mr] = 0.0f;
          if (inside) {
            const float* src = x + (c * H + ih) * W;
            for (; ow < hi; ++ow) d[ow * mr] = src[ow * p.stride + off];
          }
          for (; ow < Wo; ++ow) d[ow * mr] = 0.0f;
        }
      }
    }
  }
  for (; row % mr != 0; ++row) {
    float* dst = lane(row);
    for (std::int64_t j = 0; j < Ho * Wo; ++j) dst[j * mr] = 0.0f;
  }
}

// Sum of x[0..n) as eight interleaved partial sums combined in a fixed
// tree, then the tail in ascending order: the order depends on n alone
// (not on the thread count or the SIMD dispatch mode), and the eight
// independent chains keep the adder pipeline busy.
float row_sum(const float* x, std::int64_t n) {
  float part[8] = {};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) part[l] += x[i + l];
  float s = ((part[0] + part[1]) + (part[2] + part[3])) +
            ((part[4] + part[5]) + (part[6] + part[7]));
  for (; i < n; ++i) s += x[i];
  return s;
}

void conv_direct(const Tensor& X, const Tensor& Wt, const Tensor& bias,
                 Tensor& Y, const Conv2DParams& p) {
  const std::int64_t N = X.dim(0), C = X.dim(1), H = X.dim(2), W = X.dim(3);
  const std::int64_t F = Wt.dim(0);
  const std::int64_t Ho = p.out_dim(H, p.kernel_h);
  const std::int64_t Wo = p.out_dim(W, p.kernel_w);
  const float* x = X.data();
  const float* w = Wt.data();
  float* y = Y.data();
  // Each (n, f) plane is an independent output slice: flatten the two loops
  // into one index space for the pool. The decomposition depends only on the
  // problem size, so results are identical at any thread count.
  parallel_for(0, N * F, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t nf = lo; nf < hi; ++nf) {
      const std::int64_t n = nf / F;
      const std::int64_t f = nf % F;
      const float b = bias.at(f);
      for (std::int64_t oh = 0; oh < Ho; ++oh) {
        for (std::int64_t ow = 0; ow < Wo; ++ow) {
          float acc = b;
          for (std::int64_t c = 0; c < C; ++c) {
            for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
              const std::int64_t ih = oh * p.stride - p.pad + kh * p.dilation;
              if (ih < 0 || ih >= H) continue;
              for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                const std::int64_t iw = ow * p.stride - p.pad + kw * p.dilation;
                if (iw < 0 || iw >= W) continue;
                acc += x[((n * C + c) * H + ih) * W + iw] *
                       w[((f * C + c) * p.kernel_h + kh) * p.kernel_w + kw];
              }
            }
          }
          y[((n * F + f) * Ho + oh) * Wo + ow] = acc;
        }
      }
    }
  });
}

// X zero-padded, per (n, c) one Hq x Wq plane per stride phase pair
// (py, px) < (ny, nx): padded rows py, py + s, ... by padded columns
// px, px + s, ... (at stride 1, a plain padded copy). Each row is zeros, a
// copy or strided gather of X's valid columns, zeros.
void pad_phases(const float* x, std::int64_t NC, std::int64_t H, std::int64_t W,
                const Conv2DParams& p, std::int64_t ny, std::int64_t nx,
                std::int64_t Hq, std::int64_t Wq, float* xp) {
  const std::int64_t s = p.stride, pad = p.pad, plane = Hq * Wq;
  parallel_for(0, NC, std::max<std::int64_t>(1, 4096 / (ny * nx * plane)),
               [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t nc = lo; nc < hi; ++nc) {
      for (std::int64_t py = 0; py < ny; ++py) {
        const ValidCols vr = valid_cols(py - pad, s, H, Hq);
        for (std::int64_t px = 0; px < nx; ++px) {
          const ValidCols vc = valid_cols(px - pad, s, W, Wq);
          float* const dst = xp + ((nc * ny + py) * nx + px) * plane;
          std::fill(dst, dst + vr.lo * Wq, 0.0f);
          for (std::int64_t i = vr.lo; i < vr.hi; ++i) {
            float* const d = dst + i * Wq;
            const float* const r = x + (nc * H + py + i * s - pad) * W;
            std::fill(d, d + vc.lo, 0.0f);
            if (s == 1)
              std::memcpy(d + vc.lo, r + vc.lo - pad,
                          static_cast<std::size_t>(vc.hi - vc.lo) * sizeof(float));
            else
              for (std::int64_t q = vc.lo; q < vc.hi; ++q)
                d[q] = r[px + q * s - pad];
            std::fill(d + vc.hi, d + Wq, 0.0f);
          }
          std::fill(dst + vr.hi * Wq, dst + plane, 0.0f);
        }
      }
    }
  });
}

// Implicit-GEMM forward: Y[n, f, s] = sum_k W[f, k] * col[k, n*Ho*Wo + s]
// + bias[f], with no column matrix and no packed B panel. In the padded
// input (pad_phases; only the phases below the kernel's extent, so one for
// a 1x1 kernel), tap k = (c, kh, kw) of output (oh, ow) sits at
// sample n's block + oh*Wq + ow + rows[k], so the B row of a tile of NR
// consecutive positions of the Ho x Wq grid is NR contiguous floats, at
// any stride and dilation. Tiles span output rows when Wo < NR; the lanes
// of the Wq - Wo pad columns and past Ho*Wq are computed but not stored
// (NR + Wq zeroed floats of slack cover their reads). The pool splits the
// (n, tile) pairs; per MR-filter block, gemm_micro_tile_rows fills an
// L1 tile that gets the bias, the fused chain and the save_pre copy and is
// stored into Y's NCHW rows. Each output is the same ascending-k fma chain
// over the same values (a padding zero where the lowering writes one) and
// the same per-lane maps as conv2d_forward_reference, so Y is bitwise
// equal to it at any thread count and dispatch mode.
void conv_im2col(const Tensor& X, const Tensor& Wt, const Tensor& bias,
                 Tensor& Y, const Conv2DParams& p, const float* prepacked_w,
                 const Activation* chain, int chain_len, float* save_pre) {
  const std::int64_t N = X.dim(0), C = X.dim(1), H = X.dim(2), W = X.dim(3);
  const std::int64_t F = Wt.dim(0);
  const std::int64_t Ho = p.out_dim(H, p.kernel_h);
  const std::int64_t Wo = p.out_dim(W, p.kernel_w);
  const std::int64_t K = C * p.kernel_h * p.kernel_w;
  const std::int64_t s = p.stride;
  const std::int64_t Hq = (H + 2 * p.pad + s - 1) / s;
  const std::int64_t Wq = (W + 2 * p.pad + s - 1) / s;
  const std::int64_t ny = std::min(s, (p.kernel_h - 1) * p.dilation + 1);
  const std::int64_t nx = std::min(s, (p.kernel_w - 1) * p.dilation + 1);
  const std::int64_t sample = C * ny * nx * Hq * Wq;
  const std::int64_t grid = Ho * Wq;
  constexpr std::int64_t mr = gemm_micro_mr();
  constexpr std::int64_t nr = gemm_micro_nr();
  const std::int64_t mp = (F + mr - 1) / mr;
  const std::int64_t tiles = (grid + nr - 1) / nr;

  const float* pa = prepacked_w;
  if (pa == nullptr) {
    float* const buf = ThreadScratch<float, struct ConvPackA>::get(
        static_cast<std::size_t>(gemm_packed_a_elems(F, K)));
    gemm_pack_a(F, K, Wt.data(), buf);
    pa = buf;
  }
  std::int64_t* const rows = ThreadScratch<std::int64_t, struct ConvRows>::get(
      static_cast<std::size_t>(K));
  std::int64_t k = 0;
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < p.kernel_w; ++kw, ++k) {
        const std::int64_t dh = kh * p.dilation, dw = kw * p.dilation;
        rows[k] = ((c * ny + dh % s) * nx + dw % s) * Hq * Wq +
                  dh / s * Wq + dw / s;
      }
    }
  }
  const std::int64_t slack = nr + Wq;
  float* const xp = ThreadScratch<float, struct ConvPadded>::get(
      static_cast<std::size_t>(N * sample + slack));
  pad_phases(X.data(), N * C, H, W, p, ny, nx, Hq, Wq, xp);
  std::fill(xp + N * sample, xp + N * sample + slack, 0.0f);

  const float* const b = bias.data();
  float* const y = Y.data();
  // About 64k multiply-adds per chunk: a function of the shape alone.
  const std::int64_t grain =
      std::max<std::int64_t>(1, (1 << 16) / std::max<std::int64_t>(1, K * mp * mr * nr));
  simd::dispatch([&](auto tag) {
    using V = decltype(tag);
    parallel_for(0, N * tiles, grain, [&](std::int64_t lo, std::int64_t hi) {
      alignas(64) float tile[mr * nr];
      for (std::int64_t t = lo; t < hi; ++t) {
        const std::int64_t n = t / tiles;
        const std::int64_t j0 = t % tiles * nr;
        const std::int64_t cols = std::min(nr, grid - j0);
        for (std::int64_t blk = 0; blk < mp; ++blk) {
          gemm_micro_tile_rows(K, pa + blk * K * mr, xp + n * sample + j0, rows,
                               tile);
          const std::int64_t f0 = blk * mr;
          for (std::int64_t f = f0; f < std::min(f0 + mr, F); ++f) {
            const float* const tf = tile + (f - f0) * nr;
            const float bf = b[f];
            // Store one output-row run at a time, skipping pad columns.
            for (std::int64_t jj = 0; jj < cols;) {
              const std::int64_t oh = (j0 + jj) / Wq, ow = (j0 + jj) % Wq;
              if (ow >= Wo) {
                jj += Wq - ow;
                continue;
              }
              const std::int64_t len = std::min(Wo - ow, cols - jj);
              const std::int64_t o = ((n * F + f) * Ho + oh) * Wo + ow;
              float* const dst = y + o;
              float* const pre = save_pre != nullptr ? save_pre + o : nullptr;
              const float* const src = tf + jj;
              simd::lanes<V>(0, len, [&](auto w, std::int64_t i) {
                using L = decltype(w);
                L val = L::loadu(src + i) + L::broadcast(bf);
                if (pre != nullptr) val.storeu(pre + i);
                for (int l = 0; l < chain_len; ++l)
                  val = apply_activation(chain[l], val);
                val.storeu(dst + i);
              });
              jj += len;
            }
          }
        }
      }
    });
  });
}

// Winograd F(2x2, 3x3): 4x4 input tiles, 2x2 output tiles.
//   Y = A^T [ (G g G^T) .* (B^T d B) ] A
void wino_transform_filter(const float* g, float* u) {
  // G (4x3) x g (3x3) x G^T (3x4) => u (4x4)
  static const float G[4][3] = {
      {1.0f, 0.0f, 0.0f},
      {0.5f, 0.5f, 0.5f},
      {0.5f, -0.5f, 0.5f},
      {0.0f, 0.0f, 1.0f},
  };
  float tmp[4][3];
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 3; ++j)
      tmp[i][j] = G[i][0] * g[0 * 3 + j] + G[i][1] * g[1 * 3 + j] +
                  G[i][2] * g[2 * 3 + j];
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      u[i * 4 + j] = tmp[i][0] * G[j][0] + tmp[i][1] * G[j][1] +
                     tmp[i][2] * G[j][2];
}

void wino_transform_input(const float d[4][4], float v[4][4]) {
  // B^T d B with B^T = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]]
  float t[4][4];
  for (int j = 0; j < 4; ++j) {
    t[0][j] = d[0][j] - d[2][j];
    t[1][j] = d[1][j] + d[2][j];
    t[2][j] = -d[1][j] + d[2][j];
    t[3][j] = d[1][j] - d[3][j];
  }
  for (int i = 0; i < 4; ++i) {
    v[i][0] = t[i][0] - t[i][2];
    v[i][1] = t[i][1] + t[i][2];
    v[i][2] = -t[i][1] + t[i][2];
    v[i][3] = t[i][1] - t[i][3];
  }
}

void wino_transform_output(const float m[4][4], float y[2][2]) {
  // A^T m A with A^T = [[1,1,1,0],[0,1,-1,-1]]
  float t[2][4];
  for (int j = 0; j < 4; ++j) {
    t[0][j] = m[0][j] + m[1][j] + m[2][j];
    t[1][j] = m[1][j] - m[2][j] - m[3][j];
  }
  for (int i = 0; i < 2; ++i) {
    y[i][0] = t[i][0] + t[i][1] + t[i][2];
    y[i][1] = t[i][1] - t[i][2] - t[i][3];
  }
}

void conv_winograd(const Tensor& X, const Tensor& Wt, const Tensor& bias,
                   Tensor& Y, const Conv2DParams& p) {
  D500_CHECK_MSG(p.kernel_h == 3 && p.kernel_w == 3 && p.stride == 1 &&
                 p.dilation == 1,
                 "winograd backend requires 3x3/stride1/dilation1");
  const std::int64_t N = X.dim(0), C = X.dim(1), H = X.dim(2), W = X.dim(3);
  const std::int64_t F = Wt.dim(0);
  const std::int64_t Ho = p.out_dim(H, 3);
  const std::int64_t Wo = p.out_dim(W, 3);
  // Pre-transform all filters: U[f][c] is a 4x4 tile. Grow-only
  // per-thread workspace, fully rewritten each call. Pool workers get the
  // caller's pointer.
  float* const U = ThreadScratch<float, struct WinogradU>::get(
      static_cast<std::size_t>(F) * C * 16);
  for (std::int64_t f = 0; f < F; ++f)
    for (std::int64_t c = 0; c < C; ++c)
      wino_transform_filter(Wt.data() + (f * C + c) * 9, U + (f * C + c) * 16);

  const std::int64_t tiles_h = (Ho + 1) / 2;
  const std::int64_t tiles_w = (Wo + 1) / 2;
  const float* x = X.data();
  float* yout = Y.data();

  // Tile rows of distinct samples write disjoint output tiles; flatten
  // (n, th) into one index space for the pool.
  parallel_for(0, N * tiles_h, 1, [&](std::int64_t lo, std::int64_t hi) {
    float* const V = ThreadScratch<float, struct WinogradV, ScratchUse::kHelper>::get(
        static_cast<std::size_t>(C) * 16);
    for (std::int64_t nt = lo; nt < hi; ++nt) {
      const std::int64_t n = nt / tiles_h;
      const std::int64_t th = nt % tiles_h;
      for (std::int64_t tw = 0; tw < tiles_w; ++tw) {
        const std::int64_t oh0 = th * 2, ow0 = tw * 2;
        // Gather and transform the 4x4 input tile for each channel.
        for (std::int64_t c = 0; c < C; ++c) {
          float d[4][4];
          for (int i = 0; i < 4; ++i) {
            const std::int64_t ih = oh0 + i - p.pad;
            for (int j = 0; j < 4; ++j) {
              const std::int64_t iw = ow0 + j - p.pad;
              d[i][j] = (ih >= 0 && ih < H && iw >= 0 && iw < W)
                            ? x[((n * C + c) * H + ih) * W + iw]
                            : 0.0f;
            }
          }
          float v[4][4];
          wino_transform_input(d, v);
          std::memcpy(V + c * 16, v, 16 * sizeof(float));
        }
        // Elementwise multiply-accumulate over channels, then inverse
        // transform per filter.
        for (std::int64_t f = 0; f < F; ++f) {
          float m[4][4] = {};
          const float* Uf = U + f * C * 16;
          for (std::int64_t c = 0; c < C; ++c) {
            const float* u = Uf + c * 16;
            const float* v = V + c * 16;
            for (int i = 0; i < 16; ++i)
              m[i / 4][i % 4] += u[i] * v[i];
          }
          float ytile[2][2];
          wino_transform_output(m, ytile);
          const float b = bias.at(f);
          for (int i = 0; i < 2; ++i) {
            const std::int64_t oh = oh0 + i;
            if (oh >= Ho) continue;
            for (int j = 0; j < 2; ++j) {
              const std::int64_t ow = ow0 + j;
              if (ow >= Wo) continue;
              yout[((n * F + f) * Ho + oh) * Wo + ow] = ytile[i][j] + b;
            }
          }
        }
      }
    }
  });
}

}  // namespace

std::vector<Shape> Conv2DOp::output_shapes(
    const std::vector<Shape>& inputs) const {
  D500_CHECK_MSG(inputs.size() == 3, "Conv2D expects inputs {X, W, bias}");
  const Shape& x = inputs[0];
  const Shape& w = inputs[1];
  const Shape& b = inputs[2];
  if (x.size() != 4 || w.size() != 4 || b.size() != 1)
    throw ShapeError("Conv2D: rank mismatch");
  if (params_.kernel_h < 1 || params_.kernel_w < 1 || params_.stride < 1 ||
      params_.dilation < 1 || params_.pad < 0)
    throw ShapeError("Conv2D: kernel, stride and dilation must be >= 1, pad >= 0");
  if (x[1] != w[1] || w[2] != params_.kernel_h || w[3] != params_.kernel_w ||
      b[0] != w[0])
    throw ShapeError("Conv2D: incompatible shapes X=" + shape_to_string(x) +
                     " W=" + shape_to_string(w));
  const std::int64_t Ho = params_.out_dim(x[2], params_.kernel_h);
  const std::int64_t Wo = params_.out_dim(x[3], params_.kernel_w);
  if (Ho <= 0 || Wo <= 0)
    throw ShapeError("Conv2D: output would be empty for input " +
                     shape_to_string(x));
  return {{x[0], w[0], Ho, Wo}};
}

void Conv2DOp::forward(const ConstTensors& inputs, const MutTensors& outputs) {
  const Tensor& X = *inputs[0];
  const Tensor& W = *inputs[1];
  const Tensor& bias = *inputs[2];
  Tensor& Y = *outputs[0];
  const bool fuse = backend_ == ConvBackend::kIm2col && !epilogue_.empty() &&
                    gemm_epilogue_mode() == EpilogueMode::kFused;
  switch (backend_) {
    case ConvBackend::kDirect: conv_direct(X, W, bias, Y, params_); break;
    case ConvBackend::kIm2col:
      conv_im2col(X, W, bias, Y, params_,
                  prepacked_w_ != nullptr && prepacked_src_ == W.data()
                      ? prepacked_w_
                      : nullptr,
                  fuse ? epilogue_.chain().data() : nullptr,
                  fuse ? epilogue_.size() : 0,
                  fuse && epilogue_.needs_pre()
                      ? epilogue_.ensure_pre(Y.elements())
                      : nullptr);
      break;
    case ConvBackend::kWinograd: conv_winograd(X, W, bias, Y, params_); break;
  }
  if (!fuse) epilogue_.forward_post(Y.data(), Y.elements());
}

// Whole-minibatch packed-GEMM backward, with NS = N*spatial, K = C*kh*kw.
// Its workspace covers all N samples at once, so it is proportional to the
// minibatch size: the batch-scaling workspace behaviour (as in cuDNN's
// non-fused algorithms) that the paper's micro-batching transformation
// (§V-C) exploits, since splitting the minibatch shrinks it and removes
// OOMs. workspace_bytes reports it.
//
//   dyf[F, NS]  = dY regrouped filter-major     db[f] = row_sum(dyf row f)
//   dW^T[K, F]  = col[K, NS] x dyf^T            (M = K: K/MR row panels)
//   dcol[K, NS] = W^T[K, F] x dyf[F, NS]        then col2im per sample
// Both GEMMs put K on the panel axis so even 8-filter layers split across
// the pool. Every output element is one microkernel tile's ascending-k fma
// chain (or a fixed-order row sum), and every decomposition depends only on
// the problem size, so results are bitwise identical at any thread count.
void Conv2DOp::backward(const ConstTensors& grad_outputs,
                        const ConstTensors& fwd_inputs,
                        const ConstTensors& fwd_outputs,
                        const MutTensors& grad_inputs) {
  const Tensor& dY =
      *epilogue_.backward(grad_outputs[0], fwd_outputs[0]->data());
  const Tensor& X = *fwd_inputs[0];
  const Tensor& Wt = *fwd_inputs[1];
  Tensor* const dX = grad_inputs[0];
  Tensor* const dW = grad_inputs[1];
  Tensor* const db = grad_inputs[2];
  const std::int64_t N = X.dim(0), C = X.dim(1), H = X.dim(2), W = X.dim(3);
  const std::int64_t F = Wt.dim(0);
  const std::int64_t spatial = params_.out_dim(H, params_.kernel_h) *
                               params_.out_dim(W, params_.kernel_w);
  const std::int64_t K = C * params_.kernel_h * params_.kernel_w;
  const std::int64_t NS = N * spatial;
  const std::int64_t mr = gemm_micro_mr();

  float* const col = conv_col(gemm_packed_a_elems(K, NS));
  float* const dyf = conv_stage(F * NS + gemm_packed_a_elems(K, F));
  float* const tail = dyf + F * NS;

  const float* const dy = dY.data();
  float* const dbias = db != nullptr ? db->data() : nullptr;
  parallel_for(0, F, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t f = lo; f < hi; ++f) {
      float* row = dyf + f * NS;
      for (std::int64_t n = 0; n < N; ++n)
        std::memcpy(row + n * spatial, dy + (n * F + f) * spatial,
                    static_cast<std::size_t>(spatial) * sizeof(float));
      if (dbias != nullptr) dbias[f] = row_sum(row, NS);
    }
  });

  if (dW != nullptr) {
    const float* const x = X.data();
    parallel_for(0, N, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t n = lo; n < hi; ++n)
        im2col_panels(x + n * C * H * W, C, H, W, params_, col, NS,
                      n * spatial);
    });
    gemm_packed_ex(K, F, NS, 1.0f, nullptr, col, dyf, nullptr,
                   /*b_transposed=*/true, 0.0f, tail);
    float* const w = dW->data();
    for (std::int64_t f = 0; f < F; ++f)
      for (std::int64_t k = 0; k < K; ++k) w[f * K + k] = tail[k * F + f];
  }

  if (dX != nullptr) {
    // W [F, K] read as W^T [K, F], packed straight into MR-row A panels.
    const float* const w = Wt.data();
    for (std::int64_t k0 = 0; k0 < K; k0 += mr)
      for (std::int64_t f = 0; f < F; ++f)
        for (std::int64_t r = 0; r < mr; ++r)
          tail[k0 * F + f * mr + r] = k0 + r < K ? w[f * K + k0 + r] : 0.0f;
    gemm_packed_ex(K, NS, F, 1.0f, nullptr, tail, dyf, nullptr,
                   /*b_transposed=*/false, 0.0f, col);
    float* const dx = dX->data();
    parallel_for(0, N, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t n = lo; n < hi; ++n) {
        float* dxn = dx + n * C * H * W;
        std::memset(dxn, 0,
                    static_cast<std::size_t>(C * H * W) * sizeof(float));
        col2im(col + n * spatial, C, H, W, params_, dxn, NS);
      }
    });
  }
}

std::uint64_t Conv2DOp::forward_flops(const std::vector<Shape>& inputs) const {
  const Shape& x = inputs[0];
  const Shape& w = inputs[1];
  const std::int64_t Ho = params_.out_dim(x[2], params_.kernel_h);
  const std::int64_t Wo = params_.out_dim(x[3], params_.kernel_w);
  // 2 * N * F * Ho * Wo * C * kh * kw (direct-algorithm count, the standard
  // figure DeepBench reports regardless of backend).
  return 2ULL * static_cast<std::uint64_t>(x[0]) * w[0] * Ho * Wo * x[1] *
         params_.kernel_h * params_.kernel_w;
}

std::size_t Conv2DOp::workspace_bytes(const std::vector<Shape>& inputs) const {
  const Shape& x = inputs[0];
  const std::int64_t Ho = params_.out_dim(x[2], params_.kernel_h);
  const std::int64_t Wo = params_.out_dim(x[3], params_.kernel_w);
  const std::int64_t K = x[1] * params_.kernel_h * params_.kernel_w;
  switch (backend_) {
    case ConvBackend::kDirect:
      return 0;
    case ConvBackend::kIm2col: {
      // The backward's workspace at its peak: the whole-minibatch col (K
      // padded to MR rows) and stage buffers scale with the minibatch
      // size; the [Kp, F] tail does not.
      const std::int64_t F = inputs[1][0];
      const std::int64_t NS = x[0] * Ho * Wo;
      return static_cast<std::size_t>(gemm_packed_a_elems(K, NS) + F * NS +
                                      gemm_packed_a_elems(K, F)) *
             sizeof(float);
    }
    case ConvBackend::kWinograd:
      // filter transforms + per-thread input tile buffers
      return static_cast<std::size_t>(inputs[1][0]) * x[1] * 16 * sizeof(float) +
             static_cast<std::size_t>(x[1]) * 16 * sizeof(float);
  }
  return 0;
}

}  // namespace d500

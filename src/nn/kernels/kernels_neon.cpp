// NEON kernel backend.
//
// Vectorizes across INDEPENDENT output elements (4 float lanes), so
// each lane executes exactly the scalar backend's accumulation chain
// for its element: broadcast weight, load 4 inputs, fmul + fadd kept
// as separate instructions (never fused: vmulq/vaddq instead of
// vmlaq, and this TU is compiled with -ffp-contract=off so the
// compiler cannot re-fuse them into FMLA). IEEE-754 single-precision
// mul/add are identical scalar vs vector, so results are bit-identical
// to the scalar backend; remainder elements (sizes not divisible by 4)
// run the scalar chain directly. Dense without the transposed copy,
// ReLU's backward, the conv backward, the transpose, quantization,
// max-pool and the SGD commit are the scalar backend's.
//
// ReLU deliberately avoids vmaxq_f32: ARM FMAX propagates NaN operands
// where the scalar `v > 0 ? v : 0` (and x86 max_ps) returns 0, so the
// NEON path selects through a compare instead, which matches the
// scalar chain for every input including NaN and -0.0.
//
// On non-ARM architectures this TU compiles to a stub that reports the
// backend as unavailable (mirroring kernels_avx2.cpp off x86).

#include "nn/kernels/kernels.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)

#include <arm_neon.h>

namespace ftnav::kernels {

namespace {

/// Loads lanes {p[0], p[stride], p[2*stride], p[3*stride]} — the
/// strided-input gather for conv columns when stride != 1.
inline float32x4_t load_strided(const float* p, int stride) {
  float lanes[4] = {p[0], p[stride], p[2 * stride], p[3 * stride]};
  return vld1q_f32(lanes);
}

void conv2d_neon(const float* w, const float* wt, const float* bias,
                 const float* x, float* y, const ConvShape& s) {
  if (s.out_c >= 4 && wt != nullptr) {
    // Lane j handles output channel oc+j at a fixed spatial position,
    // through the transposed weights wt[ic][kh][kw][oc] (contiguous
    // across output channels for a fixed tap): broadcast one input
    // value, load 4 neighboring output-channel weights. No per-lane
    // gathers regardless of stride, and full lanes even when the
    // output feature map is tiny (late conv stages).
    const std::size_t plane = static_cast<std::size_t>(s.out_h) * s.out_w;
    for (int oh = 0; oh < s.out_h; ++oh) {
      for (int ow = 0; ow < s.out_w; ++ow) {
        const int ih0 = oh * s.stride;
        const int iw0 = ow * s.stride;
        int oc = 0;
        for (; oc + 4 <= s.out_c; oc += 4) {
          float32x4_t acc = vld1q_f32(bias + oc);
          const float* wp = wt + oc;
          for (int ic = 0; ic < s.in_c; ++ic) {
            for (int kh = 0; kh < s.kernel; ++kh) {
              const float* xrow =
                  x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                          s.in_w +
                  iw0;
              for (int kw = 0; kw < s.kernel; ++kw) {
                const float32x4_t wv = vld1q_f32(wp);
                const float32x4_t xv = vdupq_n_f32(xrow[kw]);
                acc = vaddq_f32(acc, vmulq_f32(wv, xv));
                wp += s.out_c;
              }
            }
          }
          float lanes[4];
          vst1q_f32(lanes, acc);
          float* ybase = y + static_cast<std::size_t>(oc) * plane +
                         static_cast<std::size_t>(oh) * s.out_w + ow;
          for (int j = 0; j < 4; ++j)
            ybase[static_cast<std::size_t>(j) * plane] = lanes[j];
        }
        // Remainder output channels: the scalar chain verbatim.
        for (; oc < s.out_c; ++oc) {
          float acc = bias[oc];
          for (int ic = 0; ic < s.in_c; ++ic) {
            for (int kh = 0; kh < s.kernel; ++kh) {
              const float* wrow =
                  w + ((static_cast<std::size_t>(oc) * s.in_c + ic) *
                           s.kernel +
                       kh) *
                          s.kernel;
              const float* xrow =
                  x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                          s.in_w +
                  iw0;
              for (int kw = 0; kw < s.kernel; ++kw)
                acc += wrow[kw] * xrow[kw];
            }
          }
          y[static_cast<std::size_t>(oc) * plane +
            static_cast<std::size_t>(oh) * s.out_w + ow] = acc;
        }
      }
    }
    return;
  }
  // Narrow-out_c fallback: lane j handles output column ow+j, reading
  // input column (ow+j)*stride + kw: contiguous for stride 1, per-lane
  // loads otherwise.
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int oh = 0; oh < s.out_h; ++oh) {
      const int ih0 = oh * s.stride;
      float* yrow = y + (static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w;
      int ow = 0;
      for (; ow + 4 <= s.out_w; ow += 4) {
        float32x4_t acc = vdupq_n_f32(bias[oc]);
        const int iw0 = ow * s.stride;
        for (int ic = 0; ic < s.in_c; ++ic) {
          for (int kh = 0; kh < s.kernel; ++kh) {
            const float* wrow =
                w + ((static_cast<std::size_t>(oc) * s.in_c + ic) * s.kernel +
                     kh) *
                        s.kernel;
            const float* xrow =
                x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                        s.in_w +
                iw0;
            for (int kw = 0; kw < s.kernel; ++kw) {
              const float32x4_t wv = vdupq_n_f32(wrow[kw]);
              const float32x4_t xv = s.stride == 1
                                         ? vld1q_f32(xrow + kw)
                                         : load_strided(xrow + kw, s.stride);
              acc = vaddq_f32(acc, vmulq_f32(wv, xv));
            }
          }
        }
        vst1q_f32(yrow + ow, acc);
      }
      // Remainder columns: the scalar chain verbatim.
      for (; ow < s.out_w; ++ow) {
        float acc = bias[oc];
        const int iw0 = ow * s.stride;
        for (int ic = 0; ic < s.in_c; ++ic) {
          for (int kh = 0; kh < s.kernel; ++kh) {
            const float* wrow =
                w + ((static_cast<std::size_t>(oc) * s.in_c + ic) * s.kernel +
                     kh) *
                        s.kernel;
            const float* xrow =
                x + (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                        s.in_w +
                iw0;
            for (int kw = 0; kw < s.kernel; ++kw) acc += wrow[kw] * xrow[kw];
          }
        }
        yrow[ow] = acc;
      }
    }
  }
}

void dense_neon(const float* w, const float* wt, const float* bias,
                const float* x, float* y, int in_f, int out_f) {
  if (wt == nullptr) {
    scalar_ops().dense(w, nullptr, bias, x, y, in_f, out_f);
    return;
  }
  // Lane j handles output o+j through the transposed weights
  // wt[i][o] (contiguous across outputs for a fixed input).
  int o = 0;
  for (; o + 4 <= out_f; o += 4) {
    float32x4_t acc = vld1q_f32(bias + o);
    for (int i = 0; i < in_f; ++i) {
      const float32x4_t xv = vdupq_n_f32(x[i]);
      const float32x4_t wv =
          vld1q_f32(wt + static_cast<std::size_t>(i) * out_f + o);
      acc = vaddq_f32(acc, vmulq_f32(wv, xv));
    }
    vst1q_f32(y + o, acc);
  }
  for (; o < out_f; ++o) {
    float acc = bias[o];
    const float* row = w + static_cast<std::size_t>(o) * in_f;
    for (int i = 0; i < in_f; ++i) acc += row[i] * x[i];
    y[o] = acc;
  }
}

void relu_neon(float* x, std::size_t n) {
  // Select-through-compare, NOT vmaxq_f32: vcgt is false for v <= 0,
  // v = -0.0 and v NaN, so those lanes take +0.0 — exactly the scalar
  // `v > 0 ? v : 0` (FMAX would propagate NaN instead).
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    vst1q_f32(x + i, vbslq_f32(vcgtq_f32(v, zero), v, zero));
  }
  for (; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

}  // namespace

const KernelOps* neon_ops() noexcept {
  // ReLU's backward, the conv backward, the transpose, quantization,
  // max-pool and the commit have no NEON loop: the scalar references
  // serve.
  static const KernelOps kNeonOps{"neon",
                                  /*dense_wants_transposed=*/true,
                                  /*conv_wants_transposed=*/true,
                                  conv2d_neon,
                                  dense_neon,
                                  relu_neon,
                                  scalar_ops().relu_backward,
                                  scalar_ops().conv2d_backward,
                                  scalar_ops().transpose,
                                  scalar_ops().quantize,
                                  scalar_ops().maxpool2d,
                                  scalar_ops().sgd_commit};
  return &kNeonOps;
}

}  // namespace ftnav::kernels

#else  // !defined(__ARM_NEON)

namespace ftnav::kernels {

const KernelOps* neon_ops() noexcept { return nullptr; }

}  // namespace ftnav::kernels

#endif

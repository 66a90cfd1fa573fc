// Scalar kernel backend, runtime dispatch and transpose.
//
// The scalar loops fix the accumulation order that every backend
// reproduces, for the float layers and the quantized engine alike. The
// project is compiled with -ffp-contract=off (see CMakeLists.txt) so
// the chains stay mul+add.

#include "nn/kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "fixed/qformat.h"

namespace ftnav::kernels {

namespace {

void conv2d_scalar(const float* w, const float* /*wt*/, const float* bias,
                   const float* x, float* y, const ConvShape& s) {
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int oh = 0; oh < s.out_h; ++oh) {
      for (int ow = 0; ow < s.out_w; ++ow) {
        float acc = bias[oc];
        const int ih0 = oh * s.stride;
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
        y[(static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w + ow] = acc;
      }
    }
  }
}

void dense_scalar(const float* w, const float* /*wt*/, const float* bias,
                  const float* x, float* y, int in_f, int out_f) {
  for (int o = 0; o < out_f; ++o) {
    float acc = bias[o];
    const float* row = w + static_cast<std::size_t>(o) * in_f;
    for (int i = 0; i < in_f; ++i) acc += row[i] * x[i];
    y[o] = acc;
  }
}

void relu_scalar(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward_scalar(const float* x, const float* gy, float* gx,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) gx[i] = x[i] > 0.0f ? gy[i] : 0.0f;
}

/// The reference backward. Each gradient element's chain: gb[oc] and
/// gw[oc][..] add one term per output position (oh, ow ascending);
/// gx[ic][ih][iw] adds one term per (oc, oh, ow) ascending whose window
/// covers it. A zero output gradient (+0 or -0) adds nothing: adding
/// +-0 would turn a -0 sum into +0 and 0 * inf into NaN. A null gx
/// drops its updates and leaves every other chain as it is.
void conv2d_backward_scalar(const float* w, const float* x, const float* gy,
                            float* gw, float* gb, float* gx,
                            float* /*scratch*/, const ConvShape& s) {
  if (gx != nullptr)
    std::fill(gx, gx + static_cast<std::size_t>(s.in_c) * s.in_h * s.in_w,
              0.0f);
  for (int oc = 0; oc < s.out_c; ++oc) {
    for (int oh = 0; oh < s.out_h; ++oh) {
      for (int ow = 0; ow < s.out_w; ++ow) {
        const float g =
            gy[(static_cast<std::size_t>(oc) * s.out_h + oh) * s.out_w + ow];
        if (g == 0.0f) continue;
        gb[oc] += g;
        const int ih0 = oh * s.stride;
        const int iw0 = ow * s.stride;
        for (int ic = 0; ic < s.in_c; ++ic) {
          for (int kh = 0; kh < s.kernel; ++kh) {
            const std::size_t wrow =
                ((static_cast<std::size_t>(oc) * s.in_c + ic) * s.kernel +
                 kh) *
                s.kernel;
            const std::size_t xrow =
                (static_cast<std::size_t>(ic) * s.in_h + (ih0 + kh)) *
                    s.in_w +
                iw0;
            for (int kw = 0; kw < s.kernel; ++kw)
              gw[wrow + kw] += g * x[xrow + kw];
            if (gx != nullptr)
              for (int kw = 0; kw < s.kernel; ++kw)
                gx[xrow + kw] += g * w[wrow + kw];
          }
        }
      }
    }
  }
}

void transpose_scalar(const float* w, float* wt, int rows, int cols) {
  // 8x8 tiles: a full tile's fixed-size loops unroll, and its reads and
  // its strided writes each stay within eight cache lines.
  constexpr std::size_t kTile = 8;
  const auto R = static_cast<std::size_t>(rows);
  const auto C = static_cast<std::size_t>(cols);
  for (std::size_t r0 = 0; r0 < R; r0 += kTile) {
    const std::size_t rn = std::min(kTile, R - r0);
    for (std::size_t c0 = 0; c0 < C; c0 += kTile) {
      const std::size_t cn = std::min(kTile, C - c0);
      const float* src = w + r0 * C + c0;
      float* dst = wt + c0 * R + r0;
      if (rn == kTile && cn == kTile) {
        for (std::size_t c = 0; c < kTile; ++c)
          for (std::size_t r = 0; r < kTile; ++r)
            dst[c * R + r] = src[r * C + c];
      } else {
        for (std::size_t c = 0; c < cn; ++c)
          for (std::size_t r = 0; r < rn; ++r) dst[c * R + r] = src[r * C + c];
      }
    }
  }
}

void quantize_scalar(float* x, std::size_t n, const QFormat& format) {
  for (std::size_t i = 0; i < n; ++i) x[i] = format.quantize(x[i]);
}

void maxpool2d_scalar(const float* x, float* y, int channels, int in_h,
                      int in_w, int window, std::size_t* argmax) {
  const int out_h = in_h / window;
  const int out_w = in_w / window;
  std::size_t flat = 0;
  for (int c = 0; c < channels; ++c) {
    for (int oh = 0; oh < out_h; ++oh) {
      for (int ow = 0; ow < out_w; ++ow, ++flat) {
        const std::size_t origin =
            (static_cast<std::size_t>(c) * in_h + oh * window) * in_w +
            ow * window;
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_index = origin;
        for (int kh = 0; kh < window; ++kh) {
          for (int kw = 0; kw < window; ++kw) {
            const std::size_t i = origin + kh * in_w + kw;
            if (x[i] > best) {
              best = x[i];
              best_index = i;
            }
          }
        }
        y[flat] = best;
        if (argmax != nullptr) argmax[flat] = best_index;
      }
    }
  }
}

/// The reference commit, one entry at a time through QFormat's inline
/// encode and decode; the SIMD entries return its results.
void sgd_commit_scalar(const CommitRun& run, float lr, const QFormat& format) {
  for (std::size_t i = 0; i < run.n; ++i) {
    const float m = run.master[i] - lr * (0.0f + run.grad[i]);
    run.master[i] = m;
    const std::size_t k = i * run.word_stride;
    Word w = format.encode(m);
    if (run.and_mask != nullptr) w = (w & run.and_mask[k]) | run.or_mask[k];
    run.words[k] = w;
    const auto value = static_cast<float>(format.decode(w));
    if (run.param != nullptr) run.param[i * run.param_stride] = value;
    run.copy[i * run.copy_stride] = value;
  }
}

constexpr KernelOps kScalarOps{"scalar",
                               /*dense_wants_transposed=*/false,
                               /*conv_wants_transposed=*/false,
                               conv2d_scalar,
                               dense_scalar,
                               relu_scalar,
                               relu_backward_scalar,
                               conv2d_backward_scalar,
                               transpose_scalar,
                               quantize_scalar,
                               maxpool2d_scalar,
                               sgd_commit_scalar};

std::atomic<const KernelOps*> g_override{nullptr};

}  // namespace

const KernelOps& scalar_ops() noexcept { return kScalarOps; }

std::size_t conv2d_backward_scratch(const ConvShape& s) noexcept {
  // The AVX2 backward: x unrolled per output position (plus one vector
  // of slack), then w permuted next to gx in HWC order, both with the
  // input channels padded to a multiple of 8.
  const std::size_t taps = static_cast<std::size_t>(s.in_c) * s.kernel *
                           s.kernel;
  const std::size_t unrolled =
      static_cast<std::size_t>(s.out_h) * s.out_w * taps + 8;
  const std::size_t padded = (static_cast<std::size_t>(s.in_c) + 7) / 8 * 8;
  const std::size_t permuted =
      (static_cast<std::size_t>(s.out_c) * s.kernel * s.kernel +
       static_cast<std::size_t>(s.in_h) * s.in_w) *
      padded;
  return std::max(unrolled, permuted);
}

bool avx2_supported() noexcept {
  if (avx2_ops() == nullptr) return false;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool neon_supported() noexcept { return neon_ops() != nullptr; }

const KernelOps& resolve_backend(const std::string& choice) {
  if (choice == "scalar") return kScalarOps;
  if (choice == "avx2") {
    if (!avx2_supported())
      throw std::runtime_error(
          "FTNAV_SIMD=avx2: this host does not support AVX2 (use "
          "FTNAV_SIMD=scalar or auto)");
    return *avx2_ops();
  }
  if (choice == "neon") {
    if (!neon_supported())
      throw std::runtime_error(
          "FTNAV_SIMD=neon: this host does not support NEON (use "
          "FTNAV_SIMD=scalar or auto)");
    return *neon_ops();
  }
  if (choice == "auto") {
    if (avx2_supported()) return *avx2_ops();
    if (neon_supported()) return *neon_ops();
    return kScalarOps;
  }
  throw std::invalid_argument("FTNAV_SIMD: unknown backend \"" + choice +
                              "\" (expected scalar | avx2 | neon | auto)");
}

const KernelOps& active() {
  const KernelOps* forced = g_override.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  static const KernelOps& chosen = []() -> const KernelOps& {
    const char* raw = std::getenv("FTNAV_SIMD");
    try {
      return resolve_backend(raw != nullptr && *raw != '\0' ? raw : "auto");
    } catch (const std::exception& e) {
      // First use may be on a worker thread; a throw here would
      // std::terminate, so diagnose and exit like other bad inputs.
      std::fprintf(stderr, "ftnav: %s\n", e.what());
      std::exit(2);
    }
  }();
  return chosen;
}

ScopedKernelBackend::ScopedKernelBackend(const KernelOps& ops)
    : previous_(g_override.exchange(&ops, std::memory_order_acq_rel)) {}

ScopedKernelBackend::~ScopedKernelBackend() {
  g_override.store(previous_, std::memory_order_release);
}

}  // namespace ftnav::kernels

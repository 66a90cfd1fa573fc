// Scalar kernel backend, runtime dispatch, max-pool and transpose.
//
// The scalar loops fix the accumulation order that every backend
// reproduces, for the float layers and the quantized engine alike. The
// project is compiled with -ffp-contract=off (see CMakeLists.txt) so
// the chains stay mul+add.

#include "nn/kernels/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

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

constexpr KernelOps kScalarOps{"scalar", /*dense_wants_transposed=*/false,
                               /*conv_wants_transposed=*/false, conv2d_scalar,
                               dense_scalar, relu_scalar};

std::atomic<const KernelOps*> g_override{nullptr};

}  // namespace

const KernelOps& scalar_ops() noexcept { return kScalarOps; }

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

void maxpool2d(const float* x, float* y, int channels, int in_h, int in_w,
               int window, std::size_t* argmax) {
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

void transpose(const float* w, float* wt, int rows, int cols) {
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      wt[static_cast<std::size_t>(c) * rows + r] =
          w[static_cast<std::size_t>(r) * cols + c];
}

ScopedKernelBackend::ScopedKernelBackend(const KernelOps& ops)
    : previous_(g_override.exchange(&ops, std::memory_order_acq_rel)) {}

ScopedKernelBackend::~ScopedKernelBackend() {
  g_override.store(previous_, std::memory_order_release);
}

}  // namespace ftnav::kernels

#pragma once
// Runtime-dispatched compute kernels: the only forward loops of the
// float layers (src/nn/layers.cpp) and the quantized inference engine.
//
// The engine emulates fixed-point MACs in float: per output element it
// runs one sequential accumulation chain (bias, then += w*x in a fixed
// order) whose result is quantized on the buffer write. The SIMD
// backends vectorize ACROSS independent output elements while keeping
// every element's scalar chain intact, so each lane performs exactly
// the operations the scalar backend performs for that element and the
// results are bit-identical for every backend and lane width. The
// project is compiled with -ffp-contract=off so no backend fuses the
// multiply-add chain into FMAs.
//
// Backend selection happens once per process from FTNAV_SIMD
// ("scalar" | "avx2" | "neon" | "auto", default auto = the widest
// backend the CPU supports: avx2 on x86, neon on ARM, scalar
// otherwise). Naming a backend the host cannot execute is a diagnosed
// error, not a silent fallback. Tests pin a backend with
// ScopedKernelBackend to compare backends inside one process.

#include <cstddef>
#include <string>

namespace ftnav::kernels {

/// Geometry of one Conv2D call (no padding, square kernel/stride),
/// mirroring ftnav::Conv2D.
struct ConvShape {
  int in_c = 0, in_h = 0, in_w = 0;
  int out_c = 0, out_h = 0, out_w = 0;
  int kernel = 0, stride = 0;
};

/// One kernel backend. All pointers are to dense row-major storage:
///   conv2d: w[oc][ic][kh][kw], wt[ic][kh][kw][oc] (transposed copy,
///           only valid when conv_wants_transposed; pass nullptr
///           otherwise), bias[oc], x/y in CHW;
///   dense:  w[o][i] (row-major), wt[i][o] (transposed copy, only
///           valid when dense_wants_transposed; pass nullptr
///           otherwise), bias[o];
///   relu:   in place.
/// Output regions must not alias inputs.
struct KernelOps {
  const char* name;
  /// True when `dense` reads the transposed weight copy `wt` (built
  /// by the caller once per weight-image load, amortized over many
  /// inferences).
  bool dense_wants_transposed;
  /// True when `conv2d` reads the transposed weight copy `wt`
  /// (contiguous across output channels for a fixed tap, so SIMD
  /// lanes covering neighboring output channels load one vector per
  /// tap instead of gathering strided input columns). Built by the
  /// caller with transpose().
  bool conv_wants_transposed;
  void (*conv2d)(const float* w, const float* wt, const float* bias,
                 const float* x, float* y, const ConvShape& s);
  void (*dense)(const float* w, const float* wt, const float* bias,
                const float* x, float* y, int in_f, int out_f);
  void (*relu)(float* x, std::size_t n);
};

/// The portable backend, whose chains every other backend reproduces.
const KernelOps& scalar_ops() noexcept;

/// The AVX2 backend, or nullptr when not compiled in (non-x86 build).
/// Calling its entry points on a CPU without AVX2 is undefined; gate
/// on avx2_supported().
const KernelOps* avx2_ops() noexcept;

/// True when the AVX2 backend is compiled in AND this CPU executes it.
bool avx2_supported() noexcept;

/// The NEON backend, or nullptr when not compiled in (non-ARM build).
const KernelOps* neon_ops() noexcept;

/// True when the NEON backend is compiled in (ARM builds; NEON is
/// architectural on AArch64, so compiled-in implies executable).
bool neon_supported() noexcept;

/// Resolves a backend by name ("scalar" | "avx2" | "neon" | "auto").
/// Throws std::invalid_argument for unknown names and
/// std::runtime_error for a known backend this host cannot execute
/// (e.g. FTNAV_SIMD=avx2 on ARM, FTNAV_SIMD=neon on x86).
const KernelOps& resolve_backend(const std::string& choice);

/// The process-wide backend: the ScopedKernelBackend override when one
/// is active, otherwise the FTNAV_SIMD choice resolved once on first
/// use. Engines capture this at construction, float layers per call.
const KernelOps& active();

/// Shared scalar max-pool (not dispatched: it only selects existing
/// values, so it is backend-invariant by construction). A non-null
/// `argmax` receives each output's flat CHW input index.
void maxpool2d(const float* x, float* y, int channels, int in_h, int in_w,
               int window, std::size_t* argmax = nullptr);

/// wt[c][r] = w[r][c] for a row-major rows x cols `w`: the `wt` copy
/// that dense (rows = out_f) and conv2d (rows = out_c) read.
void transpose(const float* w, float* wt, int rows, int cols);

/// Test-only: pins the active backend for the lifetime of the scope so
/// one process can construct engines on different backends and compare
/// their outputs. Not thread-safe; tests are single-threaded.
class ScopedKernelBackend {
 public:
  explicit ScopedKernelBackend(const KernelOps& ops);
  ~ScopedKernelBackend();
  ScopedKernelBackend(const ScopedKernelBackend&) = delete;
  ScopedKernelBackend& operator=(const ScopedKernelBackend&) = delete;

 private:
  const KernelOps* previous_;
};

}  // namespace ftnav::kernels

#pragma once
// Runtime-dispatched compute kernels: the forward loops of the float
// layers (src/nn/layers.cpp) and the quantized inference engine, the
// engine's activation quantization, the float Conv2D and ReLU
// backwards, the weight transposes, and the Grid World MLP's
// straight-through weight commit (src/rl/mlp_q.cpp).
//
// The engine emulates fixed-point MACs in float: per output element it
// runs one sequential accumulation chain (bias, then += w*x in a fixed
// order) whose result is quantized on the buffer write. The SIMD
// backends vectorize ACROSS independent output elements while keeping
// every element's scalar chain intact, so each lane performs exactly
// the operations the scalar backend performs for that element and the
// results are bit-identical for every backend and lane width, on one
// condition: every NaN a chain meets has the same bits. When an add or
// multiply meets two different NaNs, every backend returns a NaN, but
// which of the two follows the operand order the compiler picks for a
// commutative instruction, so its sign and payload may differ between
// backends (test_kernels' dense matrix checks that such outputs stay
// NaN). The condition holds while every NaN comes from the host's
// invalid operations (inf - inf, 0 * inf), which all return the one
// default NaN: no negated, absolute-valued or hand-built NaN may reach
// a kernel. The backward keeps the same contract: every gradient
// element sees the scalar backward's sequence of `+= g * v` updates,
// skipped exactly where that loop skips a zero output gradient (the
// AVX2 entry first lists, per output channel and without a branch, the
// positions whose gradient passes `g != 0.0f`, so -0.0 is skipped and
// NaN is not, and then walks that list in order). ReLU's backward
// selects the output gradient where the forward input is greater than
// zero. Max-pool makes the scalar loop's comparisons in its window
// order, so it returns the scalar entry's bytes too. Quantization and
// the SGD commit's encode and decode return the same results as
// QFormat's double arithmetic, but on float lanes: for a format of at
// most 24 bits, 2^f and 2^-f are powers of two (scaling by one is
// exact unless it overflows past both bounds), the raw bounds and every
// raw value are integers below 2^24 that a float holds exactly, and
// rounding commutes with a clamp to integral bounds, so scaling,
// clamping, rounding and rescaling in float lose nothing. Wider formats
// take the scalar entries. The SGD commit runs each entry's float
// update on its own lane, so every master, word and parameter matches
// the scalar entry's. The project is compiled with -ffp-contract=off so
// no backend fuses the multiply-add chain into FMAs.
//
// Backend selection happens once per process from FTNAV_SIMD
// ("scalar" | "avx2" | "neon" | "auto", default auto = the widest
// backend the CPU supports: avx2 on x86, neon on ARM, scalar
// otherwise). Naming a backend the host cannot execute is a diagnosed
// error, not a silent fallback. Tests pin a backend with
// ScopedKernelBackend to compare backends inside one process.

#include <cstddef>
#include <cstdint>
#include <string>

namespace ftnav {
class QFormat;
}  // namespace ftnav

namespace ftnav::kernels {

/// Geometry of one Conv2D call (no padding, square kernel/stride),
/// mirroring ftnav::Conv2D.
struct ConvShape {
  int in_c = 0, in_h = 0, in_w = 0;
  int out_c = 0, out_h = 0, out_w = 0;
  int kernel = 0, stride = 0;
};

/// One run of graded weights for KernelOps::sgd_commit: entry i has
/// its float master at master[i] and its gradient term at grad[i]
/// (both contiguous), its word at words[i * word_stride], its stuck-bit
/// masks at and_mask/or_mask[i * word_stride] (the masks are indexed
/// like the words; both null when no bit of the store is stuck), and
/// its two decoded outputs at param[i * param_stride] and
/// copy[i * copy_stride]. A null param skips that store. The regions
/// must not overlap.
struct CommitRun {
  float* master = nullptr;
  const float* grad = nullptr;
  std::uint32_t* words = nullptr;
  const std::uint32_t* and_mask = nullptr;
  const std::uint32_t* or_mask = nullptr;
  std::size_t word_stride = 1;
  float* param = nullptr;
  std::size_t param_stride = 1;
  float* copy = nullptr;
  std::size_t copy_stride = 1;
  std::size_t n = 0;
};

/// One kernel backend. All pointers are to dense row-major storage:
///   conv2d: w[oc][ic][kh][kw], wt[ic][kh][kw][oc] (transposed copy,
///           only valid when conv_wants_transposed; pass nullptr
///           otherwise), bias[oc], x/y in CHW;
///   dense:  w[o][i] (row-major), wt[i][o] (transposed copy, read
///           only when dense_wants_transposed) or nullptr, bias[o]. A
///           null wt is valid on every backend: the entry then reads
///           only the row-major w (AVX2 transposes 8x8 tiles of it in
///           registers), so callers whose weights change between calls
///           need no copy;
///   relu:   in place;
///   relu_backward: gx[i] = x[i] > 0 ? gy[i] : +0.0f for i < n, where
///           x is the forward's input (false for -0.0 and NaN);
///   conv2d_backward: w and x as conv2d (x is the forward's input),
///           gy[oc][oh][ow] the output gradient; adds into
///           gw[oc][ic][kh][kw] and gb[oc], overwrites every element
///           of gx (CHW, the input gradient), and may use `scratch`,
///           conv2d_backward_scratch(s) floats whose contents on entry
///           and exit are unspecified. gx may be nullptr: then no input
///           gradient is computed, and gw and gb receive exactly the
///           values of the full call (neither chain reads gx);
///   transpose: wt[c][r] = w[r][c] for a row-major rows x cols w: the
///           wt copy that dense (rows = out_f) and conv2d (rows = out_c)
///           read. A copy, so no backend can change a value;
///   quantize: x[i] = format.quantize(x[i]) for i < n, in place;
///   maxpool2d: non-overlapping `window` x `window` max over CHW x, y
///           the (channels, in_h / window, in_w / window) output. Each
///           output scans its window row by row from -inf and takes a
///           value only when it is greater than the best so far, so
///           the first of equal maxima wins and NaN is never selected.
///           A non-null `argmax` receives each output's flat CHW input
///           index;
///   sgd_commit: for each entry i < run.n of `run` (see CommitRun), in
///           float, g = 0.0f + grad[i] and master[i] = master[i] - lr *
///           g; then w = format.encode(master[i]), w = (w & and_mask) |
///           or_mask when masks are given, words = w, and param (unless
///           null) = copy = float(format.decode(w)). The stored gradient
///           of a graded weight is 0.0f + its one backward term (+0.0
///           before the term is added), which is why g is that sum: it
///           differs from the term only for a -0.0 term, which it makes
///           +0.0. A +0.0 gradient leaves the master bit for bit as it
///           was, and a word already equal to stuck(encode(master))
///           re-encodes to itself, so committing an entry the step did
///           not change changes nothing.
/// Output regions must not alias inputs (quantize and relu work in
/// place).
struct KernelOps {
  const char* name;
  /// True when `dense` reads the transposed weight copy `wt` when one
  /// is passed (built by the caller once per weight-image load,
  /// amortized over many inferences).
  bool dense_wants_transposed;
  /// True when `conv2d` reads the transposed weight copy `wt`
  /// (contiguous across output channels for a fixed tap, so SIMD
  /// lanes covering neighboring output channels load one vector per
  /// tap instead of gathering strided input columns). Built by the
  /// caller with the transpose slot.
  bool conv_wants_transposed;
  void (*conv2d)(const float* w, const float* wt, const float* bias,
                 const float* x, float* y, const ConvShape& s);
  void (*dense)(const float* w, const float* wt, const float* bias,
                const float* x, float* y, int in_f, int out_f);
  void (*relu)(float* x, std::size_t n);
  void (*relu_backward)(const float* x, const float* gy, float* gx,
                        std::size_t n);
  void (*conv2d_backward)(const float* w, const float* x, const float* gy,
                          float* gw, float* gb, float* gx, float* scratch,
                          const ConvShape& s);
  void (*transpose)(const float* w, float* wt, int rows, int cols);
  void (*quantize)(float* x, std::size_t n, const QFormat& format);
  void (*maxpool2d)(const float* x, float* y, int channels, int in_h,
                    int in_w, int window, std::size_t* argmax);
  void (*sgd_commit)(const CommitRun& run, float lr, const QFormat& format);
};

/// Floats of scratch any backend's conv2d_backward may use for `s`.
std::size_t conv2d_backward_scratch(const ConvShape& s) noexcept;

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

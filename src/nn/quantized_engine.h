#pragma once
// Quantized inference engine with faultable accelerator buffers.
//
// Models a fixed-point NN accelerator the way the paper's fault model
// sees it (§3.2/3.3):
//
//   input buffer      -- the quantized feature map entering the network
//   weight buffer     -- the concatenation of every layer's parameters
//   activation buffer -- each layer's output, quantized on write
//
// Compute is float emulation of exact fixed-point MACs: values are
// dequantized, multiplied/accumulated, and the result is quantized back
// on every buffer write. Faults are bit operations on those buffers:
//
//   * weight faults   -- static: bit-flips applied once, stuck-at masks
//                        enforced on the buffer (Fig. 5/7b-e/10);
//   * input faults    -- dynamic per inference (Fig. 7c "Input");
//   * activation      -- dynamic transient per layer write ("Act (T)"),
//                        or a stuck-at mask on the shared output buffer
//                        re-applied on every write ("Act (P)").
//
// The engine snapshots the trained network at construction, so the
// caller's golden model is never corrupted; reset_faults() restores
// the weight buffer from a word-level golden image (a memcpy, not a
// float re-encode), which makes batching many fault trials through
// one resident engine cheap.
//
// Execution is compiled once into a flat layer program run by the
// runtime-dispatched kernels in nn/kernels/ (FTNAV_SIMD selects the
// backend; results are bit-identical across backends, see kernels.h)
// over two reusable ping-pong buffers — no per-inference layer
// allocations or virtual dispatch.
//
// Optional hardening: a RangeAnomalyDetector calibrated on the golden
// per-layer weight ranges filters the weight buffer at load time
// (paper §5.2); activation protection can be enabled separately.

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/anomaly_detector.h"
#include "core/fault_model.h"
#include "core/injector.h"
#include "fixed/qvector.h"
#include "nn/kernels/kernels.h"
#include "nn/network.h"
#include "util/rng.h"

namespace ftnav {

class QuantizedInferenceEngine {
 public:
  /// Clones `golden` and quantizes its parameters into the weight
  /// buffer using `format`.
  QuantizedInferenceEngine(const Network& golden, QFormat format,
                           Shape input_shape);

  const QFormat& format() const noexcept { return format_; }
  const Shape& input_shape() const noexcept { return input_shape_; }
  std::size_t weight_word_count() const noexcept { return weights_.size(); }
  /// Name of the kernel backend this engine captured at construction
  /// ("scalar", "avx2", ...).
  const char* backend_name() const noexcept { return ops_->name; }
  std::size_t parametered_layer_count() const noexcept {
    return layer_ranges_.size();
  }
  std::vector<std::string> layer_labels() const {
    return net_.parametered_labels();
  }
  /// Weight-buffer slice [begin,end) of parametered layer `i`.
  std::pair<std::size_t, std::size_t> layer_range(std::size_t i) const {
    return layer_ranges_.at(i);
  }

  // ---- fault hooks -------------------------------------------------

  /// Static transient injection into the weight buffer.
  void inject_weight_faults(const FaultMap& map);
  /// Static transient injection restricted to one parametered layer
  /// (Fig. 7d); BER is relative to that layer's slice.
  void inject_layer_weight_faults(std::size_t layer, double ber, Rng& rng);
  /// Permanent faults on the weight buffer (enforced immediately; the
  /// buffer is read-only during inference so once is enough).
  void set_weight_stuck(const StuckAtMask& mask);

  /// Dynamic transient BER applied to the input buffer per inference.
  void set_input_transient_ber(double ber) { input_ber_ = ber; }
  /// Dynamic transient BER applied to every activation-buffer write.
  void set_activation_transient_ber(double ber) { activation_ber_ = ber; }
  /// Permanent faults in the shared activation buffer; sampled against
  /// the largest layer-output footprint and enforced on every write.
  void set_activation_stuck(const StuckAtMask& mask) {
    activation_stuck_ = mask;
  }
  /// Permanent faults in the input buffer.
  void set_input_stuck(const StuckAtMask& mask) { input_stuck_ = mask; }

  /// Clears all faults and restores golden weights.
  void reset_faults();

  /// Size (in words) of the shared activation buffer (max layer output).
  std::size_t activation_buffer_size() const noexcept {
    return activation_words_;
  }

  // ---- hardening ---------------------------------------------------

  /// Builds a weight-range detector calibrated on the golden weights
  /// (one bounds entry per parametered layer) and enables filtering of
  /// the weight buffer at load time.
  void enable_weight_protection(double margin = 0.1);
  void disable_weight_protection() { weight_detector_.reset(); }
  const RangeAnomalyDetector* weight_detector() const {
    return weight_detector_ ? &*weight_detector_ : nullptr;
  }

  // ---- execution ----------------------------------------------------

  /// Runs one quantized inference with all configured faults. `rng`
  /// drives dynamic injection (pass any stream when no dynamic faults
  /// are configured).
  Tensor infer(const Tensor& input, Rng& rng);

  /// Greedy action: argmax of the Q-value head.
  std::size_t act(const Tensor& input, Rng& rng);

 private:
  /// One step of the compiled execution program. Parametered (Conv and
  /// Dense) steps reference their slice of the decoded weight image and
  /// their slice of the transposed-weight cache.
  struct Op {
    LayerKind kind = LayerKind::kFlatten;
    kernels::ConvShape conv{};     // kConv2D
    int in_f = 0, out_f = 0;       // kDense
    int window = 0;                // kMaxPool2D
    Shape in_shape{}, out_shape{};
    std::size_t param_begin = 0;   // into the float weight image
    std::size_t weight_count = 0;  // excludes biases
    std::size_t wt_begin = 0;      // into the transposed-weight cache
  };

  void build_program();
  void load_weights();

  Network net_;                         // structural snapshot (golden)
  std::vector<float> golden_params_;    // pristine parameters
  QFormat format_;
  Shape input_shape_;
  FaultableImage weights_;              // weight buffer + golden words
  std::vector<std::pair<std::size_t, std::size_t>> layer_ranges_;
  std::size_t activation_words_ = 0;
  bool weights_dirty_ = true;

  double input_ber_ = 0.0;
  double activation_ber_ = 0.0;
  StuckAtMask input_stuck_;
  StuckAtMask activation_stuck_;

  std::optional<RangeAnomalyDetector> weight_detector_;

  const kernels::KernelOps* ops_ = nullptr;
  std::vector<Op> program_;
  std::size_t max_elements_ = 0;  // largest buffer any step touches
  std::size_t wt_words_ = 0;      // transposed-cache footprint
  std::vector<float> weight_image_;   // decoded (+ filtered) weights
  std::vector<float> wt_cache_;       // transposed conv and dense weights
  std::vector<float> buf_a_, buf_b_;  // ping-pong activation buffers
};

}  // namespace ftnav

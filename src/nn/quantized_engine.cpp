#include "nn/quantized_engine.h"

#include <algorithm>
#include <stdexcept>

namespace ftnav {

QuantizedInferenceEngine::QuantizedInferenceEngine(const Network& golden,
                                                   QFormat format,
                                                   Shape input_shape)
    : net_(golden),
      golden_params_(net_.snapshot_parameters()),
      format_(format),
      input_shape_(input_shape),
      weights_(format, std::span<const float>(golden_params_)),
      ops_(&kernels::active()) {
  if (!input_shape.valid())
    throw std::invalid_argument("QuantizedInferenceEngine: bad input shape");
  const auto parametered = net_.parametered_layers();
  layer_ranges_.reserve(parametered.size());
  for (std::size_t i = 0; i < parametered.size(); ++i)
    layer_ranges_.push_back(net_.parameter_range(i));
  build_program();
}

void QuantizedInferenceEngine::build_program() {
  // Validate the stack against the input shape and compile it into the
  // flat kernel program; record the largest layer-output footprint =
  // the shared activation buffer size.
  Shape shape = input_shape_;
  std::size_t parametered = 0;
  program_.reserve(net_.layer_count());
  for (std::size_t i = 0; i < net_.layer_count(); ++i) {
    const Layer& layer = net_.layer(i);
    Op op;
    op.kind = layer.kind();
    op.in_shape = shape;
    shape = layer.output_shape(shape);
    op.out_shape = shape;
    activation_words_ = std::max(activation_words_, shape.element_count());
    switch (op.kind) {
      case LayerKind::kConv2D: {
        const auto& conv = dynamic_cast<const Conv2D&>(layer);
        op.conv = kernels::ConvShape{
            op.in_shape.channels,  op.in_shape.height,  op.in_shape.width,
            op.out_shape.channels, op.out_shape.height, op.out_shape.width,
            conv.kernel(),         conv.stride()};
        op.param_begin = layer_ranges_.at(parametered).first;
        op.weight_count = static_cast<std::size_t>(conv.out_channels()) *
                          conv.in_channels() * conv.kernel() * conv.kernel();
        op.wt_begin = wt_words_;
        wt_words_ += op.weight_count;
        ++parametered;
        break;
      }
      case LayerKind::kDense: {
        const auto& dense = dynamic_cast<const Dense&>(layer);
        op.in_f = dense.in_features();
        op.out_f = dense.out_features();
        op.param_begin = layer_ranges_.at(parametered).first;
        op.weight_count =
            static_cast<std::size_t>(op.in_f) * static_cast<std::size_t>(op.out_f);
        op.wt_begin = wt_words_;
        wt_words_ += op.weight_count;
        ++parametered;
        break;
      }
      case LayerKind::kMaxPool2D:
        op.window = dynamic_cast<const MaxPool2D&>(layer).window();
        break;
      case LayerKind::kReLU:
      case LayerKind::kFlatten:
        break;
    }
    program_.push_back(op);
  }
  max_elements_ = std::max(input_shape_.element_count(), activation_words_);
  buf_a_.resize(max_elements_);
  buf_b_.resize(max_elements_);
}

void QuantizedInferenceEngine::inject_weight_faults(const FaultMap& map) {
  if (map.type() != FaultType::kTransientFlip)
    throw std::invalid_argument(
        "inject_weight_faults: use set_weight_stuck for permanent faults");
  weights_.apply(map);
  weights_dirty_ = weights_dirty_ || weights_.dirty();
}

void QuantizedInferenceEngine::inject_layer_weight_faults(std::size_t layer,
                                                          double ber,
                                                          Rng& rng) {
  const auto [begin, end] = layer_ranges_.at(layer);
  FaultMap map = FaultMap::sample(FaultType::kTransientFlip, ber,
                                  end - begin, format_.total_bits(), rng);
  weights_.apply(map, begin, end - begin);
  weights_dirty_ = weights_dirty_ || weights_.dirty();
}

void QuantizedInferenceEngine::set_weight_stuck(const StuckAtMask& mask) {
  weights_.apply(mask);
  weights_dirty_ = weights_dirty_ || weights_.dirty();
}

void QuantizedInferenceEngine::reset_faults() {
  // Word-level restore off the golden image: produces exactly the
  // words the construction-time encode produced. A clean image skips
  // both the restore and the re-decode on the next inference — trials
  // whose faults never touch the weight buffer (input/activation
  // faults, fault-free baselines) keep the decoded image warm, which
  // is what makes a shard-resident engine cheap for them.
  if (weights_.dirty()) {
    weights_.restore();
    weights_dirty_ = true;
  }
  input_ber_ = 0.0;
  activation_ber_ = 0.0;
  input_stuck_ = StuckAtMask();
  activation_stuck_ = StuckAtMask();
}

void QuantizedInferenceEngine::enable_weight_protection(double margin) {
  // One bounds entry per parametered layer, calibrated on the *golden*
  // (fault-free) weights -- the paper instruments ranges after training.
  RangeAnomalyDetector detector(format_, layer_ranges_.size(), margin);
  for (std::size_t layer = 0; layer < layer_ranges_.size(); ++layer) {
    const auto [begin, end] = layer_ranges_[layer];
    for (std::size_t i = begin; i < end; ++i)
      detector.calibrate(layer, golden_params_[i]);
  }
  detector.finalize();
  weight_detector_ = std::move(detector);
  weights_dirty_ = true;
}

void QuantizedInferenceEngine::load_weights() {
  weight_image_.resize(weights_.size());
  weights_.live().decode_into(weight_image_);
  if (weight_detector_) {
    for (std::size_t layer = 0; layer < layer_ranges_.size(); ++layer) {
      const auto [begin, end] = layer_ranges_[layer];
      weight_detector_->filter_all(
          layer, std::span<float>(weight_image_).subspan(begin, end - begin));
    }
  }
  if ((ops_->dense_wants_transposed || ops_->conv_wants_transposed) &&
      wt_words_ > 0) {
    // Rebuild the transposed weight caches: dense wt[i][o] and conv
    // wt[ic][kh][kw][oc], both contiguous across output channels so
    // SIMD lanes read neighboring output weights with one vector load.
    // O(weights), amortized over every inference until the next fault
    // injection.
    wt_cache_.resize(wt_words_);
    for (const Op& op : program_) {
      const float* w = weight_image_.data() + op.param_begin;
      float* wt = wt_cache_.data() + op.wt_begin;
      if (op.kind == LayerKind::kDense && ops_->dense_wants_transposed)
        kernels::transpose(w, wt, op.out_f, op.in_f);
      else if (op.kind == LayerKind::kConv2D && ops_->conv_wants_transposed)
        kernels::transpose(w, wt, op.conv.out_c,
                           op.conv.in_c * op.conv.kernel * op.conv.kernel);
    }
  }
  weights_dirty_ = false;
}

Tensor QuantizedInferenceEngine::infer(const Tensor& input, Rng& rng) {
  if (input.shape() != input_shape_)
    throw std::invalid_argument("infer: input shape mismatch");
  if (weights_dirty_) load_weights();

  // Input buffer: quantize, then dynamic faults.
  float* cur = buf_a_.data();
  float* nxt = buf_b_.data();
  std::size_t count = input.size();
  std::copy(input.values().begin(), input.values().end(), cur);
  quantize_values(std::span<float>(cur, count), format_);
  if (input_ber_ > 0.0)
    inject_transient_values(std::span<float>(cur, count), format_, input_ber_,
                            rng);
  enforce_stuck_values(std::span<float>(cur, count), format_, input_stuck_);

  // Kernel-program execution; Conv/Dense outputs are writes into the
  // quantized activation buffer (quantized on write). ReLU, MaxPool and
  // Flatten only select/copy already-quantized values, so re-quantizing
  // them is the identity and is skipped. Activation *faults* target the
  // ReLU feature maps -- the tensors a real accelerator parks in its
  // big activation SRAM (the paper injects "in ReLU activation");
  // pooling indices and the final Q-head live in datapath registers.
  const float* wimg = weight_image_.data();
  for (const Op& op : program_) {
    switch (op.kind) {
      case LayerKind::kConv2D:
        ops_->conv2d(wimg + op.param_begin,
                     ops_->conv_wants_transposed
                         ? wt_cache_.data() + op.wt_begin
                         : nullptr,
                     wimg + op.param_begin + op.weight_count, cur, nxt,
                     op.conv);
        count = op.out_shape.element_count();
        quantize_values(std::span<float>(nxt, count), format_);
        std::swap(cur, nxt);
        break;
      case LayerKind::kDense:
        ops_->dense(wimg + op.param_begin,
                    ops_->dense_wants_transposed
                        ? wt_cache_.data() + op.wt_begin
                        : nullptr,
                    wimg + op.param_begin + op.weight_count, cur, nxt,
                    op.in_f, op.out_f);
        count = static_cast<std::size_t>(op.out_f);
        quantize_values(std::span<float>(nxt, count), format_);
        std::swap(cur, nxt);
        break;
      case LayerKind::kReLU: {
        ops_->relu(cur, count);
        const std::span<float> values(cur, count);
        if (activation_ber_ > 0.0)
          inject_transient_values(values, format_, activation_ber_, rng);
        enforce_stuck_values(values, format_, activation_stuck_);
        break;
      }
      case LayerKind::kMaxPool2D:
        kernels::maxpool2d(cur, nxt, op.in_shape.channels, op.in_shape.height,
                           op.in_shape.width, op.window);
        count = op.out_shape.element_count();
        std::swap(cur, nxt);
        break;
      case LayerKind::kFlatten:
        break;  // CHW data is already flat; pure shape bookkeeping
    }
  }

  const Shape out_shape =
      program_.empty() ? input_shape_ : program_.back().out_shape;
  Tensor out(out_shape);
  std::copy(cur, cur + count, out.data());
  return out;
}

std::size_t QuantizedInferenceEngine::act(const Tensor& input, Rng& rng) {
  return infer(input, rng).argmax();
}

}  // namespace ftnav

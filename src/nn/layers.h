#pragma once
// NN layers with forward and backward passes.
//
// The layer zoo covers exactly what the paper's policies need: Conv2D,
// ReLU, MaxPool2D, Flatten and Dense. Parameters of a layer live in one
// contiguous float vector (weights then biases) so the quantized engine
// can map every parametered layer onto a slice of the accelerator's
// weight buffer and target faults at "Conv1" vs "FC2" (Fig. 7d).

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace ftnav {

enum class LayerKind : std::uint8_t {
  kConv2D,
  kReLU,
  kMaxPool2D,
  kFlatten,
  kDense,
};

std::string to_string(LayerKind kind);

/// Abstract layer. Forward caches whatever backward needs; backward
/// consumes the loss gradient w.r.t. the output and returns the gradient
/// w.r.t. the input while accumulating parameter gradients.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual LayerKind kind() const noexcept = 0;
  /// Output shape for a given (validated) input shape; throws
  /// std::invalid_argument when the input shape is unsupported.
  virtual Shape output_shape(const Shape& in) const = 0;

  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Parameters as a flat mutable span (weights then biases); empty for
  /// parameter-free layers.
  virtual std::span<float> parameters() { return {}; }
  virtual std::span<const float> parameters() const { return {}; }
  virtual std::span<float> gradients() { return {}; }

  /// SGD step: params -= lr * grads, then clears the gradients.
  virtual void apply_gradients(float /*lr*/) {}
  virtual void zero_gradients() {}

  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Display label ("Conv1", "FC2", ...) used in figure axes.
  const std::string& label() const noexcept { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

 protected:
  std::string label_;
};

/// 2-D convolution (no padding, square kernel, square stride).
class Conv2D final : public Layer {
 public:
  /// He-normal initialization from `rng`.
  Conv2D(int in_channels, int out_channels, int kernel, int stride, Rng& rng);

  LayerKind kind() const noexcept override { return LayerKind::kConv2D; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::span<float> parameters() override { return params_; }
  std::span<const float> parameters() const override { return params_; }
  std::span<float> gradients() override { return grads_; }
  void apply_gradients(float lr) override;
  void zero_gradients() override;
  std::unique_ptr<Layer> clone() const override;

  int in_channels() const noexcept { return in_channels_; }
  int out_channels() const noexcept { return out_channels_; }
  int kernel() const noexcept { return kernel_; }
  int stride() const noexcept { return stride_; }

 private:
  std::size_t weight_index(int oc, int ic, int kh, int kw) const noexcept;

  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  std::vector<float> params_;  // weights then biases
  std::vector<float> grads_;
  Tensor cached_input_;
  std::vector<float> wt_scratch_;  // forward's transposed weights
};

/// Rectified linear unit.
class ReLU final : public Layer {
 public:
  LayerKind kind() const noexcept override { return LayerKind::kReLU; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor cached_input_;
};

/// Non-overlapping max pooling with a square window.
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(int window);

  LayerKind kind() const noexcept override { return LayerKind::kMaxPool2D; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

  int window() const noexcept { return window_; }

 private:
  int window_;
  Shape cached_input_shape_{};
  std::vector<std::size_t> argmax_;  // flat input index per output cell
};

/// Reshapes CHW into a flat vector.
class Flatten final : public Layer {
 public:
  LayerKind kind() const noexcept override { return LayerKind::kFlatten; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_input_shape_{};
};

/// Fully connected layer on flat inputs.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, Rng& rng);

  LayerKind kind() const noexcept override { return LayerKind::kDense; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::span<float> parameters() override { return params_; }
  std::span<const float> parameters() const override { return params_; }
  std::span<float> gradients() override { return grads_; }
  void apply_gradients(float lr) override;
  void zero_gradients() override;
  std::unique_ptr<Layer> clone() const override;

  int in_features() const noexcept { return in_features_; }
  int out_features() const noexcept { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  std::vector<float> params_;  // row-major [out][in] weights, then biases
  std::vector<float> grads_;
  Tensor cached_input_;
};

}  // namespace ftnav

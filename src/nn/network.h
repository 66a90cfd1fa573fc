#pragma once
// Sequential network container.
//
// Owns a stack of layers, runs forward/backward, performs SGD updates,
// and exposes the *parametered-layer* view the fault experiments need:
// the concatenation of all layer parameters is the accelerator's weight
// buffer, and `parametered_layer(i)` names the slice belonging to
// "Conv1" ... "FC2".

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"

namespace ftnav {

class Network {
 public:
  Network() = default;
  Network(const Network& other);
  Network& operator=(const Network& other);
  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  /// Appends a layer; returns a reference for optional labeling.
  Layer& add(std::unique_ptr<Layer> layer);

  std::size_t layer_count() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Validates shapes through the whole stack; throws on mismatch.
  Shape output_shape(const Shape& input_shape) const;

  /// Forward pass through every layer (caches for backward). Each
  /// layer reads the previous layer's output buffer in place; the
  /// result is the last layer's, valid until its next forward() or
  /// infer() (`input` itself when the network is empty).
  const Tensor& forward(const Tensor& input);

  /// forward()'s output, bit for bit, caching nothing: every layer runs
  /// infer(), so a backward() after it grades the last forward()'s
  /// input. For evaluations that are never graded (action choice,
  /// bootstrap targets).
  const Tensor& infer(const Tensor& input);

  /// Backward pass from the loss gradient w.r.t. the network output;
  /// accumulates parameter gradients in each layer. The first layer
  /// runs backward_parameters(), so a Conv2D there computes no input
  /// gradient (no caller reads one). Returns the gradient w.r.t. the
  /// first layer's output, the second layer's input-gradient buffer,
  /// valid until its next backward() (`grad_output` itself with fewer
  /// than two layers).
  const Tensor& backward(const Tensor& grad_output);

  /// SGD step on every layer, clearing gradients.
  void apply_gradients(float lr);
  void zero_gradients();

  /// Total number of parameters across all layers.
  std::size_t parameter_count() const noexcept;

  /// Copies all parameters into / out of a flat vector (weight-buffer
  /// order: layers in sequence, each layer's weights then biases).
  std::vector<float> snapshot_parameters() const;
  void restore_parameters(std::span<const float> flat);

  /// Copies accumulated gradients into a flat vector (same layout as
  /// snapshot_parameters). Used by quantization-aware trainers that
  /// keep a float master copy outside the network.
  std::vector<float> snapshot_gradients() const;

  /// Allocation-free variants for hot training loops; `out` must have
  /// exactly parameter_count() elements.
  void copy_parameters_into(std::span<float> out) const;
  void copy_gradients_into(std::span<float> out) const;

  /// Indices (into the layer stack) of layers that own parameters.
  std::vector<std::size_t> parametered_layers() const;

  /// Half-open range [begin, end) of parametered layer `i`'s slice in
  /// the flat parameter vector.
  std::pair<std::size_t, std::size_t> parameter_range(
      std::size_t parametered_index) const;

  /// Labels of parametered layers, in order ("Conv1", ..., "FC2").
  std::vector<std::string> parametered_labels() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace ftnav

#include "nn/network.h"

#include <stdexcept>

namespace ftnav {

Network::Network(const Network& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Network& Network::operator=(const Network& other) {
  if (this == &other) return *this;
  Network copy(other);
  layers_ = std::move(copy.layers_);
  return *this;
}

Layer& Network::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Shape Network::output_shape(const Shape& input_shape) const {
  Shape shape = input_shape;
  for (const auto& layer : layers_) shape = layer->output_shape(shape);
  return shape;
}

const Tensor& Network::forward(const Tensor& input) {
  const Tensor* x = &input;
  for (auto& layer : layers_) x = &layer->forward(*x);
  return *x;
}

const Tensor& Network::infer(const Tensor& input) {
  const Tensor* x = &input;
  for (auto& layer : layers_) x = &layer->infer(*x);
  return *x;
}

const Tensor& Network::backward(const Tensor& grad_output) {
  const Tensor* g = &grad_output;
  for (std::size_t i = layers_.size(); i > 1; --i)
    g = &layers_[i - 1]->backward(*g);
  if (!layers_.empty()) layers_.front()->backward_parameters(*g);
  return *g;
}

void Network::apply_gradients(float lr) {
  for (auto& layer : layers_) layer->apply_gradients(lr);
}

void Network::zero_gradients() {
  for (auto& layer : layers_) layer->zero_gradients();
}

std::size_t Network::parameter_count() const noexcept {
  std::size_t count = 0;
  for (const auto& layer : layers_) count += layer->parameters().size();
  return count;
}

std::vector<float> Network::snapshot_parameters() const {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (const auto& layer : layers_) {
    const auto params = layer->parameters();
    flat.insert(flat.end(), params.begin(), params.end());
  }
  return flat;
}

void Network::copy_parameters_into(std::span<float> out) const {
  if (out.size() != parameter_count())
    throw std::invalid_argument("copy_parameters_into: size mismatch");
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const auto params = layer->parameters();
    for (std::size_t i = 0; i < params.size(); ++i) out[offset + i] = params[i];
    offset += params.size();
  }
}

void Network::copy_gradients_into(std::span<float> out) const {
  if (out.size() != parameter_count())
    throw std::invalid_argument("copy_gradients_into: size mismatch");
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const auto grads = layer->gradients();
    for (std::size_t i = 0; i < grads.size(); ++i) out[offset + i] = grads[i];
    offset += grads.size();
  }
}

void Network::restore_parameters(std::span<const float> flat) {
  if (flat.size() != parameter_count())
    throw std::invalid_argument("Network::restore_parameters: size mismatch");
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    auto params = layer->parameters();
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i] = flat[offset + i];
    offset += params.size();
  }
}

std::vector<std::size_t> Network::parametered_layers() const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < layers_.size(); ++i)
    if (!layers_[i]->parameters().empty()) indices.push_back(i);
  return indices;
}

std::pair<std::size_t, std::size_t> Network::parameter_range(
    std::size_t parametered_index) const {
  std::size_t offset = 0;
  std::size_t seen = 0;
  for (const auto& layer : layers_) {
    const std::size_t count = layer->parameters().size();
    if (count == 0) continue;
    if (seen == parametered_index) return {offset, offset + count};
    offset += count;
    ++seen;
  }
  throw std::out_of_range("Network::parameter_range");
}

std::vector<std::string> Network::parametered_labels() const {
  std::vector<std::string> labels;
  for (const auto& layer : layers_) {
    if (layer->parameters().empty()) continue;
    labels.push_back(layer->label().empty() ? to_string(layer->kind())
                                            : layer->label());
  }
  return labels;
}

}  // namespace ftnav

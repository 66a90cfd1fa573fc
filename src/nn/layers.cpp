#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/kernels/kernels.h"

namespace ftnav {

std::string to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2D: return "Conv2D";
    case LayerKind::kReLU: return "ReLU";
    case LayerKind::kMaxPool2D: return "MaxPool2D";
    case LayerKind::kFlatten: return "Flatten";
    case LayerKind::kDense: return "Dense";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0)
    throw std::invalid_argument("Conv2D: non-positive dimension");
  const std::size_t weight_count = static_cast<std::size_t>(out_channels) *
                                   in_channels * kernel * kernel;
  params_.resize(weight_count + static_cast<std::size_t>(out_channels));
  grads_.assign(params_.size(), 0.0f);
  const double fan_in = static_cast<double>(in_channels) * kernel * kernel;
  const double sigma = std::sqrt(2.0 / fan_in);
  for (std::size_t i = 0; i < weight_count; ++i)
    params_[i] = static_cast<float>(rng.normal(0.0, sigma));
  // Biases start at zero (already value-initialized by resize).
}

Shape Conv2D::output_shape(const Shape& in) const {
  if (in.channels != in_channels_)
    throw std::invalid_argument("Conv2D: channel mismatch");
  if (in.height < kernel_ || in.width < kernel_)
    throw std::invalid_argument("Conv2D: input smaller than kernel");
  return Shape{out_channels_, (in.height - kernel_) / stride_ + 1,
               (in.width - kernel_) / stride_ + 1};
}

const Tensor& Conv2D::forward(const Tensor& input) {
  (void)output_shape(input.shape());
  cached_input_ = input;
  return infer(input);
}

const Tensor& Conv2D::infer(const Tensor& input) {
  const Shape out_shape = output_shape(input.shape());
  Tensor& out = output_.shaped(out_shape);
  const kernels::KernelOps& ops = kernels::active();
  const std::size_t weight_count = params_.size() - out_channels_;
  if (ops.conv_wants_transposed) {
    // Rebuilt per call: callers write params_ through parameters()
    // between forwards, so a kept copy could go stale.
    wt_scratch_.resize(weight_count);
    ops.transpose(params_.data(), wt_scratch_.data(), out_channels_,
                  in_channels_ * kernel_ * kernel_);
  }
  ops.conv2d(params_.data(),
             ops.conv_wants_transposed ? wt_scratch_.data() : nullptr,
             params_.data() + weight_count, input.data(), out.data(),
             {in_channels_, input.shape().height, input.shape().width,
              out_channels_, out_shape.height, out_shape.width, kernel_,
              stride_});
  return out;
}

const Tensor& Conv2D::backward(const Tensor& grad_output) {
  if (cached_input_.empty())
    throw std::logic_error("Conv2D::backward before forward");
  // The kernel overwrites every element of the input gradient.
  Tensor& grad_input = grad_input_.shaped(cached_input_.shape());
  run_backward(grad_output, grad_input.data());
  return grad_input;
}

void Conv2D::backward_parameters(const Tensor& grad_output) {
  if (cached_input_.empty())
    throw std::logic_error("Conv2D::backward before forward");
  run_backward(grad_output, nullptr);
}

void Conv2D::run_backward(const Tensor& grad_output, float* grad_input) {
  const Shape out_shape = grad_output.shape();
  if (out_shape != output_shape(cached_input_.shape()))
    throw std::invalid_argument("Conv2D::backward: gradient shape mismatch");
  const Shape in_shape = cached_input_.shape();
  const kernels::ConvShape shape{in_channels_,    in_shape.height,
                                 in_shape.width,  out_channels_,
                                 out_shape.height, out_shape.width,
                                 kernel_,         stride_};
  // Dead between calls, so one buffer per thread serves every layer
  // and every copy of one; it only grows, to the largest need.
  thread_local std::vector<float> scratch;
  scratch.resize(
      std::max(scratch.size(), kernels::conv2d_backward_scratch(shape)));
  const std::size_t weight_count = params_.size() - out_channels_;
  kernels::active().conv2d_backward(
      params_.data(), cached_input_.data(), grad_output.data(), grads_.data(),
      grads_.data() + weight_count, grad_input, scratch.data(), shape);
}

void Conv2D::apply_gradients(float lr) {
  // Two passes: zero_gradients' fill clears faster than stores in the
  // update loop would.
  for (std::size_t i = 0; i < params_.size(); ++i)
    params_[i] -= lr * grads_[i];
  zero_gradients();
}

void Conv2D::zero_gradients() {
  std::fill(grads_.begin(), grads_.end(), 0.0f);
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::make_unique<Conv2D>(*this);
  return copy;
}

// ------------------------------------------------------------------ ReLU

Shape ReLU::output_shape(const Shape& in) const {
  if (!in.valid()) throw std::invalid_argument("ReLU: invalid input shape");
  return in;
}

const Tensor& ReLU::forward(const Tensor& input) {
  (void)output_shape(input.shape());
  cached_input_ = input;
  return infer(input);
}

const Tensor& ReLU::infer(const Tensor& input) {
  Tensor& out = output_.shaped(output_shape(input.shape()));
  std::copy(input.values().begin(), input.values().end(), out.data());
  kernels::active().relu(out.data(), out.size());
  return out;
}

const Tensor& ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.empty())
    throw std::logic_error("ReLU::backward before forward");
  if (grad_output.shape() != cached_input_.shape())
    throw std::invalid_argument("ReLU::backward: gradient shape mismatch");
  Tensor& grad_input = grad_input_.shaped(cached_input_.shape());
  kernels::active().relu_backward(cached_input_.data(), grad_output.data(),
                                  grad_input.data(), grad_output.size());
  return grad_input;
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>(*this);
}

// ------------------------------------------------------------- MaxPool2D

MaxPool2D::MaxPool2D(int window) : window_(window) {
  if (window <= 0) throw std::invalid_argument("MaxPool2D: window <= 0");
}

Shape MaxPool2D::output_shape(const Shape& in) const {
  if (in.height < window_ || in.width < window_)
    throw std::invalid_argument("MaxPool2D: input smaller than window");
  return Shape{in.channels, in.height / window_, in.width / window_};
}

const Tensor& MaxPool2D::forward(const Tensor& input) {
  argmax_.resize(output_shape(input.shape()).element_count());
  cached_input_shape_ = input.shape();
  return pool(input, argmax_.data());
}

const Tensor& MaxPool2D::infer(const Tensor& input) {
  return pool(input, nullptr);
}

const Tensor& MaxPool2D::pool(const Tensor& input, std::size_t* argmax) {
  const Shape in = input.shape();
  Tensor& out = output_.shaped(output_shape(in));
  kernels::active().maxpool2d(input.data(), out.data(), in.channels,
                              in.height, in.width, window_, argmax);
  return out;
}

const Tensor& MaxPool2D::backward(const Tensor& grad_output) {
  if (!cached_input_shape_.valid())
    throw std::logic_error("MaxPool2D::backward before forward");
  if (grad_output.shape() != output_shape(cached_input_shape_))
    throw std::invalid_argument("MaxPool2D::backward: gradient shape mismatch");
  Tensor& grad_input = grad_input_.zeroed(cached_input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i)
    grad_input[argmax_[i]] += grad_output[i];
  return grad_input;
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(*this);
}

// --------------------------------------------------------------- Flatten

Shape Flatten::output_shape(const Shape& in) const {
  if (!in.valid()) throw std::invalid_argument("Flatten: invalid input");
  return Shape{static_cast<int>(in.element_count()), 1, 1};
}

const Tensor& Flatten::forward(const Tensor& input) {
  (void)output_shape(input.shape());
  cached_input_shape_ = input.shape();
  return infer(input);
}

const Tensor& Flatten::infer(const Tensor& input) {
  Tensor& out = output_.shaped(output_shape(input.shape()));
  std::copy(input.values().begin(), input.values().end(), out.data());
  return out;
}

const Tensor& Flatten::backward(const Tensor& grad_output) {
  if (!cached_input_shape_.valid())
    throw std::logic_error("Flatten::backward before forward");
  if (grad_output.size() != cached_input_shape_.element_count())
    throw std::invalid_argument("Flatten::backward: gradient size mismatch");
  Tensor& grad_input = grad_input_.shaped(cached_input_shape_);
  std::copy(grad_output.values().begin(), grad_output.values().end(),
            grad_input.data());
  return grad_input;
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(*this);
}

// ----------------------------------------------------------------- Dense

Dense::Dense(int in_features, int out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  if (in_features <= 0 || out_features <= 0)
    throw std::invalid_argument("Dense: non-positive feature count");
  const std::size_t weight_count =
      static_cast<std::size_t>(in_features) * out_features;
  params_.resize(weight_count + static_cast<std::size_t>(out_features));
  grads_.assign(params_.size(), 0.0f);
  const double sigma = std::sqrt(2.0 / static_cast<double>(in_features));
  for (std::size_t i = 0; i < weight_count; ++i)
    params_[i] = static_cast<float>(rng.normal(0.0, sigma));
}

Shape Dense::output_shape(const Shape& in) const {
  if (static_cast<int>(in.element_count()) != in_features_)
    throw std::invalid_argument("Dense: input feature count mismatch");
  return Shape{out_features_, 1, 1};
}

const Tensor& Dense::forward(const Tensor& input) {
  (void)output_shape(input.shape());
  cached_input_ = input;
  return infer(input);
}

const Tensor& Dense::infer(const Tensor& input) {
  Tensor& out = output_.shaped(output_shape(input.shape()));
  const std::size_t weight_count = params_.size() - out_features_;
  // Row-major weights (no transposed copy): training updates them
  // between forwards.
  kernels::active().dense(params_.data(), nullptr,
                          params_.data() + weight_count, input.data(),
                          out.data(), in_features_, out_features_);
  return out;
}

const Tensor& Dense::backward(const Tensor& grad_output) {
  if (cached_input_.empty())
    throw std::logic_error("Dense::backward before forward");
  if (grad_output.shape() != Shape{out_features_, 1, 1})
    throw std::invalid_argument("Dense::backward: gradient shape mismatch");
  Tensor& grad_input = grad_input_.zeroed(cached_input_.shape());
  const std::size_t bias_base = params_.size() - out_features_;
  for (int o = 0; o < out_features_; ++o) {
    const float g = grad_output[static_cast<std::size_t>(o)];
    if (g == 0.0f) continue;
    grads_[bias_base + static_cast<std::size_t>(o)] += g;
    const std::size_t row = static_cast<std::size_t>(o) * in_features_;
    for (int i = 0; i < in_features_; ++i) {
      grads_[row + static_cast<std::size_t>(i)] += g * cached_input_[i];
      grad_input[static_cast<std::size_t>(i)] +=
          g * params_[row + static_cast<std::size_t>(i)];
    }
  }
  return grad_input;
}

void Dense::apply_gradients(float lr) {
  // Two passes: zero_gradients' fill clears faster than stores in the
  // update loop would.
  for (std::size_t i = 0; i < params_.size(); ++i)
    params_[i] -= lr * grads_[i];
  zero_gradients();
}

void Dense::zero_gradients() {
  std::fill(grads_.begin(), grads_.end(), 0.0f);
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(*this);
}

}  // namespace ftnav

#include "nn/tensor.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ftnav {

std::string Shape::to_string() const {
  std::ostringstream out;
  out << channels << "x" << height << "x" << width;
  return out.str();
}

Tensor::Tensor(Shape shape) : shape_(shape) {
  if (!shape.valid()) throw std::invalid_argument("Tensor: invalid shape");
  data_.assign(shape.element_count(), 0.0f);
}

Tensor::Tensor(std::size_t n)
    : Tensor(Shape{static_cast<int>(n), 1, 1}) {
  if (n == 0) throw std::invalid_argument("Tensor: zero length");
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
  if (!shape.valid()) throw std::invalid_argument("Tensor: invalid shape");
  if (data_.size() != shape.element_count())
    throw std::invalid_argument("Tensor: data size does not match shape");
}

float& Tensor::at(int c, int h, int w) {
  if (c < 0 || c >= shape_.channels || h < 0 || h >= shape_.height ||
      w < 0 || w >= shape_.width)
    throw std::out_of_range("Tensor::at");
  return data_[index(c, h, w)];
}

float Tensor::at(int c, int h, int w) const {
  return const_cast<Tensor*>(this)->at(c, h, w);
}

void Tensor::resize(Shape shape) {
  if (!shape.valid()) throw std::invalid_argument("Tensor: invalid shape");
  shape_ = shape;
  data_.resize(shape.element_count());
}

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

std::size_t Tensor::argmax() const noexcept {
  if (data_.empty()) return 0;
  return static_cast<std::size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

float Tensor::max_value() const noexcept {
  if (data_.empty()) return 0.0f;
  return *std::max_element(data_.begin(), data_.end());
}

}  // namespace ftnav

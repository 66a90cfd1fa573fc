#pragma once
// Minimal CHW float tensor used by the NN engine.
//
// The engine is deliberately scalar and explicit: the fault study needs
// a datapath whose buffers are visible and quantizable, not a fast
// BLAS. Values are row-major CHW, matching the accelerator layout the
// paper's fault model assumes (feature maps in the input buffer,
// filters in the weight buffer, outputs in the activation buffer).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ftnav {

/// Channel/height/width extents of a tensor.
struct Shape {
  int channels = 0;
  int height = 0;
  int width = 0;

  std::size_t element_count() const noexcept {
    return static_cast<std::size_t>(channels) *
           static_cast<std::size_t>(height) *
           static_cast<std::size_t>(width);
  }
  bool valid() const noexcept {
    return channels > 0 && height > 0 && width > 0;
  }
  bool operator==(const Shape&) const noexcept = default;
  std::string to_string() const;
};

class Tensor {
 public:
  Tensor() = default;
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  /// 1-D convenience constructor (shape {n, 1, 1}).
  explicit Tensor(std::size_t n);
  Tensor(Shape shape, std::vector<float> data);

  const Shape& shape() const noexcept { return shape_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::span<float> values() noexcept { return data_; }
  std::span<const float> values() const noexcept { return data_; }

  float& operator[](std::size_t i) noexcept { return data_[i]; }
  float operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Bounds-checked CHW accessors.
  float& at(int c, int h, int w);
  float at(int c, int h, int w) const;

  /// Unchecked CHW accessors for hot loops.
  float& ref(int c, int h, int w) noexcept {
    return data_[index(c, h, w)];
  }
  float get(int c, int h, int w) const noexcept {
    return data_[index(c, h, w)];
  }

  /// Gives the tensor `shape`, keeping its storage when that is large
  /// enough, so a buffer reused call after call allocates only when it
  /// first grows. Element values are unspecified until written; throws
  /// std::invalid_argument for an invalid shape.
  void resize(Shape shape);

  void fill(float value) noexcept;
  /// Index of the maximum element (0 for an empty tensor).
  std::size_t argmax() const noexcept;
  float max_value() const noexcept;

 private:
  std::size_t index(int c, int h, int w) const noexcept {
    return (static_cast<std::size_t>(c) * static_cast<std::size_t>(shape_.height) +
            static_cast<std::size_t>(h)) *
               static_cast<std::size_t>(shape_.width) +
           static_cast<std::size_t>(w);
  }

  Shape shape_{};
  std::vector<float> data_;
};

}  // namespace ftnav

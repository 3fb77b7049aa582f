// Core dense tensor type for the Edge-LLM reproduction.
//
// Design: a contiguous, row-major, float32 tensor with value semantics.
// There is intentionally no autograd tape; neural-network modules in
// src/nn implement explicit forward/backward passes, which lets the
// adaptive-layer tuner (src/core) skip activation caching below the
// backpropagation depth — the paper's memory-saving mechanism.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace edgellm {

/// Shape of a tensor; each extent must be >= 0.
using Shape = std::vector<int64_t>;

/// Returns the number of elements a shape describes (product of extents).
int64_t shape_numel(const Shape& shape);

/// Human-readable form, e.g. "[2, 3, 4]".
std::string shape_to_string(const Shape& shape);

/// Dense row-major float32 tensor with value semantics.
///
/// Invariants: data().size() == shape_numel(shape()); all extents >= 0.
class Tensor {
 public:
  /// Empty 0-d tensor with one element (scalar zero).
  Tensor();

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape filled with `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor of the given shape adopting `values` (size must match).
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }

  /// 1-d tensor from a list of values.
  static Tensor from_values(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  /// Extent along dimension `i`; negative `i` counts from the back.
  int64_t dim(int64_t i) const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  // Bounds-checked element access for small-dimensional tensors.
  float& at(int64_t i);
  float at(int64_t i) const;
  float& at(int64_t i, int64_t j);
  float at(int64_t i, int64_t j) const;
  float& at(int64_t i, int64_t j, int64_t k);
  float at(int64_t i, int64_t j, int64_t k) const;

  // Unchecked fast access (used by inner loops in ops.cpp).
  float& operator[](int64_t linear) { return data_[static_cast<size_t>(linear)]; }
  float operator[](int64_t linear) const { return data_[static_cast<size_t>(linear)]; }

  /// Returns a tensor with the same data viewed under a new shape.
  /// The element counts must match.
  Tensor reshape(Shape new_shape) const;

  /// Sets every element to `v`.
  void fill(float v);

  /// Scalar value of a one-element tensor.
  float item() const;

  /// True if shapes and all elements are equal.
  bool equals(const Tensor& other) const;

  /// True if shapes are equal and elements differ by at most `tol`.
  bool allclose(const Tensor& other, float tol = 1e-5f) const;

  std::string to_string(int64_t max_elems = 32) const;

 private:
  Shape shape_;
  std::vector<float> data_;

  int64_t linear_index(int64_t i, int64_t j) const;
  int64_t linear_index(int64_t i, int64_t j, int64_t k) const;
};

/// Throws std::invalid_argument(msg); out of line so check_arg stays small.
[[noreturn]] void throw_invalid_argument(const char* msg);
[[noreturn]] void throw_invalid_argument(const std::string& msg);

/// Throwing check helper used across the library: throws std::invalid_argument
/// with `msg` when `cond` is false. A literal binds the const char* overload,
/// so a passing check builds no std::string. A message that has to be
/// formatted belongs on the failing branch instead
/// (`if (!cond) throw std::invalid_argument(...)`): check_arg's argument is
/// built before the call, whether or not the check fails.
inline void check_arg(bool cond, const char* msg) {
  if (!cond) [[unlikely]] throw_invalid_argument(msg);
}
inline void check_arg(bool cond, const std::string& msg) {
  if (!cond) [[unlikely]] throw_invalid_argument(msg);
}

}  // namespace edgellm

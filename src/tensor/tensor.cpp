#include "tensor/tensor.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace edgellm {

void throw_invalid_argument(const char* msg) { throw std::invalid_argument(msg); }

void throw_invalid_argument(const std::string& msg) { throw std::invalid_argument(msg); }

int64_t shape_numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    check_arg(d >= 0, "shape extents must be non-negative");
    n *= d;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor() : shape_{}, data_(1, 0.0f) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(static_cast<size_t>(shape_numel(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(static_cast<size_t>(shape_numel(shape_)), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (static_cast<int64_t>(data_.size()) != shape_numel(shape_)) {
    throw std::invalid_argument("value count does not match shape " + shape_to_string(shape_));
  }
}

Tensor Tensor::from_values(std::initializer_list<float> values) {
  return Tensor({static_cast<int64_t>(values.size())}, std::vector<float>(values));
}

int64_t Tensor::dim(int64_t i) const {
  const int64_t n = ndim();
  if (i < 0) i += n;
  check_arg(i >= 0 && i < n, "dimension index out of range");
  return shape_[static_cast<size_t>(i)];
}

float& Tensor::at(int64_t i) {
  check_arg(ndim() == 1, "at(i) requires a 1-d tensor");
  check_arg(i >= 0 && i < shape_[0], "index out of range");
  return data_[static_cast<size_t>(i)];
}

float Tensor::at(int64_t i) const { return const_cast<Tensor*>(this)->at(i); }

int64_t Tensor::linear_index(int64_t i, int64_t j) const {
  check_arg(ndim() == 2, "at(i,j) requires a 2-d tensor");
  check_arg(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1], "index out of range");
  return i * shape_[1] + j;
}

int64_t Tensor::linear_index(int64_t i, int64_t j, int64_t k) const {
  check_arg(ndim() == 3, "at(i,j,k) requires a 3-d tensor");
  check_arg(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 && k < shape_[2],
            "index out of range");
  return (i * shape_[1] + j) * shape_[2] + k;
}

float& Tensor::at(int64_t i, int64_t j) { return data_[static_cast<size_t>(linear_index(i, j))]; }
float Tensor::at(int64_t i, int64_t j) const {
  return data_[static_cast<size_t>(linear_index(i, j))];
}
float& Tensor::at(int64_t i, int64_t j, int64_t k) {
  return data_[static_cast<size_t>(linear_index(i, j, k))];
}
float Tensor::at(int64_t i, int64_t j, int64_t k) const {
  return data_[static_cast<size_t>(linear_index(i, j, k))];
}

Tensor Tensor::reshape(Shape new_shape) const {
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("reshape element count mismatch: " + shape_to_string(shape_) +
                                " -> " + shape_to_string(new_shape));
  }
  Tensor out(std::move(new_shape), data_);
  return out;
}

void Tensor::fill(float v) {
  for (float& x : data_) x = v;
}

float Tensor::item() const {
  check_arg(numel() == 1, "item() requires a single-element tensor");
  return data_[0];
}

bool Tensor::equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

bool Tensor::allclose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Tensor::to_string(int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << shape_to_string(shape_) << " {";
  const int64_t n = std::min<int64_t>(numel(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (numel() > n) os << ", ...";
  os << '}';
  return os.str();
}

}  // namespace edgellm

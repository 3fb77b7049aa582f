#include "nn/norm.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace edgellm::nn {

RmsNorm::RmsNorm(std::string name, int64_t dim, float eps)
    : name_(std::move(name)), dim_(dim), eps_(eps) {
  check_arg(dim_ > 0, "RmsNorm: dim must be positive");
  check_arg(eps_ > 0.0f, "RmsNorm: eps must be positive");
  gain_ = Param(name_ + ".gain", Tensor({dim_}, 1.0f));
}

Tensor RmsNorm::forward(const Tensor& x) {
  if (x.dim(-1) != dim_) throw std::invalid_argument(name_ + ": feature mismatch");
  const int64_t rows = x.numel() / dim_;
  std::vector<float> inv;
  Tensor y = ops::rms_norm_lastdim(x, gain_.value, eps_, &inv);
  if (grad_enabled_) {
    cached_input_ = x.reshape({rows, dim_});
    cached_x_shape_ = x.shape();
    inv_rms_ = std::move(inv);
    has_cache_ = true;
  }
  return y;
}

Tensor RmsNorm::backward(const Tensor& grad_out) {
  if (!grad_enabled_ || !has_cache_) {
    throw std::invalid_argument(name_ + ": backward without cached forward");
  }
  if (grad_out.shape() != cached_x_shape_) {
    throw std::invalid_argument(name_ + ": grad shape mismatch");
  }
  const int64_t rows = cached_input_.dim(0);
  Tensor gx(cached_x_shape_);
  // y_i = g_i * x_i * r with r = (mean(x^2)+eps)^{-1/2}:
  //   dL/dx_j = r * g_j * go_j - (r^3 * x_j / n) * sum_i(go_i * g_i * x_i)
  //   dL/dg_i = go_i * x_i * r
  Tensor& gg = gain_.grad_buffer();
  for (int64_t r = 0; r < rows; ++r) {
    const float ir = inv_rms_[static_cast<size_t>(r)];
    double dot = 0.0;
    for (int64_t d = 0; d < dim_; ++d) {
      const float go = grad_out[r * dim_ + d];
      const float x = cached_input_[r * dim_ + d];
      dot += static_cast<double>(go) * gain_.value[d] * x;
      gg[d] += go * x * ir;
    }
    const float c = static_cast<float>(dot) * ir * ir * ir / static_cast<float>(dim_);
    for (int64_t d = 0; d < dim_; ++d) {
      const float go = grad_out[r * dim_ + d];
      const float x = cached_input_[r * dim_ + d];
      gx[r * dim_ + d] = ir * gain_.value[d] * go - c * x;
    }
  }
  return gx;
}

void RmsNorm::collect_params(std::vector<Param*>& out) { out.push_back(&gain_); }

int64_t RmsNorm::cached_activation_bytes() const {
  if (!has_cache_) return 0;
  return tensor_bytes(cached_input_) +
         static_cast<int64_t>(inv_rms_.size() * sizeof(float));
}

void RmsNorm::clear_cache() {
  has_cache_ = false;
  cached_input_ = Tensor();
  inv_rms_.clear();
}

}  // namespace edgellm::nn

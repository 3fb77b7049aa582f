#include "nn/linear.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace edgellm::nn {

Linear::Linear(std::string name, int64_t in_features, int64_t out_features, bool bias, Rng& rng)
    : name_(std::move(name)), in_(in_features), out_(out_features) {
  check_arg(in_ > 0 && out_ > 0, "Linear: features must be positive");
  const float bound = 1.0f / std::sqrt(static_cast<float>(in_));
  weight_ = Param(name_ + ".weight", rand_uniform({out_, in_}, rng, -bound, bound));
  if (bias) bias_ = Param(name_ + ".bias", rand_uniform({out_}, rng, -bound, bound));
}

Tensor Linear::effective_weight() const {
  if (!mask_ && !qspec_) return weight_.value;
  Tensor w = mask_ ? prune::apply_mask(weight_.value, *mask_) : weight_.value;
  if (qspec_) w = quant::fake_quant(w, *qspec_);
  return w;
}

bool Linear::packable() const {
  return qspec_.has_value() && qspec_->symmetric &&
         qspec_->granularity == quant::Granularity::kPerRow &&
         (qspec_->bits == 4 || qspec_->bits == 8) && !lora_enabled();
}

quant::PackedMatrix Linear::packed_weight() const {
  check_arg(packable(), name_ + ": weight is not packable under the current policy");
  const Tensor w = mask_ ? prune::apply_mask(weight_.value, *mask_) : weight_.value;
  return quant::PackedMatrix::pack(w, qspec_->bits);
}

Tensor Linear::forward(const Tensor& x) {
  if (x.dim(-1) != in_) throw std::invalid_argument(name_ + ": input feature mismatch");
  const int64_t rows = x.numel() / in_;
  const Tensor x2 = x.reshape({rows, in_});
  const Tensor w = effective_weight();
  Tensor y = ops::matmul_nt(x2, w);  // [rows, out]
  if (bias_) y = ops::add_bias(y, bias_->value);
  if (lora_a_) {
    const Tensor u = ops::matmul_nt(x2, lora_a_->value);      // [rows, rank]
    ops::axpy_inplace(y, lora_scale_, ops::matmul_nt(u, lora_b_->value));
  }

  if (grad_enabled_) {
    cached_input_ = x2;
    cached_x_shape_ = x.shape();
    has_cache_ = true;
  }

  Shape out_shape = x.shape();
  out_shape.back() = out_;
  return y.reshape(std::move(out_shape));
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (!grad_enabled_ || !has_cache_) {
    throw std::invalid_argument(name_ + ": backward without cached forward");
  }
  if (grad_out.dim(-1) != out_) throw std::invalid_argument(name_ + ": grad feature mismatch");
  const int64_t rows = grad_out.numel() / out_;
  if (rows != cached_input_.dim(0)) throw std::invalid_argument(name_ + ": grad row mismatch");
  const Tensor g2 = grad_out.reshape({rows, out_});

  // dW = g^T x; STE passes the quant grad through unchanged, the prune mask
  // zeroes grads of pruned weights.
  Tensor dw = ops::matmul_tn(g2, cached_input_);  // [out, in]
  if (mask_) dw = prune::apply_mask(dw, *mask_);
  ops::add_inplace(weight_.grad_buffer(), dw);

  if (bias_) {
    // Columns are disjoint and each accumulates over ascending r, so the
    // partition is bitwise identical to the serial (r, j) loop.
    float* bg = bias_->grad_buffer().raw();
    const float* pg = g2.raw();
    const int64_t out = out_;
    parallel::parallel_for(0, out, 64, [=](int64_t lo, int64_t hi) {
      for (int64_t j = lo; j < hi; ++j) {
        for (int64_t r = 0; r < rows; ++r) bg[j] += pg[r * out + j];
      }
    });
  }

  // dX = g * W_eff (the forward used the effective weight).
  const Tensor w = effective_weight();
  Tensor gx = ops::matmul(g2, w);  // [rows, in]

  if (lora_a_) {
    // y += s * (x A^T) B^T with A [r, in], B [out, r].
    const Tensor u = ops::matmul_nt(cached_input_, lora_a_->value);  // [rows, r]
    ops::axpy_inplace(lora_b_->grad_buffer(), lora_scale_, ops::matmul_tn(g2, u));
    const Tensor du = ops::scale(ops::matmul(g2, lora_b_->value), lora_scale_);  // [rows, r]
    ops::add_inplace(lora_a_->grad_buffer(), ops::matmul_tn(du, cached_input_));
    ops::add_inplace(gx, ops::matmul(du, lora_a_->value));
  }
  return gx.reshape(cached_x_shape_);
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(&*bias_);
  if (lora_a_) {
    out.push_back(&*lora_a_);
    out.push_back(&*lora_b_);
  }
}

void Linear::enable_lora(int64_t rank, float alpha, Rng& rng) {
  check_arg(rank > 0 && rank <= std::min(in_, out_), "enable_lora: invalid rank");
  check_arg(alpha > 0.0f, "enable_lora: alpha must be positive");
  lora_a_ = Param(name_ + ".lora_a", randn({rank, in_}, rng, 0.0f, 0.02f));
  lora_b_ = Param(name_ + ".lora_b", Tensor({out_, rank}));
  lora_scale_ = alpha / static_cast<float>(rank);
}

void Linear::disable_lora() {
  lora_a_.reset();
  lora_b_.reset();
  lora_scale_ = 0.0f;
}

int64_t Linear::cached_activation_bytes() const {
  return has_cache_ ? tensor_bytes(cached_input_) : 0;
}

void Linear::clear_cache() {
  has_cache_ = false;
  cached_input_ = Tensor();
}

void Linear::set_quant(std::optional<quant::QuantSpec> spec) {
  if (spec) quant::validate_spec(*spec);
  qspec_ = std::move(spec);
}

void Linear::set_prune(std::optional<prune::PruneSpec> spec) {
  if (spec) {
    prune::validate_spec(*spec);
    pspec_ = *spec;
    mask_ = prune::magnitude_mask(weight_.value, *spec);
  } else {
    pspec_.reset();
    mask_.reset();
  }
}

void Linear::set_prune_mask(Tensor mask) {
  check_arg(mask.shape() == weight_.value.shape(), "set_prune_mask: shape mismatch");
  for (int64_t i = 0; i < mask.numel(); ++i) {
    check_arg(mask[i] == 0.0f || mask[i] == 1.0f, "set_prune_mask: mask must be 0/1");
  }
  prune::PruneSpec spec;  // records the measured sparsity of the explicit mask
  spec.sparsity = prune::measured_sparsity(mask);
  pspec_ = spec;
  mask_ = std::move(mask);
}

void Linear::clear_compression() {
  qspec_.reset();
  pspec_.reset();
  mask_.reset();
}

double Linear::weight_storage_bytes() const {
  if (qspec_ && mask_) {
    return prune::sparse_storage_bytes(*mask_, qspec_->bits);
  }
  if (qspec_) return quant::storage_bytes(weight_.value, *qspec_);
  if (mask_) return prune::sparse_storage_bytes(*mask_, 16);
  return quant::fp16_storage_bytes(weight_.value);
}

}  // namespace edgellm::nn

#include "nn/mlp.hpp"

#include "tensor/ops.hpp"

namespace edgellm::nn {

Mlp::Mlp(std::string name, int64_t d_model, int64_t d_ff, Rng& rng, MlpKind kind)
    : name_(std::move(name)), kind_(kind) {
  check_arg(d_model > 0 && d_ff > 0, "Mlp: dims must be positive");
  const bool bias = kind_ == MlpKind::kGelu;
  fc1_ = std::make_unique<Linear>(name_ + ".fc1", d_model, d_ff, bias, rng);
  fc2_ = std::make_unique<Linear>(name_ + ".fc2", d_ff, d_model, bias, rng);
  if (kind_ == MlpKind::kSwiGlu) {
    fc3_ = std::make_unique<Linear>(name_ + ".fc3", d_model, d_ff, /*bias=*/false, rng);
  }
}

Tensor Mlp::forward(const Tensor& x) {
  fc1_->set_grad_enabled(grad_enabled_);
  fc2_->set_grad_enabled(grad_enabled_);
  if (fc3_) fc3_->set_grad_enabled(grad_enabled_);

  if (kind_ == MlpKind::kGelu) {
    Tensor h = fc1_->forward(x);
    Tensor a = ops::gelu(h);
    if (grad_enabled_) {
      pre_act_ = std::move(h);
      has_cache_ = true;
    }
    return fc2_->forward(a);
  }

  // SwiGLU: down(silu(gate(x)) * up(x)), fused gate-up product.
  Tensor g = fc1_->forward(x);
  Tensor u = fc3_->forward(x);
  Tensor a = ops::swiglu(g, u);
  if (grad_enabled_) {
    pre_act_ = std::move(g);
    up_ = std::move(u);
    has_cache_ = true;
  }
  return fc2_->forward(a);
}

Tensor Mlp::backward(const Tensor& grad_out) {
  if (!grad_enabled_ || !has_cache_) {
    throw std::invalid_argument(name_ + ": backward without cached forward");
  }
  const Tensor grad_a = fc2_->backward(grad_out);

  if (kind_ == MlpKind::kGelu) {
    const Tensor grad_h = ops::gelu_grad(pre_act_, grad_a);
    return fc1_->backward(grad_h);
  }

  // a = silu(g) * u:
  //   dL/du = grad_a * silu(g)
  //   dL/dg = grad_a * u * silu'(g)
  const Tensor silu_g = ops::silu(pre_act_);
  const Tensor grad_u = ops::mul(grad_a, silu_g);
  const Tensor grad_g = ops::silu_grad(pre_act_, ops::mul(grad_a, up_));
  Tensor gx = fc1_->backward(grad_g);
  ops::add_inplace(gx, fc3_->backward(grad_u));
  return gx;
}

void Mlp::collect_params(std::vector<Param*>& out) {
  fc1_->collect_params(out);
  fc2_->collect_params(out);
  if (fc3_) fc3_->collect_params(out);
}

int64_t Mlp::cached_activation_bytes() const {
  int64_t bytes = fc1_->cached_activation_bytes() + fc2_->cached_activation_bytes();
  if (fc3_) bytes += fc3_->cached_activation_bytes();
  if (has_cache_) {
    bytes += tensor_bytes(pre_act_);
    if (kind_ == MlpKind::kSwiGlu) bytes += tensor_bytes(up_);
  }
  return bytes;
}

void Mlp::clear_cache() {
  has_cache_ = false;
  pre_act_ = Tensor();
  up_ = Tensor();
  fc1_->clear_cache();
  fc2_->clear_cache();
  if (fc3_) fc3_->clear_cache();
}

std::vector<Linear*> Mlp::linears() {
  if (fc3_) return {fc1_.get(), fc2_.get(), fc3_.get()};
  return {fc1_.get(), fc2_.get()};
}

}  // namespace edgellm::nn

#include "nn/block.hpp"

#include "tensor/ops.hpp"

namespace edgellm::nn {

TransformerBlock::TransformerBlock(std::string name, int64_t d_model, int64_t n_heads,
                                   int64_t d_ff, Rng& rng, int64_t n_kv_heads,
                                   MlpKind mlp_kind)
    : name_(std::move(name)) {
  norm1_ = std::make_unique<RmsNorm>(name_ + ".norm1", d_model);
  attn_ = std::make_unique<MultiHeadAttention>(name_ + ".attn", d_model, n_heads, rng,
                                               n_kv_heads);
  norm2_ = std::make_unique<RmsNorm>(name_ + ".norm2", d_model);
  mlp_ = std::make_unique<Mlp>(name_ + ".mlp", d_model, d_ff, rng, mlp_kind);
}

Tensor TransformerBlock::forward(const Tensor& x) {
  norm1_->set_grad_enabled(grad_enabled_);
  attn_->set_grad_enabled(grad_enabled_);
  norm2_->set_grad_enabled(grad_enabled_);
  mlp_->set_grad_enabled(grad_enabled_);

  Tensor h = ops::add(x, attn_->forward(norm1_->forward(x)));
  return ops::add(h, mlp_->forward(norm2_->forward(h)));
}

Tensor TransformerBlock::backward(const Tensor& grad_out) {
  if (!grad_enabled_) throw std::invalid_argument(name_ + ": backward while grad disabled");
  // Second residual: h + mlp(norm2(h))
  Tensor grad_h = ops::add(grad_out, norm2_->backward(mlp_->backward(grad_out)));
  // First residual: x + attn(norm1(x))
  return ops::add(grad_h, norm1_->backward(attn_->backward(grad_h)));
}

void TransformerBlock::collect_params(std::vector<Param*>& out) {
  norm1_->collect_params(out);
  attn_->collect_params(out);
  norm2_->collect_params(out);
  mlp_->collect_params(out);
}

int64_t TransformerBlock::cached_activation_bytes() const {
  return norm1_->cached_activation_bytes() + attn_->cached_activation_bytes() +
         norm2_->cached_activation_bytes() + mlp_->cached_activation_bytes();
}

void TransformerBlock::clear_cache() {
  norm1_->clear_cache();
  attn_->clear_cache();
  norm2_->clear_cache();
  mlp_->clear_cache();
}

void TransformerBlock::set_compression(std::optional<quant::QuantSpec> qspec,
                                       std::optional<prune::PruneSpec> pspec) {
  for (Linear* lin : linears()) {
    lin->set_quant(qspec);
    lin->set_prune(pspec);
  }
}

std::vector<Linear*> TransformerBlock::linears() {
  std::vector<Linear*> out = {&attn_->q_proj(), &attn_->k_proj(), &attn_->v_proj(),
                              &attn_->out_proj()};
  for (Linear* lin : mlp_->linears()) out.push_back(lin);
  return out;
}

}  // namespace edgellm::nn

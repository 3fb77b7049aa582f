#include "nn/embedding.hpp"

namespace edgellm::nn {

Embedding::Embedding(std::string name, int64_t vocab, int64_t dim, Rng& rng)
    : name_(std::move(name)), vocab_(vocab), dim_(dim) {
  check_arg(vocab_ > 0 && dim_ > 0, "Embedding: vocab and dim must be positive");
  weight_ = Param(name_ + ".weight", randn({vocab_, dim_}, rng, 0.0f, 0.02f));
}

Tensor Embedding::forward(const std::vector<int64_t>& tokens) {
  const int64_t n = static_cast<int64_t>(tokens.size());
  if (n <= 0) throw std::invalid_argument(name_ + ": empty token list");
  Tensor out({n, dim_});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = tokens[static_cast<size_t>(i)];
    if (t < 0 || t >= vocab_) throw std::invalid_argument(name_ + ": token id out of range");
    for (int64_t d = 0; d < dim_; ++d) out[i * dim_ + d] = weight_.value[t * dim_ + d];
  }
  if (grad_enabled_) {
    cached_tokens_ = tokens;
    has_cache_ = true;
  }
  return out;
}

void Embedding::backward(const Tensor& grad_out) {
  if (!grad_enabled_ || !has_cache_) {
    throw std::invalid_argument(name_ + ": backward without cached forward");
  }
  const int64_t n = static_cast<int64_t>(cached_tokens_.size());
  if (grad_out.ndim() != 2 || grad_out.dim(0) != n || grad_out.dim(1) != dim_) {
    throw std::invalid_argument(name_ + ": grad shape mismatch");
  }
  Tensor& wg = weight_.grad_buffer();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = cached_tokens_[static_cast<size_t>(i)];
    for (int64_t d = 0; d < dim_; ++d) wg[t * dim_ + d] += grad_out[i * dim_ + d];
  }
}

void Embedding::collect_params(std::vector<Param*>& out) { out.push_back(&weight_); }

int64_t Embedding::cached_activation_bytes() const {
  return has_cache_ ? static_cast<int64_t>(cached_tokens_.size() * sizeof(int64_t)) : 0;
}

void Embedding::clear_cache() {
  has_cache_ = false;
  cached_tokens_.clear();
}

}  // namespace edgellm::nn

#include "nn/attention.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace edgellm::nn {

namespace {
constexpr float kMaskValue = -1e30f;
}

MultiHeadAttention::MultiHeadAttention(std::string name, int64_t d_model, int64_t n_heads,
                                       Rng& rng, int64_t n_kv_heads)
    : name_(std::move(name)),
      d_model_(d_model),
      n_heads_(n_heads),
      n_kv_heads_(n_kv_heads > 0 ? n_kv_heads : n_heads) {
  check_arg(d_model_ > 0 && n_heads_ > 0, "MHA: dims must be positive");
  check_arg(d_model_ % n_heads_ == 0, "MHA: d_model must be divisible by n_heads");
  check_arg(n_heads_ % n_kv_heads_ == 0, "MHA: n_kv_heads must divide n_heads");
  d_head_ = d_model_ / n_heads_;
  q_ = std::make_unique<Linear>(name_ + ".q", d_model_, d_model_, /*bias=*/false, rng);
  k_ = std::make_unique<Linear>(name_ + ".k", d_model_, kv_dim(), /*bias=*/false, rng);
  v_ = std::make_unique<Linear>(name_ + ".v", d_model_, kv_dim(), /*bias=*/false, rng);
  o_ = std::make_unique<Linear>(name_ + ".o", d_model_, d_model_, /*bias=*/false, rng);
}

Tensor MultiHeadAttention::split_heads(const Tensor& x, int64_t b, int64_t t, int64_t n) const {
  Tensor out({b * n, t, d_head_});
  const int64_t width = n * d_head_;
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ti = 0; ti < t; ++ti) {
      for (int64_t h = 0; h < n; ++h) {
        const float* src = x.raw() + (bi * t + ti) * width + h * d_head_;
        float* dst = out.raw() + ((bi * n + h) * t + ti) * d_head_;
        for (int64_t d = 0; d < d_head_; ++d) dst[d] = src[d];
      }
    }
  }
  return out;
}

Tensor MultiHeadAttention::merge_heads(const Tensor& x, int64_t b, int64_t t, int64_t n) const {
  const int64_t width = n * d_head_;
  Tensor out({b, t, width});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ti = 0; ti < t; ++ti) {
      for (int64_t h = 0; h < n; ++h) {
        const float* src = x.raw() + ((bi * n + h) * t + ti) * d_head_;
        float* dst = out.raw() + (bi * t + ti) * width + h * d_head_;
        for (int64_t d = 0; d < d_head_; ++d) dst[d] = src[d];
      }
    }
  }
  return out;
}

Tensor MultiHeadAttention::expand_kv(const Tensor& x, int64_t b, int64_t t) const {
  if (n_kv_heads_ == n_heads_) return x;
  const int64_t group = n_heads_ / n_kv_heads_;
  Tensor out({b * n_heads_, t, d_head_});
  const int64_t slice = t * d_head_;
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t h = 0; h < n_heads_; ++h) {
      const float* src = x.raw() + (bi * n_kv_heads_ + h / group) * slice;
      float* dst = out.raw() + (bi * n_heads_ + h) * slice;
      for (int64_t i = 0; i < slice; ++i) dst[i] = src[i];
    }
  }
  return out;
}

Tensor MultiHeadAttention::reduce_kv(const Tensor& x, int64_t b, int64_t t) const {
  if (n_kv_heads_ == n_heads_) return x;
  const int64_t group = n_heads_ / n_kv_heads_;
  Tensor out({b * n_kv_heads_, t, d_head_});
  const int64_t slice = t * d_head_;
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t h = 0; h < n_heads_; ++h) {
      const float* src = x.raw() + (bi * n_heads_ + h) * slice;
      float* dst = out.raw() + (bi * n_kv_heads_ + h / group) * slice;
      for (int64_t i = 0; i < slice; ++i) dst[i] += src[i];
    }
  }
  return out;
}

Tensor MultiHeadAttention::forward(const Tensor& x) {
  if (x.ndim() != 3 || x.dim(2) != d_model_) {
    throw std::invalid_argument(name_ + ": expects [B, T, C]");
  }
  const int64_t b = x.dim(0), t = x.dim(1);

  // Projections share this module's grad flag so the tuner can disable
  // caching for the whole block at once.
  q_->set_grad_enabled(grad_enabled_);
  k_->set_grad_enabled(grad_enabled_);
  v_->set_grad_enabled(grad_enabled_);
  o_->set_grad_enabled(grad_enabled_);

  const Tensor q = split_heads(q_->forward(x), b, t, n_heads_);
  const Tensor k = expand_kv(split_heads(k_->forward(x), b, t, n_kv_heads_), b, t);
  const Tensor v = expand_kv(split_heads(v_->forward(x), b, t, n_kv_heads_), b, t);

  Tensor scores = ops::bmm_nt(q, k);  // [B*H, T, T]
  const float alpha = 1.0f / std::sqrt(static_cast<float>(d_head_));
  float* ps = scores.raw();
  parallel::parallel_for(0, b * n_heads_, 1, [=](int64_t lo, int64_t hi) {
    for (int64_t bh = lo; bh < hi; ++bh) {
      float* s = ps + bh * t * t;
      for (int64_t i = 0; i < t; ++i) {
        for (int64_t j = 0; j < t; ++j) {
          s[i * t + j] = j <= i ? s[i * t + j] * alpha : kMaskValue;
        }
      }
    }
  });
  Tensor probs = ops::softmax_lastdim(scores);
  const Tensor ctx = ops::bmm(probs, v);  // [B*H, T, Dh]
  const Tensor merged = merge_heads(ctx, b, t, n_heads_);

  if (grad_enabled_) {
    cached_b_ = b;
    cached_t_ = t;
    q_heads_ = q;
    k_heads_ = k;
    v_heads_ = v;
    probs_ = std::move(probs);
    has_cache_ = true;
  }
  return o_->forward(merged);
}

Tensor MultiHeadAttention::backward(const Tensor& grad_out) {
  if (!grad_enabled_ || !has_cache_) {
    throw std::invalid_argument(name_ + ": backward without cached forward");
  }
  const int64_t b = cached_b_, t = cached_t_;
  if (grad_out.ndim() != 3 || grad_out.dim(0) != b || grad_out.dim(1) != t ||
      grad_out.dim(2) != d_model_) {
    throw std::invalid_argument(name_ + ": grad shape mismatch");
  }

  const Tensor grad_merged = o_->backward(grad_out);
  const Tensor grad_ctx = split_heads(grad_merged, b, t, n_heads_);  // [B*H, T, Dh]

  // ctx = probs @ v. grad_v runs the dense blocked TN kernel: the causal
  // mask's exact zeros in probs cost their MACs but keep IEEE propagation,
  // and on finite inputs a skipped +0 term never changed a sum anyway.
  const Tensor grad_probs = ops::bmm_nt(grad_ctx, v_heads_);  // [B*H, T, T]
  const Tensor grad_v = ops::bmm_tn(probs_, grad_ctx);        // [B*H, T, Dh]

  // probs = softmax(scores); masked positions have probs == 0, so the
  // softmax backward already yields zero grad there.
  Tensor grad_scores = ops::softmax_lastdim_backward(probs_, grad_probs);
  const float alpha = 1.0f / std::sqrt(static_cast<float>(d_head_));
  for (int64_t i = 0; i < grad_scores.numel(); ++i) grad_scores[i] *= alpha;

  const Tensor grad_q = ops::bmm(grad_scores, k_heads_);     // [B*H, T, Dh]
  const Tensor grad_k = ops::bmm_tn(grad_scores, q_heads_);  // [B*H, T, Dh]

  Tensor gx = q_->backward(merge_heads(grad_q, b, t, n_heads_));
  ops::add_inplace(
      gx, k_->backward(merge_heads(reduce_kv(grad_k, b, t), b, t, n_kv_heads_)));
  ops::add_inplace(
      gx, v_->backward(merge_heads(reduce_kv(grad_v, b, t), b, t, n_kv_heads_)));
  return gx;
}

void MultiHeadAttention::collect_params(std::vector<Param*>& out) {
  q_->collect_params(out);
  k_->collect_params(out);
  v_->collect_params(out);
  o_->collect_params(out);
}

int64_t MultiHeadAttention::cached_activation_bytes() const {
  int64_t bytes = q_->cached_activation_bytes() + k_->cached_activation_bytes() +
                  v_->cached_activation_bytes() + o_->cached_activation_bytes();
  if (has_cache_) {
    bytes += tensor_bytes(q_heads_) + tensor_bytes(k_heads_) + tensor_bytes(v_heads_) +
             tensor_bytes(probs_);
  }
  return bytes;
}

void MultiHeadAttention::clear_cache() {
  has_cache_ = false;
  q_heads_ = k_heads_ = v_heads_ = probs_ = Tensor();
  q_->clear_cache();
  k_->clear_cache();
  v_->clear_cache();
  o_->clear_cache();
}

}  // namespace edgellm::nn

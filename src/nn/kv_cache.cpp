#include "nn/kv_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/tensor.hpp"

namespace edgellm::nn {

void KvCache::configure(int64_t n_layers, int64_t kv_dim, bool quantize) {
  check_arg(n_layers > 0 && kv_dim > 0, "KvCache: n_layers and kv_dim must be positive");
  n_layers_ = n_layers;
  kv_dim_ = kv_dim;
  quantize_ = quantize;
  const size_t n = static_cast<size_t>(n_layers);
  k_.assign(quantize ? 0 : n, {});
  v_.assign(quantize ? 0 : n, {});
  kq_.assign(quantize ? n : 0, {});
  vq_.assign(quantize ? n : 0, {});
  kq_scales_.assign(quantize ? n : 0, {});
  vq_scales_.assign(quantize ? n : 0, {});
}

void KvCache::clear() {
  for (auto& x : k_) x.clear();
  for (auto& x : v_) x.clear();
  for (auto& x : kq_) x.clear();
  for (auto& x : vq_) x.clear();
  for (auto& x : kq_scales_) x.clear();
  for (auto& x : vq_scales_) x.clear();
}

int64_t KvCache::positions(int64_t layer) const {
  check_arg(layer >= 0 && layer < n_layers_, "KvCache: layer out of range");
  const size_t li = static_cast<size_t>(layer);
  if (quantize_) return static_cast<int64_t>(kq_scales_[li].size());
  return static_cast<int64_t>(k_[li].size()) / kv_dim_;
}

void KvCache::truncate(int64_t n) {
  check_arg(n >= 0, "KvCache::truncate: n must be >= 0");
  const auto clamp_resize = [n](auto& per_layer, int64_t per_pos) {
    for (auto& x : per_layer) {
      const size_t keep = static_cast<size_t>(n * per_pos);
      if (x.size() > keep) x.resize(keep);
    }
  };
  clamp_resize(k_, kv_dim_);
  clamp_resize(v_, kv_dim_);
  clamp_resize(kq_, kv_dim_);
  clamp_resize(vq_, kv_dim_);
  clamp_resize(kq_scales_, 1);
  clamp_resize(vq_scales_, 1);
}

int64_t KvCache::bytes() const {
  int64_t bytes = 0;
  for (const auto& x : k_) bytes += static_cast<int64_t>(x.size() * sizeof(float));
  for (const auto& x : v_) bytes += static_cast<int64_t>(x.size() * sizeof(float));
  for (const auto& x : kq_) bytes += static_cast<int64_t>(x.size());
  for (const auto& x : vq_) bytes += static_cast<int64_t>(x.size());
  for (const auto& x : kq_scales_) bytes += static_cast<int64_t>(x.size() * sizeof(float));
  for (const auto& x : vq_scales_) bytes += static_cast<int64_t>(x.size() * sizeof(float));
  return bytes;
}

void KvCache::append_quantized(const float* row, std::vector<int8_t>& data,
                               std::vector<float>& scales) {
  float maxabs = 0.0f;
  for (int64_t d = 0; d < kv_dim_; ++d) maxabs = std::max(maxabs, std::fabs(row[d]));
  const float scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  scales.push_back(scale);
  for (int64_t d = 0; d < kv_dim_; ++d) {
    data.push_back(
        static_cast<int8_t>(std::clamp(std::round(row[d] / scale), -127.0f, 127.0f)));
  }
}

void KvCache::append(int64_t layer, const float* k, const float* v) {
  check_arg(layer >= 0 && layer < n_layers_, "KvCache: layer out of range");
  const size_t li = static_cast<size_t>(layer);
  if (!quantize_) {
    k_[li].insert(k_[li].end(), k, k + kv_dim_);
    v_[li].insert(v_[li].end(), v, v + kv_dim_);
    return;
  }
  append_quantized(k, kq_[li], kq_scales_[li]);
  append_quantized(v, vq_[li], vq_scales_[li]);
}

void KvCache::load_row(const std::vector<float>* fp, const std::vector<int8_t>* q,
                       const std::vector<float>* scales, int64_t pos, float* out) const {
  if (!quantize_) {
    std::memcpy(out, fp->data() + pos * kv_dim_, static_cast<size_t>(kv_dim_) * sizeof(float));
    return;
  }
  const float scale = (*scales)[static_cast<size_t>(pos)];
  const int8_t* row = q->data() + pos * kv_dim_;
  for (int64_t d = 0; d < kv_dim_; ++d) out[d] = static_cast<float>(row[d]) * scale;
}

void KvCache::rows(int64_t layer, int64_t n, const float** k, const float** v) const {
  const size_t li = static_cast<size_t>(layer);
  const float* kb = quantize_ ? nullptr : k_[li].data();
  const float* vb = quantize_ ? nullptr : v_[li].data();
  for (int64_t p = 0; p < n; ++p) {
    k[p] = kb != nullptr ? kb + p * kv_dim_ : nullptr;
    v[p] = vb != nullptr ? vb + p * kv_dim_ : nullptr;
  }
}

void KvCache::load_k(int64_t layer, int64_t pos, float* out) const {
  const size_t li = static_cast<size_t>(layer);
  load_row(quantize_ ? nullptr : &k_[li], quantize_ ? &kq_[li] : nullptr,
           quantize_ ? &kq_scales_[li] : nullptr, pos, out);
}

void KvCache::load_v(int64_t layer, int64_t pos, float* out) const {
  const size_t li = static_cast<size_t>(layer);
  load_row(quantize_ ? nullptr : &v_[li], quantize_ ? &vq_[li] : nullptr,
           quantize_ ? &vq_scales_[li] : nullptr, pos, out);
}

}  // namespace edgellm::nn

#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/serialize.hpp"

namespace edgellm::nn {

namespace {

Param* lookup_param(const std::map<std::string, Param*>& by_name, const std::string& name) {
  const auto it = by_name.find(name);
  if (it == by_name.end()) {
    throw std::runtime_error("optimizer state names unknown param: " + name);
  }
  return it->second;
}

uint64_t u64_entry(const std::map<std::string, Tensor>& in, const std::string& key) {
  const auto it = in.find(key);
  if (it == in.end()) throw std::runtime_error("missing optimizer state entry: " + key);
  return unpack_u64(it->second);
}

Tensor shaped_like(const Tensor& t, const Param* p, const std::string& key) {
  if (t.numel() != p->value.numel()) {
    throw std::runtime_error("optimizer state size mismatch for " + key);
  }
  return t.reshape(p->value.shape());
}

}  // namespace

float clip_grad_norm(const std::vector<Param*>& params, float max_norm) {
  check_arg(max_norm > 0.0f, "clip_grad_norm: max_norm must be positive");
  double total = 0.0;
  for (const Param* p : params) {
    if (!p->trainable) continue;
    for (int64_t i = 0; i < p->grad.numel(); ++i) {
      total += static_cast<double>(p->grad[i]) * p->grad[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12f);
    for (Param* p : params) {
      if (!p->trainable) continue;
      for (int64_t i = 0; i < p->grad.numel(); ++i) p->grad[i] *= scale;
    }
  }
  return norm;
}

bool grads_finite(const std::vector<Param*>& params) {
  for (const Param* p : params) {
    if (!p->trainable) continue;
    for (int64_t i = 0; i < p->grad.numel(); ++i) {
      if (!std::isfinite(p->grad[i])) return false;
    }
  }
  return true;
}

Sgd::Sgd(std::vector<Param*> params, Config cfg) : Optimizer(std::move(params)), cfg_(cfg) {
  check_arg(cfg_.lr > 0.0f, "Sgd: lr must be positive");
  check_arg(cfg_.momentum >= 0.0f && cfg_.momentum < 1.0f, "Sgd: momentum must be in [0, 1)");
}

void Sgd::step() {
  for (Param* p : params_) {
    if (!p->trainable) continue;
    Tensor& grad = p->grad_buffer();
    if (cfg_.weight_decay > 0.0f) {
      for (int64_t i = 0; i < p->value.numel(); ++i) {
        grad[i] += cfg_.weight_decay * p->value[i];
      }
    }
    if (cfg_.momentum > 0.0f) {
      auto [it, inserted] = velocity_.try_emplace(p, p->value.shape());
      Tensor& v = it->second;
      for (int64_t i = 0; i < p->value.numel(); ++i) {
        v[i] = cfg_.momentum * v[i] + grad[i];
        p->value[i] -= cfg_.lr * v[i];
      }
    } else {
      for (int64_t i = 0; i < p->value.numel(); ++i) {
        p->value[i] -= cfg_.lr * grad[i];
      }
    }
  }
}

int64_t Sgd::state_bytes() const {
  int64_t bytes = 0;
  for (const auto& [p, v] : velocity_) bytes += tensor_bytes(v);
  return bytes;
}

void Sgd::export_state(const std::string& prefix, std::map<std::string, Tensor>& out) const {
  for (const auto& [p, v] : velocity_) out.emplace(prefix + "vel." + p->name, v);
}

void Sgd::restore_state(const std::string& prefix, const std::map<std::string, Tensor>& in,
                        const std::map<std::string, Param*>& by_name) {
  velocity_.clear();
  const std::string vel_key = prefix + "vel.";
  for (const auto& [key, t] : in) {
    if (key.rfind(vel_key, 0) != 0) continue;
    Param* p = lookup_param(by_name, key.substr(vel_key.size()));
    velocity_.insert_or_assign(p, shaped_like(t, p, key));
  }
}

AdamW::AdamW(std::vector<Param*> params, Config cfg) : Optimizer(std::move(params)), cfg_(cfg) {
  check_arg(cfg_.lr > 0.0f, "AdamW: lr must be positive");
  check_arg(cfg_.beta1 >= 0.0f && cfg_.beta1 < 1.0f, "AdamW: beta1 must be in [0, 1)");
  check_arg(cfg_.beta2 >= 0.0f && cfg_.beta2 < 1.0f, "AdamW: beta2 must be in [0, 1)");
  check_arg(cfg_.eps > 0.0f, "AdamW: eps must be positive");
}

void AdamW::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(cfg_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(cfg_.beta2, static_cast<float>(t_));
  for (Param* p : params_) {
    if (!p->trainable) continue;
    auto [it, inserted] = state_.try_emplace(p);
    if (inserted) {
      it->second.m = Tensor(p->value.shape());
      it->second.v = Tensor(p->value.shape());
    }
    Tensor& m = it->second.m;
    Tensor& v = it->second.v;
    const Tensor& grad = p->grad_buffer();
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      const float g = grad[i];
      m[i] = cfg_.beta1 * m[i] + (1.0f - cfg_.beta1) * g;
      v[i] = cfg_.beta2 * v[i] + (1.0f - cfg_.beta2) * g * g;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      p->value[i] -= cfg_.lr * (mhat / (std::sqrt(vhat) + cfg_.eps) +
                                cfg_.weight_decay * p->value[i]);
    }
  }
}

int64_t AdamW::state_bytes() const {
  int64_t bytes = 0;
  for (const auto& [p, s] : state_) bytes += tensor_bytes(s.m) + tensor_bytes(s.v);
  return bytes;
}

void AdamW::export_state(const std::string& prefix, std::map<std::string, Tensor>& out) const {
  out.insert_or_assign(prefix + "t", pack_u64(static_cast<uint64_t>(t_)));
  for (const auto& [p, s] : state_) {
    out.emplace(prefix + "m." + p->name, s.m);
    out.emplace(prefix + "v." + p->name, s.v);
  }
}

void AdamW::restore_state(const std::string& prefix, const std::map<std::string, Tensor>& in,
                          const std::map<std::string, Param*>& by_name) {
  state_.clear();
  t_ = static_cast<int64_t>(u64_entry(in, prefix + "t"));
  const std::string m_key = prefix + "m.", v_key = prefix + "v.";
  for (const auto& [key, t] : in) {
    if (key.rfind(m_key, 0) == 0) {
      Param* p = lookup_param(by_name, key.substr(m_key.size()));
      state_[p].m = shaped_like(t, p, key);
    } else if (key.rfind(v_key, 0) == 0) {
      Param* p = lookup_param(by_name, key.substr(v_key.size()));
      state_[p].v = shaped_like(t, p, key);
    }
  }
  for (const auto& [p, s] : state_) {
    if (s.m.numel() != p->value.numel() || s.v.numel() != p->value.numel()) {
      throw std::runtime_error("incomplete AdamW state for " + p->name);
    }
  }
}

QuantizedAdamW::QuantizedAdamW(std::vector<Param*> params, Config cfg)
    : Optimizer(std::move(params)), cfg_(cfg) {
  check_arg(cfg_.lr > 0.0f, "QuantizedAdamW: lr must be positive");
  check_arg(cfg_.beta1 >= 0.0f && cfg_.beta1 < 1.0f, "QuantizedAdamW: beta1 must be in [0, 1)");
  check_arg(cfg_.beta2 >= 0.0f && cfg_.beta2 < 1.0f, "QuantizedAdamW: beta2 must be in [0, 1)");
  check_arg(cfg_.eps > 0.0f, "QuantizedAdamW: eps must be positive");
  check_arg(cfg_.block_size > 0 && cfg_.block_size <= 1024,
            "QuantizedAdamW: block_size must be in [1, 1024]");
}

void QuantizedAdamW::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(cfg_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(cfg_.beta2, static_cast<float>(t_));
  for (Param* p : params_) {
    if (!p->trainable) continue;
    const int64_t n = p->value.numel();
    const int64_t blocks = (n + cfg_.block_size - 1) / cfg_.block_size;
    auto [it, inserted] = state_.try_emplace(p);
    State& s = it->second;
    const Tensor& grad = p->grad_buffer();
    if (inserted) {
      s.m.assign(static_cast<size_t>(n), 0);
      s.v.assign(static_cast<size_t>(n), 0);
      s.m_scale.assign(static_cast<size_t>(blocks), 0.0f);
      s.v_scale.assign(static_cast<size_t>(blocks), 0.0f);
    }

    for (int64_t b = 0; b < blocks; ++b) {
      const int64_t lo = b * cfg_.block_size;
      const int64_t hi = std::min(n, lo + cfg_.block_size);
      const float ms = s.m_scale[static_cast<size_t>(b)];
      const float vs = s.v_scale[static_cast<size_t>(b)];

      // Dequantize the block, apply the AdamW update, track new extrema.
      float new_mmax = 0.0f, new_vmax = 0.0f;
      // Two passes: compute updated moments into stack buffers first so the
      // requantization scale covers the post-update values.
      float mbuf[1024], vbuf[1024];
      check_arg(hi - lo <= 1024, "QuantizedAdamW: block_size too large");
      for (int64_t i = lo; i < hi; ++i) {
        const float g = grad[i];
        float m = ms * static_cast<float>(s.m[static_cast<size_t>(i)]);
        float v = vs * static_cast<float>(s.v[static_cast<size_t>(i)]);
        m = cfg_.beta1 * m + (1.0f - cfg_.beta1) * g;
        v = cfg_.beta2 * v + (1.0f - cfg_.beta2) * g * g;
        mbuf[i - lo] = m;
        vbuf[i - lo] = v;
        new_mmax = std::max(new_mmax, std::fabs(m));
        new_vmax = std::max(new_vmax, v);
        const float mhat = m / bc1;
        const float vhat = v / bc2;
        p->value[i] -= cfg_.lr * (mhat / (std::sqrt(vhat) + cfg_.eps) +
                                  cfg_.weight_decay * p->value[i]);
      }
      const float new_ms = new_mmax > 0.0f ? new_mmax / 127.0f : 1.0f;
      const float new_vs = new_vmax > 0.0f ? new_vmax / 255.0f : 1.0f;
      s.m_scale[static_cast<size_t>(b)] = new_ms;
      s.v_scale[static_cast<size_t>(b)] = new_vs;
      for (int64_t i = lo; i < hi; ++i) {
        // m: stochastic rounding keeps small updates alive in expectation.
        s.m[static_cast<size_t>(i)] = static_cast<int8_t>(
            std::clamp(stochastic_round(mbuf[i - lo] / new_ms), -127.0f, 127.0f));
        // v: round UP — underestimating the second moment inflates the
        // effective step and can destabilise training.
        s.v[static_cast<size_t>(i)] = static_cast<uint8_t>(
            std::clamp(std::ceil(vbuf[i - lo] / new_vs), 0.0f, 255.0f));
      }
    }
  }
}

float QuantizedAdamW::stochastic_round(float x) {
  // xorshift64* for a cheap uniform in [0, 1).
  rounding_state_ ^= rounding_state_ >> 12;
  rounding_state_ ^= rounding_state_ << 25;
  rounding_state_ ^= rounding_state_ >> 27;
  const uint64_t r = rounding_state_ * 0x2545F4914F6CDD1Dull;
  const float u = static_cast<float>(r >> 40) * 0x1.0p-24f;
  return std::floor(x + u);
}

void QuantizedAdamW::export_state(const std::string& prefix,
                                  std::map<std::string, Tensor>& out) const {
  out.insert_or_assign(prefix + "t", pack_u64(static_cast<uint64_t>(t_)));
  out.insert_or_assign(prefix + "rounding", pack_u64(rounding_state_));
  for (const auto& [p, s] : state_) {
    // int8/uint8 codes and fp32 scales are all exactly representable as
    // floats, so quantized moments round-trip bit-exactly too.
    Tensor m({static_cast<int64_t>(s.m.size())});
    for (size_t i = 0; i < s.m.size(); ++i) m[static_cast<int64_t>(i)] = s.m[i];
    Tensor v({static_cast<int64_t>(s.v.size())});
    for (size_t i = 0; i < s.v.size(); ++i) v[static_cast<int64_t>(i)] = s.v[i];
    out.emplace(prefix + "qm." + p->name, std::move(m));
    out.emplace(prefix + "qv." + p->name, std::move(v));
    out.emplace(prefix + "qms." + p->name,
                Tensor({static_cast<int64_t>(s.m_scale.size())},
                       std::vector<float>(s.m_scale.begin(), s.m_scale.end())));
    out.emplace(prefix + "qvs." + p->name,
                Tensor({static_cast<int64_t>(s.v_scale.size())},
                       std::vector<float>(s.v_scale.begin(), s.v_scale.end())));
  }
}

void QuantizedAdamW::restore_state(const std::string& prefix,
                                   const std::map<std::string, Tensor>& in,
                                   const std::map<std::string, Param*>& by_name) {
  state_.clear();
  t_ = static_cast<int64_t>(u64_entry(in, prefix + "t"));
  rounding_state_ = u64_entry(in, prefix + "rounding");
  const std::string qm = prefix + "qm.";
  for (const auto& [key, t] : in) {
    if (key.rfind(qm, 0) != 0) continue;
    const std::string name = key.substr(qm.size());
    Param* p = lookup_param(by_name, name);
    const int64_t n = p->value.numel();
    const int64_t blocks = (n + cfg_.block_size - 1) / cfg_.block_size;
    const auto vit = in.find(prefix + "qv." + name);
    const auto msit = in.find(prefix + "qms." + name);
    const auto vsit = in.find(prefix + "qvs." + name);
    if (vit == in.end() || msit == in.end() || vsit == in.end() || t.numel() != n ||
        vit->second.numel() != n || msit->second.numel() != blocks ||
        vsit->second.numel() != blocks) {
      throw std::runtime_error("incomplete QuantizedAdamW state for " + name);
    }
    State& s = state_[p];
    s.m.resize(static_cast<size_t>(n));
    s.v.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      s.m[static_cast<size_t>(i)] = static_cast<int8_t>(t[i]);
      s.v[static_cast<size_t>(i)] = static_cast<uint8_t>(vit->second[i]);
    }
    s.m_scale.assign(msit->second.raw(), msit->second.raw() + blocks);
    s.v_scale.assign(vsit->second.raw(), vsit->second.raw() + blocks);
  }
}

int64_t QuantizedAdamW::state_bytes() const {
  int64_t bytes = 0;
  for (const auto& [p, s] : state_) {
    bytes += static_cast<int64_t>(s.m.size() + s.v.size());
    bytes += static_cast<int64_t>((s.m_scale.size() + s.v_scale.size()) * sizeof(float));
  }
  return bytes;
}

}  // namespace edgellm::nn

// Parameter and module framework for the explicit forward/backward NN stack.
//
// There is no autograd tape: each module caches what its own backward needs
// during forward, and only when grad is enabled for that module. The
// adaptive-layer tuner (src/core) exploits this by disabling grad (and thus
// activation caching) for all transformer blocks below the backprop depth —
// the memory mechanism the paper's component (2) relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace edgellm::nn {

/// A named trainable tensor with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  /// Same shape as value once allocated; accumulated by backward. It stays
  /// empty (numel 0, read as all zeros) until grad_buffer() first allocates
  /// it, so a model that only runs inference carries no gradient memory.
  Tensor grad{Shape{0}};
  bool trainable = true;  ///< frozen params are skipped by optimizers

  Param() = default;
  Param(std::string n, Tensor v) : name(std::move(n)), value(std::move(v)) {}

  /// The gradient buffer, allocated (zeroed) if it is still empty.
  Tensor& grad_buffer() {
    if (grad.shape() != value.shape()) grad = Tensor(value.shape());
    return grad;
  }

  void zero_grad() {
    if (grad.numel() > 0) grad.fill(0.0f);
  }
  int64_t numel() const { return value.numel(); }
};

/// Base class for layers with explicit forward/backward.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Appends pointers to all owned Params (recursively) to `out`.
  virtual void collect_params(std::vector<Param*>& out) = 0;

  /// Bytes of activations currently cached for backward.
  virtual int64_t cached_activation_bytes() const { return 0; }

  /// Drops cached activations (e.g. after a step or for eval).
  virtual void clear_cache() {}

  /// When false, forward must not cache activations and backward through
  /// this module is not allowed until re-enabled.
  void set_grad_enabled(bool enabled) { grad_enabled_ = enabled; }
  bool grad_enabled() const { return grad_enabled_; }

  std::vector<Param*> params() {
    std::vector<Param*> out;
    collect_params(out);
    return out;
  }

  void zero_grad() {
    for (Param* p : params()) p->zero_grad();
  }

  int64_t param_count() {
    int64_t n = 0;
    for (Param* p : params()) n += p->numel();
    return n;
  }

 protected:
  bool grad_enabled_ = true;
};

/// Bytes of a float tensor's storage (helper for activation accounting).
inline int64_t tensor_bytes(const Tensor& t) {
  return t.numel() * static_cast<int64_t>(sizeof(float));
}

}  // namespace edgellm::nn

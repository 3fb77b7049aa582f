#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace edgellm::ops {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " + shape_to_string(b.shape()));
  }
}

// Chunk sizing: aim for at least this many scalar multiply-adds per chunk
// so fan-out overhead stays negligible. Chunk boundaries never affect
// results (kernels partition over disjoint output rows), only scheduling.
constexpr int64_t kGrainOps = 16384;

int64_t row_grain(int64_t ops_per_row) {
  return std::max<int64_t>(1, kGrainOps / std::max<int64_t>(1, ops_per_row));
}

// Elementwise map over a flat range: y[i] = f(x[i]).
template <typename F>
Tensor map_elems(const Tensor& x, F f) {
  Tensor y(x.shape());
  const float* px = x.raw();
  float* py = y.raw();
  parallel::parallel_for(0, x.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) py[i] = f(px[i]);
  });
  return y;
}

}  // namespace

// The matrix products validate their operands and pick the blocked kernel
// or the naive loop in gemm::dispatch; the two give the same bits, so only
// speed depends on the cut-over and the registered schedule.

Tensor matmul(const Tensor& a, const Tensor& b) {
  const obs::KernelSpan span("kernel/matmul");
  return gemm::dispatch(gemm::GemmKind::kNN, a, b, false, "matmul");
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  const obs::KernelSpan span("kernel/matmul");
  return gemm::dispatch(gemm::GemmKind::kTN, a, b, false, "matmul_tn");
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  const obs::KernelSpan span("kernel/matmul");
  return gemm::dispatch(gemm::GemmKind::kNT, a, b, false, "matmul_nt");
}

Tensor matmul_nt_prepacked(const Tensor& a, const gemm::NtPanels& b) {
  const obs::KernelSpan span("kernel/matmul");
  return gemm::matmul_nt_prepacked(a, b);
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  const obs::KernelSpan span("kernel/bmm");
  return gemm::dispatch(gemm::GemmKind::kNN, a, b, true, "bmm");
}

Tensor bmm_nt(const Tensor& a, const Tensor& b) {
  const obs::KernelSpan span("kernel/bmm");
  return gemm::dispatch(gemm::GemmKind::kNT, a, b, true, "bmm_nt");
}

Tensor bmm_tn(const Tensor& a, const Tensor& b) {
  const obs::KernelSpan span("kernel/bmm");
  return gemm::dispatch(gemm::GemmKind::kTN, a, b, true, "bmm_tn");
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor c(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  const auto add_kernel = simd::kernels().add;
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    add_kernel(pa + lo, pb + lo, pc + lo, hi - lo);
  });
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor c(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] = pa[i] - pb[i];
  });
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor c(a.shape());
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] = pa[i] * pb[i];
  });
  return c;
}

Tensor scale(const Tensor& a, float s) {
  return map_elems(a, [s](float v) { return v * s; });
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.raw();
  const float* pb = b.raw();
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
  });
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  float* pa = a.raw();
  const float* pb = b.raw();
  parallel::parallel_for(0, a.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += s * pb[i];
  });
}

Tensor add_bias(const Tensor& x, const Tensor& bias) {
  check_arg(bias.ndim() == 1, "add_bias: bias must be 1-d");
  const int64_t n = bias.dim(0);
  check_arg(x.numel() % n == 0 && x.dim(-1) == n, "add_bias: last dim mismatch");
  Tensor c(x.shape());
  const int64_t rows = x.numel() / n;
  const float* px = x.raw();
  const float* pbias = bias.raw();
  float* pc = c.raw();
  const auto add_kernel = simd::kernels().add;
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) add_kernel(px + r * n, pbias, pc + r * n, n);
  });
  return c;
}

Tensor relu(const Tensor& x) {
  return map_elems(x, [](float v) { return v > 0 ? v : 0.0f; });
}

Tensor relu_grad(const Tensor& x, const Tensor& grad_out) {
  check_same_shape(x, grad_out, "relu_grad");
  Tensor g(x.shape());
  const float* px = x.raw();
  const float* pg = grad_out.raw();
  float* po = g.raw();
  parallel::parallel_for(0, x.numel(), kGrainOps, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = px[i] > 0 ? pg[i] : 0.0f;
  });
  return g;
}

namespace {
// Transcendental elementwise work gets a finer grain than fused adds.
constexpr int64_t kTranscendentalGrain = 2048;
}  // namespace

Tensor gelu(const Tensor& x) {
  Tensor y(x.shape());
  const float* px = x.raw();
  float* py = y.raw();
  const auto gelu_kernel = simd::kernels().gelu;
  parallel::parallel_for(0, x.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    gelu_kernel(px + lo, py + lo, hi - lo);
  });
  return y;
}

Tensor gelu_grad(const Tensor& x, const Tensor& grad_out) {
  check_same_shape(x, grad_out, "gelu_grad");
  Tensor g(x.shape());
  const float* px = x.raw();
  const float* pg = grad_out.raw();
  float* po = g.raw();
  const auto gelu_grad_kernel = simd::kernels().gelu_grad;
  parallel::parallel_for(0, x.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    gelu_grad_kernel(px + lo, pg + lo, po + lo, hi - lo);
  });
  return g;
}

Tensor silu(const Tensor& x) {
  Tensor y(x.shape());
  const float* px = x.raw();
  float* py = y.raw();
  const auto silu_kernel = simd::kernels().silu;
  parallel::parallel_for(0, x.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    silu_kernel(px + lo, py + lo, hi - lo);
  });
  return y;
}

Tensor silu_grad(const Tensor& x, const Tensor& grad_out) {
  check_same_shape(x, grad_out, "silu_grad");
  Tensor g(x.shape());
  const float* px = x.raw();
  const float* pg = grad_out.raw();
  float* po = g.raw();
  // simd::sigmoid_scalar keeps the gradient consistent with the forward
  // kernel's sigmoid (both use the shared polynomial exp).
  parallel::parallel_for(0, x.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float s = simd::sigmoid_scalar(px[i]);
      po[i] = pg[i] * (s + px[i] * s * (1.0f - s));
    }
  });
  return g;
}

Tensor swiglu(const Tensor& gate, const Tensor& up) {
  check_same_shape(gate, up, "swiglu");
  Tensor y(gate.shape());
  const float* pg = gate.raw();
  const float* pu = up.raw();
  float* py = y.raw();
  const auto swiglu_kernel = simd::kernels().swiglu;
  parallel::parallel_for(0, gate.numel(), kTranscendentalGrain, [=](int64_t lo, int64_t hi) {
    swiglu_kernel(pg + lo, pu + lo, py + lo, hi - lo);
  });
  return y;
}

Tensor softmax_lastdim(const Tensor& x) {
  check_arg(x.ndim() >= 1, "softmax_lastdim: needs at least 1-d");
  const int64_t n = x.dim(-1);
  check_arg(n > 0, "softmax_lastdim: empty last dimension");
  const obs::KernelSpan span("kernel/softmax");
  Tensor y(x.shape());
  const int64_t rows = x.numel() / n;
  const float* px = x.raw();
  float* py = y.raw();
  const simd::KernelTable& kt = simd::kernels();
  const auto exp_sub = kt.exp_sub;
  const auto scale_inplace = kt.scale_inplace;
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      float* yr = py + r * n;
      float mx = xr[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
      exp_sub(xr, mx, yr, n);
      // The denominator stays a scalar ascending chain so normalisation is
      // identical at every dispatch choice.
      float denom = 0.0f;
      for (int64_t j = 0; j < n; ++j) denom += yr[j];
      scale_inplace(yr, 1.0f / denom, n);
    }
  });
  return y;
}

Tensor log_softmax_lastdim(const Tensor& x) {
  check_arg(x.ndim() >= 1, "log_softmax_lastdim: needs at least 1-d");
  const int64_t n = x.dim(-1);
  check_arg(n > 0, "log_softmax_lastdim: empty last dimension");
  const obs::KernelSpan span("kernel/softmax");
  Tensor y(x.shape());
  const int64_t rows = x.numel() / n;
  const float* px = x.raw();
  float* py = y.raw();
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      float* yr = py + r * n;
      float mx = xr[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
      float denom = 0.0f;
      for (int64_t j = 0; j < n; ++j) denom += std::exp(xr[j] - mx);
      const float lse = mx + std::log(denom);
      for (int64_t j = 0; j < n; ++j) yr[j] = xr[j] - lse;
    }
  });
  return y;
}

Tensor softmax_lastdim_backward(const Tensor& y, const Tensor& grad_out) {
  check_same_shape(y, grad_out, "softmax_lastdim_backward");
  const int64_t n = y.dim(-1);
  Tensor g(y.shape());
  const int64_t rows = y.numel() / n;
  const float* py = y.raw();
  const float* pg = grad_out.raw();
  float* po = g.raw();
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* yr = py + r * n;
      const float* gr = pg + r * n;
      float* outr = po + r * n;
      float dot = 0.0f;
      for (int64_t j = 0; j < n; ++j) dot += yr[j] * gr[j];
      for (int64_t j = 0; j < n; ++j) outr[j] = yr[j] * (gr[j] - dot);
    }
  });
  return g;
}

Tensor rms_norm_lastdim(const Tensor& x, const Tensor& gain, float eps, std::vector<float>* inv_out) {
  check_arg(x.ndim() >= 1, "rms_norm_lastdim: needs at least 1-d");
  check_arg(gain.ndim() == 1, "rms_norm_lastdim: gain must be 1-d");
  const int64_t n = gain.dim(0);
  check_arg(x.dim(-1) == n, "rms_norm_lastdim: last dim mismatch");
  check_arg(eps > 0.0f, "rms_norm_lastdim: eps must be positive");
  Tensor y(x.shape());
  const int64_t rows = x.numel() / n;
  if (inv_out) inv_out->resize(static_cast<size_t>(rows));
  float* pinv = inv_out ? inv_out->data() : nullptr;
  const float* px = x.raw();
  const float* pgain = gain.raw();
  float* py = y.raw();
  const simd::KernelTable& kt = simd::kernels();
  const auto rms_apply = kt.rms_apply;
  // The sum-of-squares reduction stays a scalar ascending double chain by
  // default (the bitwise reference); fast_math swaps in the vector
  // multi-accumulator reduction, which regroups the additions.
  const auto sumsq_fast = gemm::fast_math_enabled() ? kt.sumsq_fast : nullptr;
  parallel::parallel_for(0, rows, row_grain(2 * n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      double ss;
      if (sumsq_fast) {
        ss = sumsq_fast(xr, n);
      } else {
        ss = 0.0;
        for (int64_t d = 0; d < n; ++d) {
          const double v = xr[d];
          ss += v * v;
        }
      }
      const float inv = 1.0f / std::sqrt(static_cast<float>(ss / static_cast<double>(n)) + eps);
      if (pinv) pinv[r] = inv;
      rms_apply(xr, pgain, inv, py + r * n, n);
    }
  });
  return y;
}

// Scalar reductions stay serial: a parallel tree reduction would change
// the floating-point accumulation order and break the backend's
// bitwise-determinism guarantee for marginal gain (they are O(n), not
// O(n^2) like the matmuls).
float sum(const Tensor& x) {
  double acc = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) acc += x[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& x) {
  check_arg(x.numel() > 0, "mean: empty tensor");
  return sum(x) / static_cast<float>(x.numel());
}

float max_value(const Tensor& x) {
  check_arg(x.numel() > 0, "max_value: empty tensor");
  float mx = x[0];
  for (int64_t i = 1; i < x.numel(); ++i) mx = std::max(mx, x[i]);
  return mx;
}

float min_value(const Tensor& x) {
  check_arg(x.numel() > 0, "min_value: empty tensor");
  float mn = x[0];
  for (int64_t i = 1; i < x.numel(); ++i) mn = std::min(mn, x[i]);
  return mn;
}

float l2_norm(const Tensor& x) {
  double acc = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) acc += static_cast<double>(x[i]) * x[i];
  return static_cast<float>(std::sqrt(acc));
}

float mse(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mse");
  check_arg(a.numel() > 0, "mse: empty tensor");
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return static_cast<float>(acc / static_cast<double>(a.numel()));
}

Tensor transpose2d(const Tensor& x) {
  check_arg(x.ndim() == 2, "transpose2d: needs a 2-d tensor");
  const int64_t m = x.dim(0), n = x.dim(1);
  Tensor y({n, m});
  const float* px = x.raw();
  float* py = y.raw();
  parallel::parallel_for(0, m, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < n; ++j) py[j * m + i] = px[i * n + j];
    }
  });
  return y;
}

std::vector<int64_t> argmax_lastdim(const Tensor& x) {
  check_arg(x.ndim() >= 1, "argmax_lastdim: needs at least 1-d");
  const int64_t n = x.dim(-1);
  check_arg(n > 0, "argmax_lastdim: empty last dimension");
  const int64_t rows = x.numel() / n;
  std::vector<int64_t> out(static_cast<size_t>(rows));
  const float* px = x.raw();
  int64_t* po = out.data();
  parallel::parallel_for(0, rows, row_grain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* xr = px + r * n;
      int64_t best = 0;
      for (int64_t j = 1; j < n; ++j) {
        if (xr[j] > xr[best]) best = j;
      }
      po[r] = best;
    }
  });
  return out;
}

}  // namespace edgellm::ops

// Math kernels over Tensor used throughout the library.
//
// All functions validate shapes with check_arg and return freshly
// allocated tensors unless the name says `_inplace`.
//
// Threading: the hot kernels run on the shared deterministic thread pool
// (tensor/parallel.hpp), partitioned over disjoint output rows/elements so
// results are bitwise identical to serial execution at any thread count.
//
// Numerics: the matmul/bmm variants are IEEE-propagating — a NaN or Inf
// in either operand always reaches the output (0 * NaN == NaN). Each one
// runs the blocked SIMD kernel of tensor/gemm.hpp above its cut-over and
// the naive loop below it, with bitwise identical results either way.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace edgellm::ops {

namespace gemm {
class NtPanels;
}

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

/// C[m,n] = A[m,k] * B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[m,n] = A^T[k,m] * B[k,n]  (a is stored [k,m]).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C[m,n] = A[m,k] * B^T[n,k]  (b is stored [n,k]).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// matmul_nt against a weight pre-packed once into kernel-ready panels
/// (gemm::NtPanels, the decode weight cache's layout): no cut-over and no
/// per-call packing, the same bits as matmul_nt at every m.
Tensor matmul_nt_prepacked(const Tensor& a, const gemm::NtPanels& b);

/// Batched matmul: C[b,m,n] = A[b,m,k] * B[b,k,n].
Tensor bmm(const Tensor& a, const Tensor& b);

/// Batched matmul with B transposed: C[b,m,n] = A[b,m,k] * B^T where B is [b,n,k].
Tensor bmm_nt(const Tensor& a, const Tensor& b);

/// Batched matmul with A transposed: C[b,m,n] = A^T * B where A is [b,k,m], B is [b,k,n].
Tensor bmm_tn(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);

/// a += b (shapes must match).
void add_inplace(Tensor& a, const Tensor& b);

/// a += s * b (shapes must match).
void axpy_inplace(Tensor& a, float s, const Tensor& b);

/// Adds row vector `bias[n]` to every row of `x[..., n]`.
Tensor add_bias(const Tensor& x, const Tensor& bias);

// Activations and their derivatives (w.r.t. the pre-activation input).
Tensor relu(const Tensor& x);
Tensor relu_grad(const Tensor& x, const Tensor& grad_out);
// gelu/gelu_grad are the tanh-form GELU, computed through the shared
// polynomial sigmoid (simd::gelu_scalar) and bitwise equal at every SIMD
// dispatch choice.
Tensor gelu(const Tensor& x);
Tensor gelu_grad(const Tensor& x, const Tensor& grad_out);
Tensor silu(const Tensor& x);
Tensor silu_grad(const Tensor& x, const Tensor& grad_out);

/// Fused SwiGLU product: y = silu(gate) * up, elementwise, in one pass.
/// Bitwise equal to mul(silu(gate), up) at every SIMD dispatch choice.
Tensor swiglu(const Tensor& gate, const Tensor& up);

// ---------------------------------------------------------------------------
// Softmax / reductions
// ---------------------------------------------------------------------------

/// Softmax along the last dimension.
Tensor softmax_lastdim(const Tensor& x);

/// Log-softmax along the last dimension.
Tensor log_softmax_lastdim(const Tensor& x);

/// Backward of softmax along the last dimension given y = softmax(x)
/// and dL/dy; returns dL/dx.
Tensor softmax_lastdim_backward(const Tensor& y, const Tensor& grad_out);

/// RMSNorm over the last dimension: y[..., d] = gain[d] * x[..., d] * inv_r
/// with inv_r = 1 / sqrt(mean(x_row^2) + eps). The sum-of-squares runs as
/// a scalar ascending double chain (bitwise-deterministic at any thread
/// count / SIMD dispatch) unless global fast_math is on. When `inv_out` is
/// non-null it receives one inv_r per row (for backward caching).
Tensor rms_norm_lastdim(const Tensor& x, const Tensor& gain, float eps,
                        std::vector<float>* inv_out = nullptr);

float sum(const Tensor& x);
float mean(const Tensor& x);
float max_value(const Tensor& x);
float min_value(const Tensor& x);

/// L2 norm of all elements.
float l2_norm(const Tensor& x);

/// Mean squared difference between two same-shaped tensors.
float mse(const Tensor& a, const Tensor& b);

/// 2-d transpose: [m,n] -> [n,m].
Tensor transpose2d(const Tensor& x);

/// Row-wise argmax over the last dimension; returns indices flattened over
/// the leading dimensions.
std::vector<int64_t> argmax_lastdim(const Tensor& x);

}  // namespace edgellm::ops

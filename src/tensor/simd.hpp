// Runtime-dispatched SIMD kernel family: fixed-width f32 vector cores for
// the blocked GEMM micro-kernel, the fused int4/int8 dequant-dot, the
// hot elementwise paths (softmax, RMSNorm, SiLU/SwiGLU, bias add) and
// decode attention (K panel transpose, P·V), behind
// one portable dispatch table with AVX2 and NEON backends and the scalar
// backend kept as the bitwise reference implementation.
//
// Dispatch: detected_isa() probes the CPU once (cpuid on x86-64, the
// aarch64 baseline guarantees NEON); the active table starts at the
// EDGELLM_SIMD environment override ("auto" | "scalar" | "avx2" | "neon",
// read once at first use) and can be re-pointed at any quiescent moment
// with set_dispatch() (the CLI's --simd flag). Switching dispatch is a
// single atomic pointer store; kernels grab the table per call.
//
// Numerics contract (the load-bearing part):
//
//   DEFAULT (deterministic) PATH — every kernel in the table computes, per
//   output element, the exact IEEE operation sequence of the scalar
//   reference. GEMM and dequant-dot vectorize across *n* (the kNr output
//   lane), never across k, so each output element keeps its single
//   ascending-k accumulation chain; multiplies and adds stay separate
//   (no FMA contraction — the whole project builds with -ffp-contract=off
//   so the scalar reference can't silently fuse either). Elementwise
//   kernels are lane-independent with per-element op sequences identical
//   to the scalar code. Results are therefore BITWISE IDENTICAL to the
//   scalar backend at any dispatch choice and any thread count, and the
//   differential suite (ctest -L simd) pins this down.
//
//   FAST-MATH PATH — the *_fast GEMM/dequant-dot entries and sumsq_fast
//   trade the single-chain contract for k-lane multi-accumulator
//   reductions with FMA. Opt-in per call (and via the EngineConfig /
//   --fast-math knobs); differential tests are tolerance-based, not
//   bitwise. On the scalar table the fast pointers alias the
//   deterministic kernels, so scalar dispatch is always the reference.
//
// Transcendentals: std::exp differs across libms and has no vector form,
// so the exp/sigmoid used by softmax (training's softmax_lastdim and the
// decode attention softmax alike), SiLU and GELU are defined HERE, once, as a
// polynomial (exp_scalar below) whose vector implementations perform the
// identical per-element op sequence. The scalar functions are the
// reference; ops.cpp routes through them so "scalar dispatch" and "avx2
// dispatch" agree bitwise. Saturation contract: exp_scalar(x) returns +inf
// for x > 88.376..., 0 for x < -87.336..., and propagates NaN inputs
// unchanged (payload preserved, no arithmetic touches them).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

namespace edgellm::simd {

/// Instruction-set backends the dispatch layer knows about.
enum class Isa { kScalar, kAvx2, kNeon };

const char* to_string(Isa isa);

/// Best backend this CPU supports (probed once: cpuid AVX2+FMA on x86-64,
/// NEON is the aarch64 baseline). Never returns less than kScalar.
Isa detected_isa();

/// The backend kernels currently dispatch to. Starts at the EDGELLM_SIMD
/// override if set and usable, else detected_isa().
Isa active_isa();

/// Points dispatch at `name`: "auto" (detected), "scalar", "avx2", "neon".
/// Returns false — leaving dispatch unchanged — for an unknown name or a
/// backend this host cannot run. Call while kernels are quiescent; the
/// store itself is atomic, but in-flight kernels that already grabbed the
/// old table finish on it.
bool set_dispatch(const std::string& name);

/// True if `name` is a valid argument to set_dispatch on this host.
bool dispatch_available(const std::string& name);

// ---------------------------------------------------------------------------
// Kernel table
// ---------------------------------------------------------------------------

/// Per-ISA kernel implementations. All function pointers are always
/// non-null (the scalar reference fills any slot an ISA does not
/// specialise).
struct KernelTable {
  Isa isa;

  /// Blocked-GEMM micro-kernel: C strip [mr x nr] += A rows [mr x pc]
  /// (row stride lda) * packed panel strip [pc x kNr floats, kNr = 8,
  /// 32-byte aligned]; mr <= 4, nr <= 8; panel lanes past nr are
  /// zero-padded by the packers and feed accumulator slots that are never
  /// stored. Accumulates each element over ascending p, loading from and
  /// storing to C (k-blocks chain through memory into one fp32 sum per
  /// element).
  void (*gemm_tile)(const float* a, int64_t lda, const float* bp, int64_t pc, float* c,
                    int64_t ldc, int64_t mr, int64_t nr);
  /// Fast-math variant: FMA + two k-lane accumulator chains per element.
  void (*gemm_tile_fast)(const float* a, int64_t lda, const float* bp, int64_t pc, float* c,
                         int64_t ldc, int64_t mr, int64_t nr);

  /// Fused dequant-dot: C strip [mr x nr] += A rows [mr x pc] * W_strip^T
  /// where the weight strip is kNr packed integer rows decoded on the fly
  /// — no fp32 panel temporary. rows[jr] points at weight row j0+jr's
  /// packed payload base (whole row), nullptr for jr >= nr; `bits` is 4
  /// (two nibbles per byte, low first, offset-by-8) or 8 (int8); the
  /// depth range is absolute columns [p0, p0 + pc) of the row (p0 carries
  /// int4 nibble alignment). Deterministic: per element ascending-p
  /// mul+add of a[r][p] * float(q[j][p]), bitwise equal to the scalar
  /// reference (int -> fp32 is exact for |q| <= 127).
  void (*dequant_dot)(const float* a, int64_t lda, int64_t mr, const uint8_t* const* rows,
                      int bits, int64_t p0, int64_t pc, float* c, int64_t ldc, int64_t nr);
  void (*dequant_dot_fast)(const float* a, int64_t lda, int64_t mr, const uint8_t* const* rows,
                           int bits, int64_t p0, int64_t pc, float* c, int64_t ldc, int64_t nr);

  /// y[i] = exp(x[i] - mx) for i < n (softmax numerator; mx = 0 gives
  /// plain exp). Same saturation/NaN contract as exp_scalar.
  void (*exp_sub)(const float* x, float mx, float* y, int64_t n);
  /// y[i] *= s (softmax normalise).
  void (*scale_inplace)(float* y, float s, int64_t n);
  /// y[i] = x[i] * sigmoid(x[i]).
  void (*silu)(const float* x, float* y, int64_t n);
  /// y[i] = (g[i] * sigmoid(g[i])) * u[i] — the SwiGLU gate-up product,
  /// bitwise equal to silu-then-multiply.
  void (*swiglu)(const float* g, const float* u, float* y, int64_t n);
  /// y[i] = gelu_scalar(x[i]) — the tanh-form GELU through the shared
  /// sigmoid (see gelu_scalar).
  void (*gelu)(const float* x, float* y, int64_t n);
  /// y[i] = gelu_grad_scalar(x[i], g[i]) — g times the GELU derivative.
  void (*gelu_grad)(const float* x, const float* g, float* y, int64_t n);
  /// y[i] = a[i] + b[i] (bias add runs this per row).
  void (*add)(const float* a, const float* b, float* y, int64_t n);
  /// y[i] = gain[i] * x[i] * inv — the RMSNorm application, op order
  /// (gain * x) * inv exactly as the scalar loop.
  void (*rms_apply)(const float* x, const float* gain, float inv, float* y, int64_t n);
  /// Fast-math sum of squares in double (vector multi-accumulator); the
  /// deterministic RMSNorm reduction stays the scalar ascending chain in
  /// ops.cpp and is not in the table.
  double (*sumsq_fast)(const float* x, int64_t n);

  /// Decode attention K gather: transposes up to kNr cached rows into one
  /// [width][kNr] panel (32-byte aligned, the gemm_tile B layout):
  /// panel[d * kNr + r] = rows[r][d] for r < n, and 0 in lanes r >= n.
  /// Pure copies, so every backend is trivially bitwise equal.
  void (*pack_kpanel)(const float* const* rows, int64_t n, int64_t width, float* panel);
  /// Decode attention P·V for one query row: for every ctx lane i in
  /// [0, n_heads * dh), with head(i) = i / dh and
  /// kv_col(i) = (head(i) / group) * dh + i % dh,
  ///   ctx[i] = ctx[i] + w[head(i) * ldw + p] * v[p][kv_col(i)]
  /// over ascending p in [0, t) — one mul-then-add chain per lane, loaded
  /// from and stored to ctx. v[p] points at cached position p's V row.
  /// Vector backends keep the ctx row in registers across positions and
  /// stay bitwise equal to the scalar reference (detail::attn_pv_scalar);
  /// AVX2 does so for dh a multiple of 8 and runs the reference otherwise.
  void (*attn_pv)(const float* w, int64_t ldw, const float* const* v, int64_t t,
                  int64_t n_heads, int64_t dh, int64_t group, float* ctx);
};

/// The active table (atomic load of one pointer; grab it once per kernel
/// call, not per element).
const KernelTable& kernels();

/// Table for a specific backend, or nullptr if unavailable on this host.
/// Tests use this to compare backends directly.
const KernelTable* table_for(Isa isa);

// ---------------------------------------------------------------------------
// Shared scalar transcendentals (the reference implementations)
// ---------------------------------------------------------------------------

/// Polynomial expf (Cephes-style, ~1 ulp on the supported range) — THE
/// definition of exp for softmax/SiLU numerics. x > 88.3762626647949f
/// returns +inf, x < -87.3365478515625f returns 0, NaN returns x
/// unchanged. Every vector backend performs this exact op sequence.
float exp_scalar(float x);

/// 1 / (1 + exp_scalar(-x)); the sigmoid under silu/swiglu. NaN inputs
/// return x unchanged — this keeps x * sigmoid(x) order-independent when
/// x is NaN (both multiply operands are then the SAME NaN bit pattern, so
/// the product is that NaN on every backend; two distinct NaN payloads
/// meeting in one multiply would propagate whichever one the instruction's
/// operand order picks, which compilers don't pin).
float sigmoid_scalar(float x);

/// The tanh-form GELU, x * 0.5 * (1 + tanh(u)) with u = sqrt(2/pi) *
/// (x + 0.044715 x^3), written through the identity 0.5 * (1 + tanh(u)) ==
/// sigmoid(2u): x * sigmoid_scalar(2u). Largest absolute error against an
/// fp64 reference on [-10, 10] is 5.1e-7 (the libm tanh form: 4.3e-7),
/// and the negative tail avoids the cancellation in 1 + tanh(u). Every
/// backend performs this exact op sequence. NaN returns x unchanged.
float gelu_scalar(float x);

/// g * d/dx gelu(x) = g * (s + 2 x s (1 - s) u'(x)) with s = sigmoid(2u).
/// A NaN x returns x and otherwise a NaN g returns g, so no multiply ever
/// sees two different NaN payloads (whose survivor would depend on operand
/// order).
float gelu_grad_scalar(float x, float g);

// ---------------------------------------------------------------------------
// Aligned storage for packed panels
// ---------------------------------------------------------------------------

/// Alignment of packed B panels (bytes). One kNr f32 lane is 32 bytes, so
/// panel strips laid out at kNr-float steps from a kPanelAlign base stay
/// aligned for full-width vector loads on every backend.
inline constexpr size_t kPanelAlign = 64;

/// Minimal aligned allocator so panel buffers can stay std::vector<float>.
template <typename T>
struct PanelAllocator {
  using value_type = T;
  PanelAllocator() = default;
  template <typename U>
  PanelAllocator(const PanelAllocator<U>&) {}
  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t(kPanelAlign)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(kPanelAlign));
  }
  template <typename U>
  bool operator==(const PanelAllocator<U>&) const {
    return true;
  }
};

namespace detail {
/// Backend tables, defined in their per-ISA translation units (which carry
/// the arch compile flags). Each returns nullptr when the backend is not
/// compiled into this binary; runtime CPU support is checked by table_for.
const KernelTable* avx2_table();
const KernelTable* neon_table();
/// The scalar decode-attention references. The NEON table points its
/// pack_kpanel and attn_pv slots here: that backend has no vector versions
/// yet (no aarch64 toolchain to build and test them against).
void pack_kpanel_scalar(const float* const* rows, int64_t n, int64_t width, float* panel);
void attn_pv_scalar(const float* w, int64_t ldw, const float* const* v, int64_t t,
                    int64_t n_heads, int64_t dh, int64_t group, float* ctx);
}  // namespace detail

}  // namespace edgellm::simd

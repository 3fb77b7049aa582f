// Scalar reference backend + runtime dispatch state for the simd:: kernel
// table. The scalar kernels here ARE the numerics definition: every vector
// backend must reproduce their per-element IEEE op sequences bitwise (see
// simd.hpp for the full contract). This file builds with the project's
// baseline flags — no arch extensions — so its codegen cannot silently use
// instructions the scalar contract forbids (FMA contraction is off
// project-wide via -ffp-contract=off).
#include "tensor/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

#include "tensor/simd_expf.hpp"

namespace edgellm::simd {

// ---------------------------------------------------------------------------
// Shared transcendentals (reference op sequences)
// ---------------------------------------------------------------------------

using namespace detail;  // kExpHi, kLog2e, kExpC0..C5, kGelu* — shared with the vector TUs

float exp_scalar(float x) {
  if (x != x) return x;  // NaN in, the same NaN out
  if (x > kExpHi) return std::numeric_limits<float>::infinity();
  if (x < kExpLo) return 0.0f;
  // Round-to-nearest-even, matching the vector backends' explicit
  // round-to-nearest (the process runs in the default rounding mode).
  const float n = std::nearbyintf(x * kLog2e);
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  const float z = r * r;
  float p = kExpC0;
  p = p * r + kExpC1;
  p = p * r + kExpC2;
  p = p * r + kExpC3;
  p = p * r + kExpC4;
  p = p * r + kExpC5;
  p = p * z + r;
  p = p + 1.0f;
  // 2^n via exponent-field construction; n is integral in [-126, 127]
  // inside the saturation bounds, so this never denormalises or overflows.
  const uint32_t bits = static_cast<uint32_t>(static_cast<int32_t>(n) + 127) << 23;
  float two_n;
  std::memcpy(&two_n, &bits, sizeof(two_n));
  return p * two_n;
}

float sigmoid_scalar(float x) {
  // NaN passes through unchanged. This matters beyond hygiene: silu
  // computes x * sigmoid(x), and when the two operands are DIFFERENT NaN
  // bit patterns the surviving payload depends on instruction operand
  // order, which compilers don't pin. Returning x's own NaN makes both
  // multiply operands identical, so the product is that NaN at every
  // backend regardless of operand order.
  if (std::isnan(x)) return x;
  const float e = exp_scalar(-x);
  return 1.0f / (1.0f + e);
}

float gelu_scalar(float x) {
  if (std::isnan(x)) return x;
  const float u2 = kGelu2C * (x + ((kGeluA * x) * x) * x);
  return x * sigmoid_scalar(u2);
}

float gelu_grad_scalar(float x, float g) {
  if (std::isnan(x)) return x;
  if (std::isnan(g)) return g;
  const float s = sigmoid_scalar(kGelu2C * (x + ((kGeluA * x) * x) * x));
  const float du2 = kGelu2C * (1.0f + (kGelu3A * x) * x);
  return g * (s + ((x * s) * (1.0f - s)) * du2);
}

// ---------------------------------------------------------------------------
// Scalar backend kernels
// ---------------------------------------------------------------------------

namespace {

// The pre-SIMD detail::micro_kernel body, verbatim: the bitwise reference
// every vector gemm_tile must match.
void gemm_tile_scalar(const float* a, int64_t lda, const float* bp, int64_t pc, float* c,
                      int64_t ldc, int64_t mr, int64_t nr) {
  constexpr int64_t kMr = 4, kNr = 8;
  float acc[kMr][kNr];
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) acc[r][j] = c[r * ldc + j];
    for (int64_t j = nr; j < kNr; ++j) acc[r][j] = 0.0f;
  }
  if (mr == kMr) {
    // Hot full-height path: fixed trip counts keep the 4x8 grid in
    // registers even at -O2.
    for (int64_t p = 0; p < pc; ++p) {
      const float* b = bp + p * kNr;
      for (int64_t r = 0; r < kMr; ++r) {
        const float av = a[r * lda + p];
        for (int64_t j = 0; j < kNr; ++j) acc[r][j] += av * b[j];
      }
    }
  } else {
    for (int64_t p = 0; p < pc; ++p) {
      const float* b = bp + p * kNr;
      for (int64_t r = 0; r < mr; ++r) {
        const float av = a[r * lda + p];
        for (int64_t j = 0; j < kNr; ++j) acc[r][j] += av * b[j];
      }
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// Per element: acc (loaded from C) += a[r][p] * float(q[j][p0 + p]) over
// ascending p — the same chain the fp32 micro-kernel runs over a decoded
// panel, so fusing the decode changes nothing bitwise.
void dequant_dot_scalar(const float* a, int64_t lda, int64_t mr, const uint8_t* const* rows,
                        int bits, int64_t p0, int64_t pc, float* c, int64_t ldc, int64_t nr) {
  for (int64_t r = 0; r < mr; ++r) {
    const float* ar = a + r * lda;
    for (int64_t jr = 0; jr < nr; ++jr) {
      float acc = c[r * ldc + jr];
      if (bits == 8) {
        const int8_t* q = reinterpret_cast<const int8_t*>(rows[jr]) + p0;
        for (int64_t p = 0; p < pc; ++p) acc += ar[p] * static_cast<float>(q[p]);
      } else {
        const uint8_t* wrow = rows[jr];
        for (int64_t p = 0; p < pc; ++p) {
          const int64_t col = p0 + p;
          const uint8_t byte = wrow[col >> 1];
          const int32_t nib = (col & 1) ? (byte >> 4) : (byte & 0x0F);
          acc += ar[p] * static_cast<float>(nib - 8);
        }
      }
      c[r * ldc + jr] = acc;
    }
  }
}

void exp_sub_scalar(const float* x, float mx, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = exp_scalar(x[i] - mx);
}

void scale_inplace_scalar(float* y, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] *= s;
}

void silu_scalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float s = sigmoid_scalar(x[i]);
    y[i] = x[i] * s;
  }
}

void swiglu_scalar(const float* g, const float* u, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float s = sigmoid_scalar(g[i]);
    y[i] = (g[i] * s) * u[i];
  }
}

void gelu_kernel_scalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = gelu_scalar(x[i]);
}

void gelu_grad_kernel_scalar(const float* x, const float* g, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = gelu_grad_scalar(x[i], g[i]);
}

void add_scalar(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

void rms_apply_scalar(const float* x, const float* gain, float inv, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = (gain[i] * x[i]) * inv;
}

double sumsq_scalar(const float* x, int64_t n) {
  double ss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    ss += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return ss;
}

}  // namespace

void detail::pack_kpanel_scalar(const float* const* rows, int64_t n, int64_t width,
                                float* panel) {
  constexpr int64_t kNr = 8;
  for (int64_t d = 0; d < width; ++d) {
    for (int64_t r = 0; r < kNr; ++r) panel[d * kNr + r] = r < n ? rows[r][d] : 0.0f;
  }
}

// The pre-SIMD decode attention P·V loop, moved here from the decoder:
// positions outermost, then heads, then the head's dh lanes.
void detail::attn_pv_scalar(const float* w, int64_t ldw, const float* const* v, int64_t t,
                            int64_t n_heads, int64_t dh, int64_t group, float* ctx) {
  for (int64_t p = 0; p < t; ++p) {
    for (int64_t head = 0; head < n_heads; ++head) {
      const float wp = w[head * ldw + p];
      const float* vr = v[p] + (head / group) * dh;
      float* cr = ctx + head * dh;
      for (int64_t d = 0; d < dh; ++d) cr[d] = cr[d] + wp * vr[d];
    }
  }
}

namespace {

// The scalar table's fast pointers alias the deterministic kernels, so
// scalar dispatch is always the reference even in fast_math mode.
constexpr KernelTable kScalarTable = {
    .isa = Isa::kScalar,
    .gemm_tile = gemm_tile_scalar,
    .gemm_tile_fast = gemm_tile_scalar,
    .dequant_dot = dequant_dot_scalar,
    .dequant_dot_fast = dequant_dot_scalar,
    .exp_sub = exp_sub_scalar,
    .scale_inplace = scale_inplace_scalar,
    .silu = silu_scalar,
    .swiglu = swiglu_scalar,
    .gelu = gelu_kernel_scalar,
    .gelu_grad = gelu_grad_kernel_scalar,
    .add = add_scalar,
    .rms_apply = rms_apply_scalar,
    .sumsq_fast = sumsq_scalar,
    .pack_kpanel = detail::pack_kpanel_scalar,
    .attn_pv = detail::attn_pv_scalar,
};

// ---------------------------------------------------------------------------
// Detection + dispatch
// ---------------------------------------------------------------------------

Isa probe_isa() {
#if defined(__x86_64__) || defined(_M_X64)
  // The AVX2 backend uses FMA in its fast_math kernels, so both bits gate
  // together (every AVX2-era core has both).
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return Isa::kAvx2;
  return Isa::kScalar;
#elif defined(__aarch64__)
  // AdvSIMD is architecturally baseline on aarch64; the HWCAP probe guards
  // against exotic kernels that mask it.
#if defined(__linux__)
  if ((getauxval(AT_HWCAP) & HWCAP_ASIMD) == 0) return Isa::kScalar;
#endif
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* initial_table() {
  const KernelTable* t = table_for(detected_isa());
  if (t == nullptr) t = &kScalarTable;
  if (const char* env = std::getenv("EDGELLM_SIMD"); env != nullptr && env[0] != '\0') {
    const std::string name(env);
    if (name == "auto") return t;
    const KernelTable* forced = nullptr;
    if (name == "scalar") {
      forced = &kScalarTable;
    } else if (name == "avx2") {
      forced = table_for(Isa::kAvx2);
    } else if (name == "neon") {
      forced = table_for(Isa::kNeon);
    }
    if (forced != nullptr) return forced;
    std::fprintf(stderr, "edgellm: EDGELLM_SIMD=%s not usable on this host, using %s\n", env,
                 to_string(t->isa));
  }
  return t;
}

const KernelTable* active_table() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    const KernelTable* fresh = initial_table();
    // First callers race benignly: initial_table is deterministic, so
    // whichever store wins installs the same choice.
    if (g_active.compare_exchange_strong(t, fresh, std::memory_order_acq_rel)) t = fresh;
  }
  return t;
}

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "?";
}

Isa detected_isa() {
  static const Isa isa = probe_isa();
  return isa;
}

Isa active_isa() { return active_table()->isa; }

const KernelTable& kernels() { return *active_table(); }

const KernelTable* table_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return &kScalarTable;
    case Isa::kAvx2:
      return detected_isa() == Isa::kAvx2 ? detail::avx2_table() : nullptr;
    case Isa::kNeon:
      return detected_isa() == Isa::kNeon ? detail::neon_table() : nullptr;
  }
  return nullptr;
}

namespace {

const KernelTable* table_by_name(const std::string& name) {
  if (name == "auto") return table_for(detected_isa());
  if (name == "scalar") return &kScalarTable;
  if (name == "avx2") return table_for(Isa::kAvx2);
  if (name == "neon") return table_for(Isa::kNeon);
  return nullptr;
}

}  // namespace

bool set_dispatch(const std::string& name) {
  const KernelTable* t = table_by_name(name);
  if (t == nullptr) return false;
  g_active.store(t, std::memory_order_release);
  return true;
}

bool dispatch_available(const std::string& name) { return table_by_name(name) != nullptr; }

}  // namespace edgellm::simd

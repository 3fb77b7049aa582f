// NEON (aarch64 AdvSIMD) backend for the simd:: kernel table. AdvSIMD is
// architecturally baseline on aarch64, so this TU needs no extra arch
// flags — only -ffp-contract=off, which the whole project already builds
// with (aarch64 scalar code would otherwise contract a*b+c into fmadd and
// break the scalar reference itself).
//
// Determinism follows the same shape as the AVX2 backend: vectorize across
// the kNr output lane (two float32x4 halves per accumulator row), explicit
// vmul+vadd (never vfma) in the default kernels, per-element op sequences
// identical to the scalar reference. Where vectorizing cannot change the
// chain anyway (edge tiles, sub-width tails), this backend simply runs the
// reference scalar loop — bitwise equal by definition.
#include "tensor/simd.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "tensor/simd_expf.hpp"

namespace edgellm::simd {
namespace {

constexpr int64_t kMr = 4;
constexpr int64_t kNr = 8;

// ---------------------------------------------------------------------------
// Vector exp / sigmoid — the exp_scalar op sequence, lane-parallel
// ---------------------------------------------------------------------------

inline float32x4_t exp_f32x4(float32x4_t x) {
  using namespace detail;
  const float32x4_t one = vdupq_n_f32(1.0f);
  // vrndnq = round-to-nearest-even, matching scalar nearbyintf in the
  // default rounding mode.
  float32x4_t n = vrndnq_f32(vmulq_f32(x, vdupq_n_f32(kLog2e)));
  float32x4_t r = vsubq_f32(x, vmulq_f32(n, vdupq_n_f32(kLn2Hi)));
  r = vsubq_f32(r, vmulq_f32(n, vdupq_n_f32(kLn2Lo)));
  const float32x4_t z = vmulq_f32(r, r);
  float32x4_t p = vdupq_n_f32(kExpC0);
  p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(kExpC1));
  p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(kExpC2));
  p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(kExpC3));
  p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(kExpC4));
  p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(kExpC5));
  p = vaddq_f32(vmulq_f32(p, z), r);
  p = vaddq_f32(p, one);
  // n is integral inside the saturation bounds, so truncation == exact;
  // out-of-range lanes produce garbage the selects below overwrite.
  const int32x4_t e = vaddq_s32(vcvtq_s32_f32(n), vdupq_n_s32(127));
  const float32x4_t two_n = vreinterpretq_f32_s32(vshlq_n_s32(e, 23));
  float32x4_t y = vmulq_f32(p, two_n);
  // Scalar branch order: NaN first, so its select is applied last here.
  const uint32x4_t gt_hi = vcgtq_f32(x, vdupq_n_f32(kExpHi));
  const uint32x4_t lt_lo = vcltq_f32(x, vdupq_n_f32(kExpLo));
  const uint32x4_t is_nan = vmvnq_u32(vceqq_f32(x, x));
  y = vbslq_f32(gt_hi, vdupq_n_f32(__builtin_inff()), y);
  y = vbslq_f32(lt_lo, vdupq_n_f32(0.0f), y);
  y = vbslq_f32(is_nan, x, y);
  return y;
}

inline float32x4_t sigmoid_f32x4(float32x4_t x) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t e = exp_f32x4(vnegq_f32(x));  // fneg: sign-bit flip, like scalar -x
  const float32x4_t y = vdivq_f32(one, vaddq_f32(one, e));
  // NaN lanes return x unchanged, matching sigmoid_scalar (see its comment
  // on why silu needs this).
  const uint32x4_t ordered = vceqq_f32(x, x);
  return vbslq_f32(ordered, y, x);
}

// 2u = kGelu2C * (x + ((kGeluA * x) * x) * x), gelu_scalar's op order.
inline float32x4_t gelu_2u_f32x4(float32x4_t x) {
  using namespace detail;
  const float32x4_t ax = vmulq_f32(vdupq_n_f32(kGeluA), x);
  return vmulq_f32(vdupq_n_f32(kGelu2C), vaddq_f32(x, vmulq_f32(vmulq_f32(ax, x), x)));
}

inline float32x4_t gelu_f32x4(float32x4_t x) {
  const float32x4_t y = vmulq_f32(x, sigmoid_f32x4(gelu_2u_f32x4(x)));
  return vbslq_f32(vceqq_f32(x, x), y, x);  // NaN lanes return x
}

// gelu_grad_scalar lane-parallel; its early returns become the final
// selects (NaN x checked first there, so selected last here).
inline float32x4_t gelu_grad_f32x4(float32x4_t x, float32x4_t g) {
  using namespace detail;
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t s = sigmoid_f32x4(gelu_2u_f32x4(x));
  const float32x4_t du2 = vmulq_f32(
      vdupq_n_f32(kGelu2C), vaddq_f32(one, vmulq_f32(vmulq_f32(vdupq_n_f32(kGelu3A), x), x)));
  const float32x4_t t = vmulq_f32(vmulq_f32(vmulq_f32(x, s), vsubq_f32(one, s)), du2);
  float32x4_t y = vmulq_f32(g, vaddq_f32(s, t));
  y = vbslq_f32(vceqq_f32(g, g), y, g);
  return vbslq_f32(vceqq_f32(x, x), y, x);
}

// ---------------------------------------------------------------------------
// GEMM micro-kernel
// ---------------------------------------------------------------------------

// The reference chain for edge tiles — identical to the scalar backend.
void gemm_tile_ref(const float* a, int64_t lda, const float* bp, int64_t pc, float* c, int64_t ldc,
                   int64_t mr, int64_t nr) {
  float acc[kMr][kNr];
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) acc[r][j] = c[r * ldc + j];
    for (int64_t j = nr; j < kNr; ++j) acc[r][j] = 0.0f;
  }
  for (int64_t p = 0; p < pc; ++p) {
    const float* b = bp + p * kNr;
    for (int64_t r = 0; r < mr; ++r) {
      const float av = a[r * lda + p];
      for (int64_t j = 0; j < kNr; ++j) acc[r][j] += av * b[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

void gemm_tile_neon(const float* a, int64_t lda, const float* bp, int64_t pc, float* c, int64_t ldc,
                    int64_t mr, int64_t nr) {
  if (mr != kMr || nr != kNr) {
    gemm_tile_ref(a, lda, bp, pc, c, ldc, mr, nr);
    return;
  }
  float32x4_t a0l = vld1q_f32(c), a0h = vld1q_f32(c + 4);
  float32x4_t a1l = vld1q_f32(c + ldc), a1h = vld1q_f32(c + ldc + 4);
  float32x4_t a2l = vld1q_f32(c + 2 * ldc), a2h = vld1q_f32(c + 2 * ldc + 4);
  float32x4_t a3l = vld1q_f32(c + 3 * ldc), a3h = vld1q_f32(c + 3 * ldc + 4);
  for (int64_t p = 0; p < pc; ++p) {
    const float32x4_t bl = vld1q_f32(bp + p * kNr);
    const float32x4_t bh = vld1q_f32(bp + p * kNr + 4);
    const float32x4_t v0 = vdupq_n_f32(a[p]);
    a0l = vaddq_f32(a0l, vmulq_f32(v0, bl));
    a0h = vaddq_f32(a0h, vmulq_f32(v0, bh));
    const float32x4_t v1 = vdupq_n_f32(a[lda + p]);
    a1l = vaddq_f32(a1l, vmulq_f32(v1, bl));
    a1h = vaddq_f32(a1h, vmulq_f32(v1, bh));
    const float32x4_t v2 = vdupq_n_f32(a[2 * lda + p]);
    a2l = vaddq_f32(a2l, vmulq_f32(v2, bl));
    a2h = vaddq_f32(a2h, vmulq_f32(v2, bh));
    const float32x4_t v3 = vdupq_n_f32(a[3 * lda + p]);
    a3l = vaddq_f32(a3l, vmulq_f32(v3, bl));
    a3h = vaddq_f32(a3h, vmulq_f32(v3, bh));
  }
  vst1q_f32(c, a0l);
  vst1q_f32(c + 4, a0h);
  vst1q_f32(c + ldc, a1l);
  vst1q_f32(c + ldc + 4, a1h);
  vst1q_f32(c + 2 * ldc, a2l);
  vst1q_f32(c + 2 * ldc + 4, a2h);
  vst1q_f32(c + 3 * ldc, a3l);
  vst1q_f32(c + 3 * ldc + 4, a3h);
}

// fast_math variant: vfma with even/odd depth chains.
void gemm_tile_fast_neon(const float* a, int64_t lda, const float* bp, int64_t pc, float* c,
                         int64_t ldc, int64_t mr, int64_t nr) {
  if (mr != kMr || nr != kNr) {
    gemm_tile_ref(a, lda, bp, pc, c, ldc, mr, nr);
    return;
  }
  float32x4_t e[kMr][2], o[kMr][2];
  for (int64_t r = 0; r < kMr; ++r) {
    e[r][0] = vld1q_f32(c + r * ldc);
    e[r][1] = vld1q_f32(c + r * ldc + 4);
    o[r][0] = vdupq_n_f32(0.0f);
    o[r][1] = vdupq_n_f32(0.0f);
  }
  int64_t p = 0;
  for (; p + 2 <= pc; p += 2) {
    const float32x4_t b0l = vld1q_f32(bp + p * kNr), b0h = vld1q_f32(bp + p * kNr + 4);
    const float32x4_t b1l = vld1q_f32(bp + (p + 1) * kNr), b1h = vld1q_f32(bp + (p + 1) * kNr + 4);
    for (int64_t r = 0; r < kMr; ++r) {
      const float32x4_t v0 = vdupq_n_f32(a[r * lda + p]);
      const float32x4_t v1 = vdupq_n_f32(a[r * lda + p + 1]);
      e[r][0] = vfmaq_f32(e[r][0], v0, b0l);
      e[r][1] = vfmaq_f32(e[r][1], v0, b0h);
      o[r][0] = vfmaq_f32(o[r][0], v1, b1l);
      o[r][1] = vfmaq_f32(o[r][1], v1, b1h);
    }
  }
  if (p < pc) {
    const float32x4_t bl = vld1q_f32(bp + p * kNr), bh = vld1q_f32(bp + p * kNr + 4);
    for (int64_t r = 0; r < kMr; ++r) {
      const float32x4_t v = vdupq_n_f32(a[r * lda + p]);
      e[r][0] = vfmaq_f32(e[r][0], v, bl);
      e[r][1] = vfmaq_f32(e[r][1], v, bh);
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    vst1q_f32(c + r * ldc, vaddq_f32(e[r][0], o[r][0]));
    vst1q_f32(c + r * ldc + 4, vaddq_f32(e[r][1], o[r][1]));
  }
}

// ---------------------------------------------------------------------------
// Fused dequant-dot: scalar integer decode per depth (exact), vector
// accumulation across the kNr lane (the FLOP side, which is what pays).
// ---------------------------------------------------------------------------

template <bool use_fma>
void dequant_dot_impl(const float* a, int64_t lda, int64_t mr, const uint8_t* const* rows,
                      int bits, int64_t p0, int64_t pc, float* c, int64_t ldc, int64_t nr) {
  // Padded lanes re-read row 0 (valid memory); their accumulator lanes are
  // never stored back.
  const uint8_t* r8[kNr];
  for (int64_t jr = 0; jr < kNr; ++jr) r8[jr] = jr < nr ? rows[jr] : rows[0];

  float32x4_t acc[kMr][2];
  float accs[kMr][kNr];  // scalar mirror for sub-width nr (reference chain)
  const bool full = (nr == kNr);
  if (full) {
    for (int64_t r = 0; r < mr; ++r) {
      acc[r][0] = vld1q_f32(c + r * ldc);
      acc[r][1] = vld1q_f32(c + r * ldc + 4);
    }
  } else {
    for (int64_t r = 0; r < mr; ++r) {
      for (int64_t jr = 0; jr < nr; ++jr) accs[r][jr] = c[r * ldc + jr];
    }
  }

  alignas(16) float qb[kNr];
  for (int64_t p = 0; p < pc; ++p) {
    const int64_t col = p0 + p;
    if (bits == 8) {
      for (int64_t jr = 0; jr < kNr; ++jr) {
        qb[jr] = static_cast<float>(static_cast<int8_t>(r8[jr][col]));
      }
    } else {
      for (int64_t jr = 0; jr < kNr; ++jr) {
        const uint8_t byte = r8[jr][col >> 1];
        const int32_t nib = (col & 1) ? (byte >> 4) : (byte & 0x0F);
        qb[jr] = static_cast<float>(nib - 8);
      }
    }
    if (full) {
      const float32x4_t ql = vld1q_f32(qb), qh = vld1q_f32(qb + 4);
      for (int64_t r = 0; r < mr; ++r) {
        const float32x4_t av = vdupq_n_f32(a[r * lda + p]);
        if (use_fma) {
          acc[r][0] = vfmaq_f32(acc[r][0], av, ql);
          acc[r][1] = vfmaq_f32(acc[r][1], av, qh);
        } else {
          acc[r][0] = vaddq_f32(acc[r][0], vmulq_f32(av, ql));
          acc[r][1] = vaddq_f32(acc[r][1], vmulq_f32(av, qh));
        }
      }
    } else {
      for (int64_t r = 0; r < mr; ++r) {
        const float av = a[r * lda + p];
        for (int64_t jr = 0; jr < nr; ++jr) accs[r][jr] += av * qb[jr];
      }
    }
  }

  if (full) {
    for (int64_t r = 0; r < mr; ++r) {
      vst1q_f32(c + r * ldc, acc[r][0]);
      vst1q_f32(c + r * ldc + 4, acc[r][1]);
    }
  } else {
    for (int64_t r = 0; r < mr; ++r) {
      for (int64_t jr = 0; jr < nr; ++jr) c[r * ldc + jr] = accs[r][jr];
    }
  }
}

void dequant_dot_neon(const float* a, int64_t lda, int64_t mr, const uint8_t* const* rows,
                      int bits, int64_t p0, int64_t pc, float* c, int64_t ldc, int64_t nr) {
  dequant_dot_impl<false>(a, lda, mr, rows, bits, p0, pc, c, ldc, nr);
}

void dequant_dot_fast_neon(const float* a, int64_t lda, int64_t mr, const uint8_t* const* rows,
                           int bits, int64_t p0, int64_t pc, float* c, int64_t ldc, int64_t nr) {
  dequant_dot_impl<true>(a, lda, mr, rows, bits, p0, pc, c, ldc, nr);
}

// ---------------------------------------------------------------------------
// Elementwise kernels. Tails run the scalar reference per element — the op
// sequence is identical by construction (exp_scalar/sigmoid_scalar are the
// shared definitions), so there is no scalar/vector numeric seam.
// ---------------------------------------------------------------------------

void exp_sub_neon(const float* x, float mx, float* y, int64_t n) {
  const float32x4_t mv = vdupq_n_f32(mx);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, exp_f32x4(vsubq_f32(vld1q_f32(x + i), mv)));
  }
  for (; i < n; ++i) y[i] = exp_scalar(x[i] - mx);
}

void scale_inplace_neon(float* y, float s, int64_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), sv));
  for (; i < n; ++i) y[i] *= s;
}

void silu_neon(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    vst1q_f32(y + i, vmulq_f32(v, sigmoid_f32x4(v)));
  }
  for (; i < n; ++i) {
    const float s = sigmoid_scalar(x[i]);
    y[i] = x[i] * s;
  }
}

void swiglu_neon(const float* g, const float* u, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t gv = vld1q_f32(g + i);
    const float32x4_t sv = vmulq_f32(gv, sigmoid_f32x4(gv));
    vst1q_f32(y + i, vmulq_f32(sv, vld1q_f32(u + i)));
  }
  for (; i < n; ++i) {
    const float s = sigmoid_scalar(g[i]);
    y[i] = (g[i] * s) * u[i];
  }
}

void gelu_neon(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(y + i, gelu_f32x4(vld1q_f32(x + i)));
  for (; i < n; ++i) y[i] = gelu_scalar(x[i]);
}

void gelu_grad_neon(const float* x, const float* g, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, gelu_grad_f32x4(vld1q_f32(x + i), vld1q_f32(g + i)));
  }
  for (; i < n; ++i) y[i] = gelu_grad_scalar(x[i], g[i]);
}

void add_neon(const float* a, const float* b, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) vst1q_f32(y + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

void rms_apply_neon(const float* x, const float* gain, float inv, float* y, int64_t n) {
  const float32x4_t iv = vdupq_n_f32(inv);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t gx = vmulq_f32(vld1q_f32(gain + i), vld1q_f32(x + i));
    vst1q_f32(y + i, vmulq_f32(gx, iv));
  }
  for (; i < n; ++i) y[i] = (gain[i] * x[i]) * inv;
}

// fast_math sum of squares: two f64 chains over fp32 pairs.
double sumsq_fast_neon(const float* x, int64_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    const float64x2_t lo = vcvt_f64_f32(vget_low_f32(v));
    const float64x2_t hi = vcvt_f64_f32(vget_high_f32(v));
    acc0 = vfmaq_f64(acc0, lo, lo);
    acc1 = vfmaq_f64(acc1, hi, hi);
  }
  const float64x2_t acc = vaddq_f64(acc0, acc1);
  double ss = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) ss += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  return ss;
}

constexpr KernelTable kNeonTable = {
    .isa = Isa::kNeon,
    .gemm_tile = gemm_tile_neon,
    .gemm_tile_fast = gemm_tile_fast_neon,
    .dequant_dot = dequant_dot_neon,
    .dequant_dot_fast = dequant_dot_fast_neon,
    .exp_sub = exp_sub_neon,
    .scale_inplace = scale_inplace_neon,
    .silu = silu_neon,
    .swiglu = swiglu_neon,
    .gelu = gelu_neon,
    .gelu_grad = gelu_grad_neon,
    .add = add_neon,
    .rms_apply = rms_apply_neon,
    .sumsq_fast = sumsq_fast_neon,
    .pack_kpanel = detail::pack_kpanel_scalar,  // no NEON decode attention yet (simd.hpp)
    .attn_pv = detail::attn_pv_scalar,
};

}  // namespace

const KernelTable* detail::neon_table() { return &kNeonTable; }

}  // namespace edgellm::simd

#else  // non-aarch64 build: backend absent

namespace edgellm::simd {
const KernelTable* detail::neon_table() { return nullptr; }
}  // namespace edgellm::simd

#endif

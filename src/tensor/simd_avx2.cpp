// AVX2 backend for the simd:: kernel table. This translation unit is the
// only one compiled with -mavx2 -mfma (plus -ffp-contract=off, like the
// whole project), so AVX2 instructions cannot leak into code that runs on
// non-AVX2 hosts; dispatch guarantees these kernels execute only after
// __builtin_cpu_supports("avx2")/("fma") passed.
//
// Determinism: the default kernels vectorize across the kNr output lane —
// one __m256 per row of the accumulator grid, each lane an independent
// ascending-p chain — with explicit mul-then-add intrinsics (never FMA),
// so every output element performs exactly the scalar reference's op
// sequence. The *_fast kernels use FMA and a second accumulator chain and
// are only reached through the opt-in fast_math path.
#include "tensor/simd.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "tensor/simd_expf.hpp"

namespace edgellm::simd {
namespace {

constexpr int64_t kMr = 4;
constexpr int64_t kNr = 8;

// Mask with the low `w` lanes active (0 < w <= 8), for tail loads/stores.
inline __m256i tail_mask(int64_t w) {
  alignas(32) static const int32_t kSrc[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                               0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kSrc + (8 - w)));
}

// ---------------------------------------------------------------------------
// Vector exp / sigmoid — the exp_scalar op sequence, lane-parallel
// ---------------------------------------------------------------------------

inline __m256 exp_ps(__m256 x) {
  using namespace detail;
  const __m256 one = _mm256_set1_ps(1.0f);
  // Core on every lane; out-of-range lanes produce garbage that the
  // saturation/NaN selects below overwrite, mirroring the scalar branches
  // (NaN checked first in scalar => blended last here).
  __m256 n = _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
                             _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(kExpC0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC5));
  p = _mm256_add_ps(_mm256_mul_ps(p, z), r);
  p = _mm256_add_ps(p, one);
  const __m256i e = _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
  const __m256 two_n = _mm256_castsi256_ps(_mm256_slli_epi32(e, 23));
  __m256 y = _mm256_mul_ps(p, two_n);
  const __m256 inf = _mm256_set1_ps(__builtin_inff());
  y = _mm256_blendv_ps(y, inf, _mm256_cmp_ps(x, _mm256_set1_ps(kExpHi), _CMP_GT_OQ));
  y = _mm256_blendv_ps(y, _mm256_setzero_ps(), _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_LT_OQ));
  y = _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
  return y;
}

inline __m256 sigmoid_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  // -x as a sign-bit flip, exactly the scalar negation's codegen.
  const __m256 e = exp_ps(_mm256_xor_ps(x, _mm256_set1_ps(-0.0f)));
  const __m256 y = _mm256_div_ps(one, _mm256_add_ps(one, e));
  // NaN lanes return x unchanged, matching sigmoid_scalar (see its comment
  // on why silu needs this).
  return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

// 2u = kGelu2C * (x + ((kGeluA * x) * x) * x), gelu_scalar's op order.
inline __m256 gelu_2u_ps(__m256 x) {
  using namespace detail;
  const __m256 ax = _mm256_mul_ps(_mm256_set1_ps(kGeluA), x);
  return _mm256_mul_ps(_mm256_set1_ps(kGelu2C),
                       _mm256_add_ps(x, _mm256_mul_ps(_mm256_mul_ps(ax, x), x)));
}

inline __m256 nan_lanes(__m256 v) { return _mm256_cmp_ps(v, v, _CMP_UNORD_Q); }

inline __m256 gelu_ps(__m256 x) {
  const __m256 y = _mm256_mul_ps(x, sigmoid_ps(gelu_2u_ps(x)));
  return _mm256_blendv_ps(y, x, nan_lanes(x));
}

// gelu_grad_scalar lane-parallel; its early returns become the final
// blends (NaN x checked first there, so blended last here).
inline __m256 gelu_grad_ps(__m256 x, __m256 g) {
  using namespace detail;
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 s = sigmoid_ps(gelu_2u_ps(x));
  const __m256 du2 = _mm256_mul_ps(
      _mm256_set1_ps(kGelu2C),
      _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGelu3A), x), x)));
  const __m256 t = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(x, s), _mm256_sub_ps(one, s)), du2);
  __m256 y = _mm256_mul_ps(g, _mm256_add_ps(s, t));
  y = _mm256_blendv_ps(y, g, nan_lanes(g));
  return _mm256_blendv_ps(y, x, nan_lanes(x));
}

// ---------------------------------------------------------------------------
// GEMM micro-kernel
// ---------------------------------------------------------------------------

// Edge tiles (a partial row strip or the nr < kNr column tail) at a
// compile-time row count, so the MR row accumulators stay in registers:
// decode runs 1-3 row strips on every call. Full-width tiles use unmasked
// C I/O; the column tail uses masked C I/O, and since padded panel lanes
// are zero, inactive accumulator lanes stay zero and the maskstore never
// touches them.
template <int64_t MR>
inline void gemm_tile_edge_avx2(const float* a, int64_t lda, const float* bp, int64_t pc,
                                float* c, int64_t ldc, int64_t nr) {
  const bool full = nr == kNr;
  const __m256i m = tail_mask(nr);
  __m256 acc[MR];
#pragma GCC unroll 4
  for (int64_t r = 0; r < MR; ++r) {
    acc[r] = full ? _mm256_loadu_ps(c + r * ldc) : _mm256_maskload_ps(c + r * ldc, m);
  }
  for (int64_t p = 0; p < pc; ++p) {
    const __m256 b = _mm256_load_ps(bp + p * kNr);
#pragma GCC unroll 4
    for (int64_t r = 0; r < MR; ++r) {
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_broadcast_ss(a + r * lda + p), b));
    }
  }
#pragma GCC unroll 4
  for (int64_t r = 0; r < MR; ++r) {
    if (full) {
      _mm256_storeu_ps(c + r * ldc, acc[r]);
    } else {
      _mm256_maskstore_ps(c + r * ldc, m, acc[r]);
    }
  }
}

void gemm_tile_avx2(const float* a, int64_t lda, const float* bp, int64_t pc, float* c,
                    int64_t ldc, int64_t mr, int64_t nr) {
  if (mr == kMr && nr == kNr) {
    // Hot interior tile: 4 row accumulators, full-width unmasked C I/O,
    // aligned panel loads (panels are kPanelAlign-based at 8-float steps).
    __m256 acc0 = _mm256_loadu_ps(c);
    __m256 acc1 = _mm256_loadu_ps(c + ldc);
    __m256 acc2 = _mm256_loadu_ps(c + 2 * ldc);
    __m256 acc3 = _mm256_loadu_ps(c + 3 * ldc);
    for (int64_t p = 0; p < pc; ++p) {
      const __m256 b = _mm256_load_ps(bp + p * kNr);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(a + p), b));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(a + lda + p), b));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2 * lda + p), b));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3 * lda + p), b));
    }
    _mm256_storeu_ps(c, acc0);
    _mm256_storeu_ps(c + ldc, acc1);
    _mm256_storeu_ps(c + 2 * ldc, acc2);
    _mm256_storeu_ps(c + 3 * ldc, acc3);
    return;
  }
  switch (mr) {
    case 4: return gemm_tile_edge_avx2<4>(a, lda, bp, pc, c, ldc, nr);
    case 3: return gemm_tile_edge_avx2<3>(a, lda, bp, pc, c, ldc, nr);
    case 2: return gemm_tile_edge_avx2<2>(a, lda, bp, pc, c, ldc, nr);
    default: return gemm_tile_edge_avx2<1>(a, lda, bp, pc, c, ldc, nr);
  }
}

// fast_math variant: FMA plus a second accumulator chain over the k lane
// (even/odd p interleave), combined once at the end. Not bitwise with the
// reference — reached only through the opt-in fast_math path.
void gemm_tile_fast_avx2(const float* a, int64_t lda, const float* bp, int64_t pc, float* c,
                         int64_t ldc, int64_t mr, int64_t nr) {
  const __m256i m = tail_mask(nr);
  const bool full = (nr == kNr);
  __m256 acc0[kMr], acc1[kMr];
  for (int64_t r = 0; r < mr; ++r) {
    acc0[r] = full ? _mm256_loadu_ps(c + r * ldc) : _mm256_maskload_ps(c + r * ldc, m);
    acc1[r] = _mm256_setzero_ps();
  }
  int64_t p = 0;
  for (; p + 2 <= pc; p += 2) {
    const __m256 b0 = _mm256_load_ps(bp + p * kNr);
    const __m256 b1 = _mm256_load_ps(bp + (p + 1) * kNr);
    for (int64_t r = 0; r < mr; ++r) {
      acc0[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p), b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p + 1), b1, acc1[r]);
    }
  }
  if (p < pc) {
    const __m256 b = _mm256_load_ps(bp + p * kNr);
    for (int64_t r = 0; r < mr; ++r) {
      acc0[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p), b, acc0[r]);
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    const __m256 s = _mm256_add_ps(acc0[r], acc1[r]);
    if (full) {
      _mm256_storeu_ps(c + r * ldc, s);
    } else {
      _mm256_maskstore_ps(c + r * ldc, m, s);
    }
  }
}

// ---------------------------------------------------------------------------
// Fused dequant-dot
// ---------------------------------------------------------------------------

// 8x8 in-register float transpose (unpack / shuffle / permute2f128).
inline void transpose8(__m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// Eight int8 values at `src` -> fp32 vector (exact for |q| <= 127).
inline __m256 int8_load8(const uint8_t* src) {
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
}

// Four packed int4 bytes at `src` (even column alignment) -> the eight
// nibble values in column order, offset-decoded to [-8, 7], as fp32.
inline __m256 int4_expand8(const uint8_t* src) {
  uint32_t u;
  std::memcpy(&u, src, sizeof(u));
  const __m128i v = _mm_cvtsi32_si128(static_cast<int>(u));
  const __m128i lo = _mm_and_si128(v, _mm_set1_epi8(0x0F));
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), _mm_set1_epi8(0x0F));
  // Interleave low/high nibbles into column order, then apply the -8 offset.
  const __m128i q = _mm_sub_epi8(_mm_unpacklo_epi8(lo, hi), _mm_set1_epi8(8));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q));
}

void dequant_dot_avx2(const float* a, int64_t lda, int64_t mr, const uint8_t* const* rows,
                      int bits, int64_t p0, int64_t pc, float* c, int64_t ldc, int64_t nr) {
  // Padded lanes re-read row 0: their accumulator lanes compute garbage
  // that the masked store never writes, and row 0 is always a valid read.
  const uint8_t* r8[kNr];
  for (int64_t jr = 0; jr < kNr; ++jr) r8[jr] = jr < nr ? rows[jr] : rows[0];

  const bool full = (nr == kNr);
  const __m256i m = tail_mask(nr);
  __m256 acc[kMr];
  for (int64_t r = 0; r < mr; ++r) {
    acc[r] = full ? _mm256_loadu_ps(c + r * ldc) : _mm256_maskload_ps(c + r * ldc, m);
  }

  // One depth step with scalar decode (head realignment for odd int4 p0,
  // and the sub-8 tail): the accumulation itself stays vector mul+add, so
  // the per-element chain is unchanged.
  const auto step_one = [&](int64_t p) {
    alignas(32) float qb[kNr];
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
    const __m256 q = _mm256_load_ps(qb);
    for (int64_t r = 0; r < mr; ++r) {
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_broadcast_ss(a + r * lda + p), q));
    }
  };

  int64_t p = 0;
  if (bits == 4 && ((p0 & 1) != 0) && p < pc) {
    step_one(p);
    ++p;
  }
  // Body: decode an 8x8 block (8 weight rows x 8 depths) into registers,
  // transpose to depth-major, accumulate depth by depth in ascending order.
  for (; p + 8 <= pc; p += 8) {
    __m256 q[kNr];
    if (bits == 8) {
      for (int64_t jr = 0; jr < kNr; ++jr) q[jr] = int8_load8(r8[jr] + (p0 + p));
    } else {
      for (int64_t jr = 0; jr < kNr; ++jr) q[jr] = int4_expand8(r8[jr] + ((p0 + p) >> 1));
    }
    transpose8(q);
    for (int64_t t = 0; t < 8; ++t) {
      for (int64_t r = 0; r < mr; ++r) {
        acc[r] =
            _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_broadcast_ss(a + r * lda + p + t), q[t]));
      }
    }
  }
  for (; p < pc; ++p) step_one(p);

  for (int64_t r = 0; r < mr; ++r) {
    if (full) {
      _mm256_storeu_ps(c + r * ldc, acc[r]);
    } else {
      _mm256_maskstore_ps(c + r * ldc, m, acc[r]);
    }
  }
}

// fast_math variant: FMA with even/odd depth chains inside each 8-block.
void dequant_dot_fast_avx2(const float* a, int64_t lda, int64_t mr, const uint8_t* const* rows,
                           int bits, int64_t p0, int64_t pc, float* c, int64_t ldc, int64_t nr) {
  const uint8_t* r8[kNr];
  for (int64_t jr = 0; jr < kNr; ++jr) r8[jr] = jr < nr ? rows[jr] : rows[0];

  const bool full = (nr == kNr);
  const __m256i m = tail_mask(nr);
  __m256 acc0[kMr], acc1[kMr];
  for (int64_t r = 0; r < mr; ++r) {
    acc0[r] = full ? _mm256_loadu_ps(c + r * ldc) : _mm256_maskload_ps(c + r * ldc, m);
    acc1[r] = _mm256_setzero_ps();
  }

  const auto step_one = [&](int64_t p) {
    alignas(32) float qb[kNr];
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
    const __m256 q = _mm256_load_ps(qb);
    for (int64_t r = 0; r < mr; ++r) {
      acc0[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p), q, acc0[r]);
    }
  };

  int64_t p = 0;
  if (bits == 4 && ((p0 & 1) != 0) && p < pc) {
    step_one(p);
    ++p;
  }
  for (; p + 8 <= pc; p += 8) {
    __m256 q[kNr];
    if (bits == 8) {
      for (int64_t jr = 0; jr < kNr; ++jr) q[jr] = int8_load8(r8[jr] + (p0 + p));
    } else {
      for (int64_t jr = 0; jr < kNr; ++jr) q[jr] = int4_expand8(r8[jr] + ((p0 + p) >> 1));
    }
    transpose8(q);
    for (int64_t t = 0; t < 8; t += 2) {
      for (int64_t r = 0; r < mr; ++r) {
        acc0[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p + t), q[t], acc0[r]);
        acc1[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p + t + 1), q[t + 1], acc1[r]);
      }
    }
  }
  for (; p < pc; ++p) step_one(p);

  for (int64_t r = 0; r < mr; ++r) {
    const __m256 s = _mm256_add_ps(acc0[r], acc1[r]);
    if (full) {
      _mm256_storeu_ps(c + r * ldc, s);
    } else {
      _mm256_maskstore_ps(c + r * ldc, m, s);
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise kernels (masked vector tails keep every element on the same
// vector op sequence — no scalar/vector seam inside one array)
// ---------------------------------------------------------------------------

void exp_sub_avx2(const float* x, float mx, float* y, int64_t n) {
  const __m256 mv = _mm256_set1_ps(mx);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, exp_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), mv)));
  }
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    const __m256 v = exp_ps(_mm256_sub_ps(_mm256_maskload_ps(x + i, m), mv));
    _mm256_maskstore_ps(y + i, m, v);
  }
}

void scale_inplace_avx2(float* y, float s, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), sv));
  }
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    _mm256_maskstore_ps(y + i, m, _mm256_mul_ps(_mm256_maskload_ps(y + i, m), sv));
  }
}

void silu_avx2(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_mul_ps(v, sigmoid_ps(v)));
  }
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    const __m256 v = _mm256_maskload_ps(x + i, m);
    _mm256_maskstore_ps(y + i, m, _mm256_mul_ps(v, sigmoid_ps(v)));
  }
}

void swiglu_avx2(const float* g, const float* u, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 sv = _mm256_mul_ps(gv, sigmoid_ps(gv));
    _mm256_storeu_ps(y + i, _mm256_mul_ps(sv, _mm256_loadu_ps(u + i)));
  }
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    const __m256 gv = _mm256_maskload_ps(g + i, m);
    const __m256 sv = _mm256_mul_ps(gv, sigmoid_ps(gv));
    _mm256_maskstore_ps(y + i, m, _mm256_mul_ps(sv, _mm256_maskload_ps(u + i, m)));
  }
}

void gelu_avx2(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(y + i, gelu_ps(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    _mm256_maskstore_ps(y + i, m, gelu_ps(_mm256_maskload_ps(x + i, m)));
  }
}

void gelu_grad_avx2(const float* x, const float* g, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, gelu_grad_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(g + i)));
  }
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    _mm256_maskstore_ps(y + i, m,
                        gelu_grad_ps(_mm256_maskload_ps(x + i, m), _mm256_maskload_ps(g + i, m)));
  }
}

void add_avx2(const float* a, const float* b, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    _mm256_maskstore_ps(y + i, m,
                        _mm256_add_ps(_mm256_maskload_ps(a + i, m), _mm256_maskload_ps(b + i, m)));
  }
}

void rms_apply_avx2(const float* x, const float* gain, float inv, float* y, int64_t n) {
  const __m256 iv = _mm256_set1_ps(inv);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gx = _mm256_mul_ps(_mm256_loadu_ps(gain + i), _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_mul_ps(gx, iv));
  }
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    const __m256 gx = _mm256_mul_ps(_mm256_maskload_ps(gain + i, m), _mm256_maskload_ps(x + i, m));
    _mm256_maskstore_ps(y + i, m, _mm256_mul_ps(gx, iv));
  }
}

// fast_math sum of squares: two f64 accumulator chains over fp32 pairs.
double sumsq_fast_avx2(const float* x, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double ss = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) ss += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  return ss;
}

// ---------------------------------------------------------------------------
// Decode attention P·V
// ---------------------------------------------------------------------------

// Eight depths at a time: load the kNr rows' [d, d+8) slices (zero for
// lanes r >= n), transpose in registers, store eight panel rows. A depth
// tail below 8 falls back to scalar copies.
void pack_kpanel_avx2(const float* const* rows, int64_t n, int64_t width, float* panel) {
  int64_t d = 0;
  for (; d + kNr <= width; d += kNr) {
    __m256 v[kNr];
    for (int64_t r = 0; r < kNr; ++r) {
      v[r] = r < n ? _mm256_loadu_ps(rows[r] + d) : _mm256_setzero_ps();
    }
    transpose8(v);
    for (int64_t i = 0; i < kNr; ++i) _mm256_store_ps(panel + (d + i) * kNr, v[i]);
  }
  for (; d < width; ++d) {
    for (int64_t r = 0; r < kNr; ++r) panel[d * kNr + r] = r < n ? rows[r][d] : 0.0f;
  }
}

// NV 8-lane ctx vectors starting at lane i0, held in registers over every
// position. dh is a multiple of 8, so each vector lies inside one head: its
// weight is one broadcast and its V lanes one contiguous load. Each lane is
// the reference chain ctx + w * v over ascending p.
template <int64_t NV>
void attn_pv_block_avx2(const float* w, int64_t ldw, const float* const* v, int64_t t,
                        int64_t i0, int64_t dh, int64_t group, float* ctx) {
  __m256 acc[NV];
  int64_t w_off[NV], v_off[NV];
#pragma GCC unroll 8
  for (int64_t j = 0; j < NV; ++j) {
    const int64_t i = i0 + j * kNr;
    const int64_t head = i / dh;
    w_off[j] = head * ldw;
    v_off[j] = (head / group) * dh + i % dh;
    acc[j] = _mm256_loadu_ps(ctx + i);
  }
  for (int64_t p = 0; p < t; ++p) {
    const float* vr = v[p];
#pragma GCC unroll 8
    for (int64_t j = 0; j < NV; ++j) {
      const __m256 wv = _mm256_broadcast_ss(w + w_off[j] + p);
      acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(wv, _mm256_loadu_ps(vr + v_off[j])));
    }
  }
#pragma GCC unroll 8
  for (int64_t j = 0; j < NV; ++j) _mm256_storeu_ps(ctx + i0 + j * kNr, acc[j]);
}

// Head sizes that are not a multiple of 8 run the scalar reference: no
// measured workload has one.
void attn_pv_avx2(const float* w, int64_t ldw, const float* const* v, int64_t t,
                  int64_t n_heads, int64_t dh, int64_t group, float* ctx) {
  if (dh % kNr != 0) {
    detail::attn_pv_scalar(w, ldw, v, t, n_heads, dh, group, ctx);
    return;
  }
  constexpr int64_t kMaxVecs = 8;  // 64 ctx lanes: 8 accumulators + temporaries fit 16 ymm
  const int64_t n = n_heads * dh;
  for (int64_t i0 = 0; i0 < n; i0 += kMaxVecs * kNr) {
    switch (std::min<int64_t>(kMaxVecs, (n - i0) / kNr)) {
      case 8: attn_pv_block_avx2<8>(w, ldw, v, t, i0, dh, group, ctx); break;
      case 7: attn_pv_block_avx2<7>(w, ldw, v, t, i0, dh, group, ctx); break;
      case 6: attn_pv_block_avx2<6>(w, ldw, v, t, i0, dh, group, ctx); break;
      case 5: attn_pv_block_avx2<5>(w, ldw, v, t, i0, dh, group, ctx); break;
      case 4: attn_pv_block_avx2<4>(w, ldw, v, t, i0, dh, group, ctx); break;
      case 3: attn_pv_block_avx2<3>(w, ldw, v, t, i0, dh, group, ctx); break;
      case 2: attn_pv_block_avx2<2>(w, ldw, v, t, i0, dh, group, ctx); break;
      default: attn_pv_block_avx2<1>(w, ldw, v, t, i0, dh, group, ctx); break;
    }
  }
}

constexpr KernelTable kAvx2Table = {
    .isa = Isa::kAvx2,
    .gemm_tile = gemm_tile_avx2,
    .gemm_tile_fast = gemm_tile_fast_avx2,
    .dequant_dot = dequant_dot_avx2,
    .dequant_dot_fast = dequant_dot_fast_avx2,
    .exp_sub = exp_sub_avx2,
    .scale_inplace = scale_inplace_avx2,
    .silu = silu_avx2,
    .swiglu = swiglu_avx2,
    .gelu = gelu_avx2,
    .gelu_grad = gelu_grad_avx2,
    .add = add_avx2,
    .rms_apply = rms_apply_avx2,
    .sumsq_fast = sumsq_fast_avx2,
    .pack_kpanel = pack_kpanel_avx2,
    .attn_pv = attn_pv_avx2,
};

}  // namespace

const KernelTable* detail::avx2_table() { return &kAvx2Table; }

}  // namespace edgellm::simd

#else  // non-x86 build: backend absent

namespace edgellm::simd {
const KernelTable* detail::avx2_table() { return nullptr; }
}  // namespace edgellm::simd

#endif

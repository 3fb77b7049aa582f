// Internal: the shared constants of the polynomial expf (Cephes lineage,
// sse_mathfun coefficients) and of the GELU built on it. simd.cpp's exp_scalar is the reference op
// sequence; the vector backends include this header so their cores use
// bit-identical constants. Not part of the public simd.hpp surface.
#pragma once

namespace edgellm::simd::detail {

inline constexpr float kExpHi = 88.3762626647949f;
inline constexpr float kExpLo = -87.3365478515625f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kExpC0 = 1.9875691500e-4f;
inline constexpr float kExpC1 = 1.3981999507e-3f;
inline constexpr float kExpC2 = 8.3334519073e-3f;
inline constexpr float kExpC3 = 4.1665795894e-2f;
inline constexpr float kExpC4 = 1.6666665459e-1f;
inline constexpr float kExpC5 = 5.0000001201e-1f;

// GELU: 2u = kGelu2C * (x + kGeluA * x^3), u'(x) * 2 = kGelu2C * (1 + kGelu3A * x^2).
inline constexpr float kGelu2C = 1.5957691216057308f;  // 2 * sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;
inline constexpr float kGelu3A = 3.0f * kGeluA;

}  // namespace edgellm::simd::detail

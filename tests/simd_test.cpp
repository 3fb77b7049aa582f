// Differential suite for the runtime-dispatched SIMD kernel family
// (tensor/simd.hpp): every default-path kernel must be BITWISE identical
// to the scalar reference table at any dispatch choice and thread count —
// on tile-boundary shapes, odd tails, odd int4 nibble alignments, and
// NaN/Inf inputs — while the opt-in fast_math kernels are held to a
// tolerance instead. Run alone with `ctest -L simd`.
//
// On hosts whose best backend IS the scalar table (no AVX2/NEON), the
// native-vs-scalar comparisons degenerate to scalar-vs-scalar and pass
// trivially; the dispatch round-trip and fast-math tests still bite.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "quant/packed.hpp"
#include "serve/engine.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "test_util.hpp"

namespace edgellm {
namespace {

using edgellm::testing::DispatchScope;
using edgellm::testing::greedy_request;
using edgellm::testing::seq_tokens;
using edgellm::testing::serve_batch;
using edgellm::testing::tiny_config;
namespace gemm = ops::gemm;

Tensor rand_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = rng.uniform(-1.0f, 1.0f);
  return t;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got.data()[i]), std::bit_cast<uint32_t>(want.data()[i]))
        << what << " element " << i << ": got " << got.data()[i] << " want " << want.data()[i];
  }
}

void expect_bitwise_equal(const float* got, const float* want, int64_t n,
                          const std::string& what) {
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << " element " << i << ": got " << got[i] << " want " << want[i];
  }
}

// --- dispatch plumbing ------------------------------------------------------

TEST(SimdDispatch, RoundTripAndValidation) {
  DispatchScope scope;
  ASSERT_TRUE(simd::dispatch_available("scalar"));
  ASSERT_TRUE(simd::dispatch_available("auto"));
  EXPECT_FALSE(simd::dispatch_available("avx512"));

  ASSERT_TRUE(simd::set_dispatch("scalar"));
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);

  ASSERT_TRUE(simd::set_dispatch("auto"));
  EXPECT_EQ(simd::active_isa(), simd::detected_isa());

  // Unknown / unavailable names leave dispatch unchanged.
  const simd::Isa before = simd::active_isa();
  EXPECT_FALSE(simd::set_dispatch("bogus"));
  EXPECT_EQ(simd::active_isa(), before);
}

TEST(SimdDispatch, TablesCompleteAndNamed) {
  const simd::KernelTable* scalar = simd::table_for(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->isa, simd::Isa::kScalar);
  const simd::KernelTable* native = simd::table_for(simd::detected_isa());
  ASSERT_NE(native, nullptr);
  for (const simd::KernelTable* t : {scalar, native}) {
    EXPECT_NE(t->gemm_tile, nullptr);
    EXPECT_NE(t->gemm_tile_fast, nullptr);
    EXPECT_NE(t->dequant_dot, nullptr);
    EXPECT_NE(t->dequant_dot_fast, nullptr);
    EXPECT_NE(t->exp_sub, nullptr);
    EXPECT_NE(t->scale_inplace, nullptr);
    EXPECT_NE(t->silu, nullptr);
    EXPECT_NE(t->swiglu, nullptr);
    EXPECT_NE(t->gelu, nullptr);
    EXPECT_NE(t->gelu_grad, nullptr);
    EXPECT_NE(t->add, nullptr);
    EXPECT_NE(t->rms_apply, nullptr);
    EXPECT_NE(t->sumsq_fast, nullptr);
    EXPECT_NE(t->pack_kpanel, nullptr);
    EXPECT_NE(t->attn_pv, nullptr);
  }
  EXPECT_STREQ(simd::to_string(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::to_string(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::to_string(simd::Isa::kNeon), "neon");
}

// --- the shared polynomial exp ----------------------------------------------

TEST(SimdExp, SaturationNaNAndAccuracy) {
  EXPECT_EQ(simd::exp_scalar(0.0f), 1.0f);
  EXPECT_EQ(simd::exp_scalar(89.0f), std::numeric_limits<float>::infinity());
  EXPECT_EQ(simd::exp_scalar(std::numeric_limits<float>::infinity()),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(simd::exp_scalar(-88.0f), 0.0f);
  EXPECT_EQ(simd::exp_scalar(-std::numeric_limits<float>::infinity()), 0.0f);
  // NaN passes through with its payload untouched.
  const float nan_in = std::bit_cast<float>(0x7fc12345u);
  EXPECT_EQ(std::bit_cast<uint32_t>(simd::exp_scalar(nan_in)), 0x7fc12345u);
  // ~1 ulp agreement with libm across the non-saturating range.
  for (float x = -80.0f; x <= 80.0f; x += 0.37f) {
    const double want = std::exp(static_cast<double>(x));
    EXPECT_NEAR(simd::exp_scalar(x) / want, 1.0, 1e-6) << "x=" << x;
  }
  // sigmoid is exp-based and bounded.
  EXPECT_EQ(simd::sigmoid_scalar(0.0f), 0.5f);
  EXPECT_NEAR(simd::sigmoid_scalar(10.0f), 1.0f, 1e-4f);
  EXPECT_NEAR(simd::sigmoid_scalar(-10.0f), 0.0f, 1e-4f);
}

// --- kernel-level bitwise equivalence: GEMM micro-tile ----------------------

TEST(SimdBitwise, GemmTileMatchesScalarAllEdges) {
  const simd::KernelTable* scalar = simd::table_for(simd::Isa::kScalar);
  const simd::KernelTable* native = simd::table_for(simd::detected_isa());
  Rng rng(101);
  const int64_t kNr = gemm::kNr;
  for (int64_t pc : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{7}, int64_t{8}, int64_t{37}}) {
    // Panel: pc x kNr, 64-byte aligned like the real packers produce.
    std::vector<float, simd::PanelAllocator<float>> panel(static_cast<size_t>(pc * kNr));
    for (int64_t mr = 1; mr <= gemm::kMr; ++mr) {
      for (int64_t nr = 1; nr <= kNr; ++nr) {
        for (auto& v : panel) v = 0.0f;
        for (int64_t p = 0; p < pc; ++p) {
          for (int64_t j = 0; j < nr; ++j) panel[p * kNr + j] = rng.uniform(-1.0f, 1.0f);
        }
        const int64_t lda = pc + 3;  // sub-stride access like a real A block
        std::vector<float> a(static_cast<size_t>(mr * lda));
        for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
        const int64_t ldc = nr + 2;
        std::vector<float> c0(static_cast<size_t>(mr * ldc));
        for (auto& v : c0) v = rng.uniform(-1.0f, 1.0f);  // accumulate-into
        std::vector<float> c1 = c0;
        scalar->gemm_tile(a.data(), lda, panel.data(), pc, c0.data(), ldc, mr, nr);
        native->gemm_tile(a.data(), lda, panel.data(), pc, c1.data(), ldc, mr, nr);
        expect_bitwise_equal(c1.data(), c0.data(), mr * ldc,
                             "gemm_tile mr=" + std::to_string(mr) + " nr=" + std::to_string(nr) +
                                 " pc=" + std::to_string(pc));
      }
    }
  }
}

// --- kernel-level bitwise equivalence: fused dequant-dot --------------------

TEST(SimdBitwise, DequantDotMatchesScalarAllEdges) {
  const simd::KernelTable* scalar = simd::table_for(simd::Isa::kScalar);
  const simd::KernelTable* native = simd::table_for(simd::detected_isa());
  Rng rng(202);
  const int64_t kNr = gemm::kNr;
  const int64_t cols = 64;  // full weight-row width the payloads represent
  for (int bits : {4, 8}) {
    // Eight packed weight rows of `cols` columns each.
    const int64_t row_bytes = bits == 4 ? (cols + 1) / 2 : cols;
    std::vector<std::vector<uint8_t>> payload(static_cast<size_t>(kNr));
    for (auto& row : payload) {
      row.resize(static_cast<size_t>(row_bytes));
      for (auto& b : row) {
        // int8 stays within the symmetric-quant range [-127, 127]; any
        // nibble pattern is a valid int4 payload.
        b = static_cast<uint8_t>(static_cast<int32_t>(rng.uniform(0.0f, 255.0f)));
        if (bits == 8 && b == 0x80) b = 0;  // avoid -128 (packer never emits it)
      }
    }
    for (int64_t p0 : {int64_t{0}, int64_t{1}, int64_t{5}, int64_t{8}}) {
      for (int64_t pc : {int64_t{1}, int64_t{3}, int64_t{8}, int64_t{17}}) {
        if (p0 + pc > cols) continue;
        for (int64_t mr = 1; mr <= gemm::kMr; ++mr) {
          for (int64_t nr = 1; nr <= kNr; ++nr) {
            const uint8_t* rows[8] = {nullptr};
            for (int64_t jr = 0; jr < nr; ++jr) rows[jr] = payload[static_cast<size_t>(jr)].data();
            const int64_t lda = cols;
            std::vector<float> a(static_cast<size_t>(mr * lda));
            for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
            const int64_t ldc = nr + 1;
            std::vector<float> c0(static_cast<size_t>(mr * ldc));
            for (auto& v : c0) v = rng.uniform(-1.0f, 1.0f);
            std::vector<float> c1 = c0;
            // `a` is indexed relative to the depth block: pass the block base.
            scalar->dequant_dot(a.data(), lda, mr, rows, bits, p0, pc, c0.data(), ldc, nr);
            native->dequant_dot(a.data(), lda, mr, rows, bits, p0, pc, c1.data(), ldc, nr);
            expect_bitwise_equal(c1.data(), c0.data(), mr * ldc,
                                 "dequant_dot bits=" + std::to_string(bits) +
                                     " p0=" + std::to_string(p0) + " pc=" + std::to_string(pc) +
                                     " mr=" + std::to_string(mr) + " nr=" + std::to_string(nr));
          }
        }
      }
    }
  }
}

// --- kernel-level bitwise equivalence: elementwise --------------------------

TEST(SimdBitwise, ElementwiseMatchScalarIncludingNonFinite) {
  const simd::KernelTable* scalar = simd::table_for(simd::Isa::kScalar);
  const simd::KernelTable* native = simd::table_for(simd::detected_isa());
  Rng rng(303);
  for (int64_t n : {int64_t{1}, int64_t{2}, int64_t{7}, int64_t{8}, int64_t{9}, int64_t{31},
                    int64_t{64}, int64_t{1000}}) {
    std::vector<float> x(static_cast<size_t>(n)), b(static_cast<size_t>(n)),
        gain(static_cast<size_t>(n));
    for (auto& v : x) v = rng.uniform(-6.0f, 6.0f);
    for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
    for (auto& v : gain) v = rng.uniform(0.5f, 1.5f);
    if (n >= 8) {
      // Plant non-finite values at a vector-body index and in the tail.
      x[3] = std::numeric_limits<float>::quiet_NaN();
      x[static_cast<size_t>(n) - 1] = std::numeric_limits<float>::infinity();
      x[static_cast<size_t>(n) - 2] = -std::numeric_limits<float>::infinity();
    }
    // gelu_grad's upstream gradient: NaNs with their own payloads, one
    // alongside x's NaN (x's must win) and one on its own, plus an Inf.
    std::vector<float> g = b;
    if (n >= 8) {
      g[3] = std::bit_cast<float>(0x7fc54321u);
      g[5] = std::bit_cast<float>(0xffc12345u);
      g[static_cast<size_t>(n) - 3] = std::numeric_limits<float>::infinity();
    }
    std::vector<float> y0(static_cast<size_t>(n)), y1(static_cast<size_t>(n));
    const std::string tag = " n=" + std::to_string(n);

    scalar->exp_sub(x.data(), 0.5f, y0.data(), n);
    native->exp_sub(x.data(), 0.5f, y1.data(), n);
    expect_bitwise_equal(y1.data(), y0.data(), n, "exp_sub" + tag);

    y0 = x;
    y1 = x;
    scalar->scale_inplace(y0.data(), 0.3125f, n);
    native->scale_inplace(y1.data(), 0.3125f, n);
    expect_bitwise_equal(y1.data(), y0.data(), n, "scale_inplace" + tag);

    scalar->silu(x.data(), y0.data(), n);
    native->silu(x.data(), y1.data(), n);
    expect_bitwise_equal(y1.data(), y0.data(), n, "silu" + tag);

    scalar->swiglu(x.data(), b.data(), y0.data(), n);
    native->swiglu(x.data(), b.data(), y1.data(), n);
    expect_bitwise_equal(y1.data(), y0.data(), n, "swiglu" + tag);

    scalar->gelu(x.data(), y0.data(), n);
    native->gelu(x.data(), y1.data(), n);
    expect_bitwise_equal(y1.data(), y0.data(), n, "gelu" + tag);

    scalar->gelu_grad(x.data(), g.data(), y0.data(), n);
    native->gelu_grad(x.data(), g.data(), y1.data(), n);
    expect_bitwise_equal(y1.data(), y0.data(), n, "gelu_grad" + tag);

    scalar->add(x.data(), b.data(), y0.data(), n);
    native->add(x.data(), b.data(), y1.data(), n);
    expect_bitwise_equal(y1.data(), y0.data(), n, "add" + tag);

    scalar->rms_apply(x.data(), gain.data(), 0.8671875f, y0.data(), n);
    native->rms_apply(x.data(), gain.data(), 0.8671875f, y1.data(), n);
    expect_bitwise_equal(y1.data(), y0.data(), n, "rms_apply" + tag);
  }
}

// --- op-level bitwise equivalence across dispatch and threads ---------------

// Shapes that stress micro-tile boundaries (kMr=4, kNr=8) and odd tails;
// blocking {4,3,8} forces odd kc so the int4 kernel's misaligned-nibble
// head path runs at k-block seams. Covers every GEMM layout (NN/NT/TN, 2-d
// and batched), packed NT, and the elementwise ops including GELU.
TEST(SimdBitwise, OpsIdenticalAcrossDispatchAndThreads) {
  DispatchScope scope;
  Rng rng(404);
  const struct {
    int64_t m, k, n;
  } shapes[] = {{1, 1, 1}, {3, 5, 8}, {4, 7, 9}, {13, 17, 23}, {7, 33, 40}};
  const gemm::Blocking blockings[] = {gemm::Blocking{}, gemm::Blocking{4, 3, 8}};

  for (const auto& s : shapes) {
    const Tensor a = rand_tensor({s.m, s.k}, rng);
    const Tensor bt = rand_tensor({s.n, s.k}, rng);
    const Tensor gate = rand_tensor({s.m, s.n}, rng);
    const Tensor up = rand_tensor({s.m, s.n}, rng);
    const Tensor gain = rand_tensor({s.k}, rng);
    const quant::PackedMatrix w4 = quant::PackedMatrix::pack(bt, 4);
    const quant::PackedMatrix w8 = quant::PackedMatrix::pack(bt, 8);
    // TN and batched (3 slices) operands of the same per-slice shape.
    const Tensor at = rand_tensor({s.k, s.m}, rng);
    const Tensor b = rand_tensor({s.k, s.n}, rng);
    const Tensor ba = rand_tensor({3, s.m, s.k}, rng);
    const Tensor ba_t = rand_tensor({3, s.k, s.m}, rng);
    const Tensor bb = rand_tensor({3, s.k, s.n}, rng);
    const Tensor bb_t = rand_tensor({3, s.n, s.k}, rng);

    for (int64_t threads : {int64_t{1}, int64_t{2}, int64_t{8}}) {
      parallel::NumThreadsScope nts(threads);
      const std::string tag = " m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                              " n=" + std::to_string(s.n) + " t=" + std::to_string(threads);

      ASSERT_TRUE(simd::set_dispatch("scalar"));
      std::vector<Tensor> want;
      for (const auto& blk : blockings) {
        want.push_back(gemm::matmul_nt_blocked(a, bt, blk, /*fast_math=*/false));
        want.push_back(quant::packed_matmul_nt_blocked(a, w4, blk, false));
        want.push_back(quant::packed_matmul_nt_blocked(a, w8, blk, false));
      }
      want.push_back(ops::softmax_lastdim(a));
      want.push_back(ops::silu(a));
      want.push_back(ops::swiglu(gate, up));
      want.push_back(ops::rms_norm_lastdim(a, gain, 1e-5f));
      want.push_back(ops::add(gate, up));
      want.push_back(ops::gelu(gate));
      want.push_back(ops::gelu_grad(gate, up));
      for (const auto& blk : blockings) {
        want.push_back(gemm::matmul_tn_blocked(at, b, blk, false));
        want.push_back(gemm::bmm_blocked(ba, bb, blk, false));
        want.push_back(gemm::bmm_nt_blocked(ba, bb_t, blk, false));
        want.push_back(gemm::bmm_tn_blocked(ba_t, bb, blk, false));
      }

      ASSERT_TRUE(simd::set_dispatch("auto"));
      std::vector<Tensor> got;
      for (const auto& blk : blockings) {
        got.push_back(gemm::matmul_nt_blocked(a, bt, blk, false));
        got.push_back(quant::packed_matmul_nt_blocked(a, w4, blk, false));
        got.push_back(quant::packed_matmul_nt_blocked(a, w8, blk, false));
      }
      got.push_back(ops::softmax_lastdim(a));
      got.push_back(ops::silu(a));
      got.push_back(ops::swiglu(gate, up));
      got.push_back(ops::rms_norm_lastdim(a, gain, 1e-5f));
      got.push_back(ops::add(gate, up));
      got.push_back(ops::gelu(gate));
      got.push_back(ops::gelu_grad(gate, up));
      for (const auto& blk : blockings) {
        got.push_back(gemm::matmul_tn_blocked(at, b, blk, false));
        got.push_back(gemm::bmm_blocked(ba, bb, blk, false));
        got.push_back(gemm::bmm_nt_blocked(ba, bb_t, blk, false));
        got.push_back(gemm::bmm_tn_blocked(ba_t, bb, blk, false));
      }

      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        expect_bitwise_equal(got[i], want[i], "op " + std::to_string(i) + tag);
      }
    }
  }
}

// swiglu must compose exactly as silu-then-multiply (the MLP backward and
// swiglu_test rely on this identity).
TEST(SimdBitwise, SwigluEqualsSiluThenMul) {
  Rng rng(505);
  const Tensor g = rand_tensor({5, 33}, rng);
  const Tensor u = rand_tensor({5, 33}, rng);
  expect_bitwise_equal(ops::swiglu(g, u), ops::mul(ops::silu(g), u), "swiglu identity");
}

// NaN/Inf entering the GEMM inputs must propagate identically at every
// dispatch choice (no operand is ever skipped on the deterministic path).
TEST(SimdBitwise, NanInfPropagationAcrossDispatch) {
  DispatchScope scope;
  Rng rng(606);
  Tensor a = rand_tensor({5, 19}, rng);
  Tensor bt = rand_tensor({9, 19}, rng);
  a.data()[7] = std::numeric_limits<float>::quiet_NaN();
  a.data()[30] = std::numeric_limits<float>::infinity();
  bt.data()[12] = -std::numeric_limits<float>::infinity();
  const gemm::Blocking blk{4, 3, 8};

  ASSERT_TRUE(simd::set_dispatch("scalar"));
  const Tensor want = gemm::matmul_nt_blocked(a, bt, blk, false);
  const Tensor want_sm = ops::softmax_lastdim(a);
  ASSERT_TRUE(simd::set_dispatch("auto"));
  const Tensor got = gemm::matmul_nt_blocked(a, bt, blk, false);
  const Tensor got_sm = ops::softmax_lastdim(a);

  bool saw_nan = false;
  for (int64_t i = 0; i < want.numel(); ++i) saw_nan |= std::isnan(want.data()[i]);
  EXPECT_TRUE(saw_nan) << "test should actually exercise NaN propagation";
  expect_bitwise_equal(got, want, "NaN/Inf gemm");
  expect_bitwise_equal(got_sm, want_sm, "NaN softmax");
}

// --- fast_math: opt-in, tolerance-checked -----------------------------------

TEST(SimdFastMath, GlobalFlagRoundTrip) {
  DispatchScope scope;
  EXPECT_FALSE(gemm::fast_math_enabled());
  gemm::set_fast_math(true);
  EXPECT_TRUE(gemm::fast_math_enabled());
  gemm::set_fast_math(false);
  EXPECT_FALSE(gemm::fast_math_enabled());
}

TEST(SimdFastMath, GemmWithinToleranceOfReference) {
  DispatchScope scope;
  ASSERT_TRUE(simd::set_dispatch("auto"));
  Rng rng(707);
  const Tensor a = rand_tensor({13, 67}, rng);
  const Tensor bt = rand_tensor({21, 67}, rng);
  const Tensor want = gemm::matmul_nt_naive(a, bt);
  const Tensor fast = gemm::matmul_nt_blocked(a, bt, gemm::Blocking{}, /*fast_math=*/true);
  EXPECT_TRUE(fast.allclose(want, 1e-4f));

  const quant::PackedMatrix w8 = quant::PackedMatrix::pack(bt, 8);
  const Tensor want_q = quant::packed_matmul_nt_ref(a, w8);
  const Tensor fast_q = quant::packed_matmul_nt_blocked(a, w8, gemm::Blocking{}, true);
  EXPECT_TRUE(fast_q.allclose(want_q, 1e-4f));

  // Scalar dispatch ignores fast_math entirely: still the bitwise reference.
  ASSERT_TRUE(simd::set_dispatch("scalar"));
  const Tensor scalar_fast = gemm::matmul_nt_blocked(a, bt, gemm::Blocking{}, true);
  expect_bitwise_equal(scalar_fast, want, "scalar fast_math aliases reference");
}

// --- kernel-level bitwise equivalence: decode attention --------------------

// Every table's K-panel transpose against the scalar reference: 1..8 rows
// (lanes past n must come out zero over a dirty panel), depths with and
// without a sub-8 tail, Inf and NaN payloads copied through untouched.
TEST(SimdBitwise, PackKpanelMatchesScalarOnEveryTable) {
  Rng rng(302);
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    const simd::KernelTable* table = simd::table_for(isa);
    if (table == nullptr) continue;
    for (const int64_t width : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9}, int64_t{16},
                                int64_t{33}, int64_t{64}}) {
      std::vector<float> vals(static_cast<size_t>(gemm::kNr * width));
      for (auto& x : vals) x = rng.uniform(-1.0f, 1.0f);
      vals[0] = std::numeric_limits<float>::infinity();
      vals[vals.size() - 1] = std::bit_cast<float>(0x7fc01234u);  // a NaN with a payload
      std::vector<const float*> rows(static_cast<size_t>(gemm::kNr));
      for (int64_t r = 0; r < gemm::kNr; ++r) rows[r] = vals.data() + r * width;
      for (int64_t n = 1; n <= gemm::kNr; ++n) {
        std::vector<float, simd::PanelAllocator<float>> want(static_cast<size_t>(width * gemm::kNr),
                                                             7.0f);
        auto got = want;
        simd::detail::pack_kpanel_scalar(rows.data(), n, width, want.data());
        table->pack_kpanel(rows.data(), n, width, got.data());
        expect_bitwise_equal(got.data(), want.data(), width * gemm::kNr,
                             std::string("pack_kpanel ") + simd::to_string(isa) +
                                 " n=" + std::to_string(n) + " width=" + std::to_string(width));
        for (int64_t d = 0; d < width; ++d) {
          for (int64_t r = n; r < gemm::kNr; ++r) ASSERT_EQ(got[d * gemm::kNr + r], 0.0f);
        }
      }
    }
  }
}

// Every table's attn_pv against the scalar reference: dh a multiple of 8
// (the vector path), other head sizes (dh 4, 6, 12: the fallback), GQA groups,
// more than one 64-lane register block (n_heads * dh = 128, 192), ctx
// accumulated into, and Inf weights/values (finite-only NaN sources, so
// the result bits do not depend on operand order).
TEST(SimdBitwise, AttnPvMatchesScalarOnEveryTable) {
  Rng rng(303);
  struct Layout {
    int64_t n_heads, dh, group;
  };
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    const simd::KernelTable* table = simd::table_for(isa);
    if (table == nullptr) continue;
    for (const Layout& l : {Layout{4, 16, 1}, Layout{4, 16, 2}, Layout{8, 16, 1}, Layout{2, 8, 1},
                            Layout{4, 4, 2}, Layout{2, 6, 1}, Layout{3, 5, 3}, Layout{16, 12, 4},
                            Layout{1, 24, 1}, Layout{1, 1, 1}}) {
      for (const int64_t t : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9}, int64_t{33}}) {
        const int64_t n = l.n_heads * l.dh;
        const int64_t kvd = n / l.group;
        const int64_t ldw = t + 5;
        std::vector<float> w(static_cast<size_t>(l.n_heads * ldw));
        for (auto& x : w) x = rng.uniform(0.0f, 1.0f);
        std::vector<float> vals(static_cast<size_t>(t * kvd));
        for (auto& x : vals) x = rng.uniform(-1.0f, 1.0f);
        if (t == 9) {
          w[3] = std::numeric_limits<float>::infinity();
          vals[static_cast<size_t>(kvd - 1)] = -std::numeric_limits<float>::infinity();
        }
        std::vector<const float*> v(static_cast<size_t>(t));
        for (int64_t p = 0; p < t; ++p) v[static_cast<size_t>(p)] = vals.data() + p * kvd;
        std::vector<float> want(static_cast<size_t>(n));
        for (auto& x : want) x = rng.uniform(-1.0f, 1.0f);
        std::vector<float> got = want;
        simd::detail::attn_pv_scalar(w.data(), ldw, v.data(), t, l.n_heads, l.dh, l.group,
                                     want.data());
        table->attn_pv(w.data(), ldw, v.data(), t, l.n_heads, l.dh, l.group, got.data());
        expect_bitwise_equal(got.data(), want.data(), n,
                             std::string("attn_pv ") + simd::to_string(isa) + " heads=" +
                                 std::to_string(l.n_heads) + " dh=" + std::to_string(l.dh) +
                                 " group=" + std::to_string(l.group) + " t=" + std::to_string(t));
      }
    }
  }
}

// --- end to end: served greedy outputs --------------------------------------

// The acceptance bar for the whole dispatch layer: a served greedy
// completion is byte-identical under scalar and native dispatch.
TEST(SimdServe, GreedyCompletionsIdenticalAcrossDispatch) {
  DispatchScope scope;
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(31);
  nn::CausalLm model(cfg, rng);

  std::vector<serve::Request> reqs;
  reqs.push_back(greedy_request(1, seq_tokens(6, cfg.vocab, 0), 6));
  reqs.push_back(greedy_request(2, seq_tokens(5, cfg.vocab, 7), 6));

  auto run = [&](const char* isa) {
    EXPECT_TRUE(simd::set_dispatch(isa));
    serve::EngineConfig ecfg;
    ecfg.threads = 1;
    serve::ServeEngine engine(model, ecfg);
    std::vector<std::vector<int64_t>> tokens;
    for (auto& c : serve_batch(engine, reqs)) {
      EXPECT_EQ(c.status, serve::RequestStatus::kOk);
      tokens.push_back(c.tokens);
    }
    return tokens;
  };

  const auto want = run("scalar");
  const auto got = run("auto");
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "completion " << i << " diverged across dispatch";
  }
}

}  // namespace
}  // namespace edgellm

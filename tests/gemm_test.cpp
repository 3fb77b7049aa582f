// The blocked GEMM kernel family and its autotuning stack: bitwise
// equivalence of blocked vs naive kernels (NN/NT/TN, 2-d and batched) on
// tile-boundary edge shapes at 1, 2 and 8 threads,
// thread-count determinism of the dispatched ops, NaN/Inf propagation,
// bit-exactness of the pre-packed NT kernel and of the blocked packed
// integer kernel against their references, the per-shape schedule registry, the persistent ScheduleCache,
// and the MeasuredBackend autotuner. Run alone with `ctest -L gemm`.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <variant>
#include <vector>

#include "hw/measured.hpp"
#include "nn/decoder.hpp"
#include "obs/metrics.hpp"
#include "quant/packed.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "test_util.hpp"

namespace edgellm {
namespace {

using edgellm::testing::tiny_config;
namespace gemm = ops::gemm;

Tensor rand_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = rng.uniform(-1.0f, 1.0f);
  return t;
}

// Bit-pattern comparison: NaN-safe, distinguishes -0.0f from 0.0f.
void expect_bitwise_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got.data()[i]), std::bit_cast<uint32_t>(want.data()[i]))
        << what << " element " << i << ": got " << got.data()[i] << " want " << want.data()[i];
  }
}

// Shapes chosen to stress every tile boundary: single elements/rows/cols,
// dims not divisible by kMr (4), kNr (8), or any kc/nc candidate, and a
// couple of shapes larger than one cache block in each dimension.
struct Mkn {
  int64_t m, k, n;
};
const std::vector<Mkn> kEdgeShapes = {
    {1, 1, 1},  {1, 1, 8},    {3, 5, 8},     {4, 7, 9},    {5, 16, 8},
    {13, 17, 23}, {64, 64, 64}, {7, 300, 40}, {65, 257, 129}, {9, 31, 8},
};
const std::vector<gemm::Blocking> kBlockings = {
    gemm::Blocking{},            // default 64x256x128
    gemm::Blocking{4, 3, 8},     // smallest valid tiles: maximal boundary count
    gemm::Blocking{32, 16, 24},  // nc not a multiple of kNr-squared strips
};

// --- Blocked vs naive: dense kernels ----------------------------------------

TEST(GemmBlocked, MatmulMatchesNaiveBitwiseOnEdgeShapes) {
  Rng rng(11);
  for (const Mkn& s : kEdgeShapes) {
    const Tensor a = rand_tensor({s.m, s.k}, rng);
    const Tensor b = rand_tensor({s.k, s.n}, rng);
    const Tensor want = gemm::matmul_naive(a, b);
    for (const gemm::Blocking& blk : kBlockings) {
      expect_bitwise_equal(gemm::matmul_blocked(a, b, blk), want,
                           "matmul " + std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                               std::to_string(s.n) + " " + blk.to_string());
    }
  }
}

TEST(GemmBlocked, MatmulNtMatchesNaiveBitwiseOnEdgeShapes) {
  Rng rng(12);
  for (const Mkn& s : kEdgeShapes) {
    const Tensor a = rand_tensor({s.m, s.k}, rng);
    const Tensor b = rand_tensor({s.n, s.k}, rng);
    const Tensor want = gemm::matmul_nt_naive(a, b);
    for (const gemm::Blocking& blk : kBlockings) {
      expect_bitwise_equal(gemm::matmul_nt_blocked(a, b, blk), want,
                           "matmul_nt " + std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                               std::to_string(s.n) + " " + blk.to_string());
    }
  }
}

TEST(GemmBlocked, BmmNtMatchesNaiveBitwise) {
  Rng rng(13);
  for (const Mkn& s : {Mkn{5, 17, 9}, Mkn{4, 8, 8}, Mkn{13, 31, 23}}) {
    const Tensor a = rand_tensor({3, s.m, s.k}, rng);
    const Tensor b = rand_tensor({3, s.n, s.k}, rng);
    const Tensor want = gemm::bmm_nt_naive(a, b);
    for (const gemm::Blocking& blk : kBlockings) {
      expect_bitwise_equal(gemm::bmm_nt_blocked(a, b, blk), want, "bmm_nt " + blk.to_string());
    }
  }
}

// Every size on every axis: single rows/cols, sizes straddling kMr (4) and
// kNr (8) multiples, and n < kNr (the naive side of the cut-over).
const std::vector<int64_t> kEdgeDims = {1, 3, 4, 5, 7, 8, 9, 17, 33};

TEST(GemmBlocked, TnAndBatchedMatchNaiveBitwiseOnEdgeShapes) {
  Rng rng(14);
  const int64_t bs = 3;
  for (int64_t m : kEdgeDims) {
    for (int64_t k : kEdgeDims) {
      for (int64_t n : kEdgeDims) {
        const Tensor at = rand_tensor({k, m}, rng);
        const Tensor b = rand_tensor({k, n}, rng);
        const Tensor ba = rand_tensor({bs, m, k}, rng);
        const Tensor ba_t = rand_tensor({bs, k, m}, rng);
        const Tensor bb = rand_tensor({bs, k, n}, rng);
        const Tensor bb_t = rand_tensor({bs, n, k}, rng);
        const Tensor want_tn = gemm::matmul_tn_naive(at, b);
        const Tensor want_bnn = gemm::bmm_naive(ba, bb);
        const Tensor want_bnt = gemm::bmm_nt_naive(ba, bb_t);
        const Tensor want_btn = gemm::bmm_tn_naive(ba_t, bb);
        for (int64_t threads : {1, 2, 8}) {
          parallel::NumThreadsScope scope(threads);
          for (const gemm::Blocking& blk : kBlockings) {
            const std::string tag = " " + std::to_string(m) + "x" + std::to_string(k) + "x" +
                                    std::to_string(n) + " " + blk.to_string() + " @" +
                                    std::to_string(threads);
            expect_bitwise_equal(gemm::matmul_tn_blocked(at, b, blk), want_tn, "matmul_tn" + tag);
            expect_bitwise_equal(gemm::bmm_blocked(ba, bb, blk), want_bnn, "bmm" + tag);
            expect_bitwise_equal(gemm::bmm_nt_blocked(ba, bb_t, blk), want_bnt, "bmm_nt" + tag);
            expect_bitwise_equal(gemm::bmm_tn_blocked(ba_t, bb, blk), want_btn, "bmm_tn" + tag);
          }
        }
      }
    }
  }
}

// --- Dispatch: thread-count determinism -------------------------------------

// The shapes below clear use_blocked (m*k*n >= 32768, n >= kNr), so
// ops::matmul / matmul_nt / bmm_nt take the blocked path — which must give
// the same bits at any thread count, and the same bits as the naive kernels.
TEST(GemmDispatch, OpsAreBitwiseDeterministicAcrossThreadCounts) {
  Rng rng(21);
  const Tensor a = rand_tensor({40, 36}, rng);
  const Tensor b = rand_tensor({36, 48}, rng);
  const Tensor bt = rand_tensor({48, 36}, rng);
  const Tensor ba = rand_tensor({2, 40, 36}, rng);
  const Tensor bb = rand_tensor({2, 48, 36}, rng);
  ASSERT_TRUE(gemm::use_blocked(gemm::GemmKind::kNN, 40, 36, 48));

  Tensor nn1, nt1, bm1;
  {
    parallel::NumThreadsScope scope(1);
    nn1 = ops::matmul(a, b);
    nt1 = ops::matmul_nt(a, bt);
    bm1 = ops::bmm_nt(ba, bb);
  }
  expect_bitwise_equal(nn1, gemm::matmul_naive(a, b), "dispatched matmul vs naive");
  expect_bitwise_equal(nt1, gemm::matmul_nt_naive(a, bt), "dispatched matmul_nt vs naive");
  expect_bitwise_equal(bm1, gemm::bmm_nt_naive(ba, bb), "dispatched bmm_nt vs naive");
  for (int64_t threads : {2, 8}) {
    parallel::NumThreadsScope scope(threads);
    expect_bitwise_equal(ops::matmul(a, b), nn1, "matmul @" + std::to_string(threads));
    expect_bitwise_equal(ops::matmul_nt(a, bt), nt1, "matmul_nt @" + std::to_string(threads));
    expect_bitwise_equal(ops::bmm_nt(ba, bb), bm1, "bmm_nt @" + std::to_string(threads));
  }
}

// The adaptation step's TN and per-head batched shapes: the weight
// gradient dW = g^T x and attention at 32 heads of 32x32x16, blocked
// whether run 2-d or batched.
TEST(GemmDispatch, TnAndPerHeadBatchedOpsTakeBlockedPathDeterministically) {
  Rng rng(22);
  const Tensor g = rand_tensor({256, 64}, rng);  // [rows, out]
  const Tensor x = rand_tensor({256, 96}, rng);  // [rows, in]
  const Tensor q = rand_tensor({32, 32, 16}, rng);
  const Tensor kh = rand_tensor({32, 32, 16}, rng);
  const Tensor probs = rand_tensor({32, 32, 32}, rng);
  ASSERT_TRUE(gemm::use_blocked(gemm::GemmKind::kTN, 64, 256, 96));
  ASSERT_TRUE(gemm::use_blocked(gemm::GemmKind::kNN, 32, 32, 16));
  ASSERT_TRUE(gemm::use_blocked(gemm::GemmKind::kNN, 32, 32, 16, /*batch=*/32));

  obs::Registry reg;
  gemm::set_metrics_registry(&reg);
  Tensor tn1, bnn1, bnt1, btn1;
  {
    parallel::NumThreadsScope scope(1);
    tn1 = ops::matmul_tn(g, x);
    bnn1 = ops::bmm(probs, kh);
    bnt1 = ops::bmm_nt(q, kh);
    btn1 = ops::bmm_tn(probs, q);
  }
  gemm::set_metrics_registry(nullptr);
  EXPECT_EQ(reg.counter("gemm/blocked_calls").value(), 4);
  expect_bitwise_equal(tn1, gemm::matmul_tn_naive(g, x), "dispatched matmul_tn vs naive");
  expect_bitwise_equal(bnn1, gemm::bmm_naive(probs, kh), "dispatched bmm vs naive");
  expect_bitwise_equal(bnt1, gemm::bmm_nt_naive(q, kh), "dispatched bmm_nt vs naive");
  expect_bitwise_equal(btn1, gemm::bmm_tn_naive(probs, q), "dispatched bmm_tn vs naive");
  for (int64_t threads : {2, 8}) {
    parallel::NumThreadsScope scope(threads);
    const std::string at = " @" + std::to_string(threads);
    expect_bitwise_equal(ops::matmul_tn(g, x), tn1, "matmul_tn" + at);
    expect_bitwise_equal(ops::bmm(probs, kh), bnn1, "bmm" + at);
    expect_bitwise_equal(ops::bmm_nt(q, kh), bnt1, "bmm_nt" + at);
    expect_bitwise_equal(ops::bmm_tn(probs, q), btn1, "bmm_tn" + at);
  }
}

// --- NaN/Inf propagation on the blocked path --------------------------------

TEST(GemmBlocked, NanAndInfPropagateThroughBlockedKernels) {
  Rng rng(31);
  const int64_t m = 32, k = 32, n = 40;  // m*k*n = 40960: blocked dispatch
  ASSERT_TRUE(gemm::use_blocked(gemm::GemmKind::kNT, m, k, n));
  Tensor a = rand_tensor({m, k}, rng);
  Tensor bt = rand_tensor({n, k}, rng);
  a.at(3, 5) = std::numeric_limits<float>::quiet_NaN();    // poisons row 3
  bt.at(7, 11) = std::numeric_limits<float>::infinity();   // saturates col 7

  const Tensor c = ops::matmul_nt(a, bt);
  expect_bitwise_equal(c, gemm::matmul_nt_naive(a, bt), "NaN/Inf blocked vs naive");
  for (int64_t j = 0; j < n; ++j) EXPECT_TRUE(std::isnan(c.at(3, j))) << "row 3 col " << j;
  for (int64_t i = 0; i < m; ++i) {
    if (i == 3) continue;
    EXPECT_FALSE(std::isfinite(c.at(i, 7))) << "col 7 row " << i;
  }
  EXPECT_TRUE(std::isfinite(c.at(0, 0)));
}

// --- Pre-packed NT panels (the decode weight cache's kernel) -----------------

// Every decode row count from one row to two full kMr strips plus a partial
// one, depths of one element up to the MLP width, and widths around one kNr
// lane up to the MLP width: the same bits as the naive loop at 1, 2 and 8
// threads. The panels hold full kNr lanes from a 32-byte aligned base.
TEST(GemmPrepacked, MatchesNaiveBitwiseAcrossDecodeShapesAndThreads) {
  Rng rng(61);
  for (int64_t k : {1, 7, 64, 256}) {
    for (int64_t n : {1, 7, 8, 9, 32, 64, 256}) {
      const Tensor bt = rand_tensor({n, k}, rng);
      const gemm::NtPanels panels(bt);
      EXPECT_EQ(panels.n(), n);
      EXPECT_EQ(panels.k(), k);
      // Full kNr lanes plus kNr - 1 floats of alignment slack.
      EXPECT_EQ(panels.bytes(), static_cast<int64_t>(sizeof(float)) *
                                    (((n + gemm::kNr - 1) / gemm::kNr) * gemm::kNr * k +
                                     gemm::kNr - 1));
      EXPECT_EQ(reinterpret_cast<uintptr_t>(panels.data()) % 32, 0u);
      for (int64_t m = 1; m <= 9; ++m) {
        const Tensor a = rand_tensor({m, k}, rng);
        const Tensor want = gemm::matmul_nt_naive(a, bt);
        for (int64_t threads : {1, 2, 8}) {
          parallel::NumThreadsScope scope(threads);
          const std::string what = "prepacked m=" + std::to_string(m) + " k=" +
                                   std::to_string(k) + " n=" + std::to_string(n) + " @" +
                                   std::to_string(threads);
          expect_bitwise_equal(ops::matmul_nt_prepacked(a, panels), want, what);
        }
      }
    }
  }
}

TEST(GemmPrepacked, NanAndInfPropagate) {
  Rng rng(62);
  const int64_t m = 6, k = 20, n = 13;  // a full and a partial strip, a padded lane
  Tensor a = rand_tensor({m, k}, rng);
  Tensor bt = rand_tensor({n, k}, rng);
  a.at(5, 2) = std::numeric_limits<float>::quiet_NaN();  // poisons row 5
  bt.at(9, 4) = std::numeric_limits<float>::infinity();  // saturates col 9
  const Tensor c = ops::matmul_nt_prepacked(a, gemm::NtPanels(bt));
  expect_bitwise_equal(c, gemm::matmul_nt_naive(a, bt), "NaN/Inf prepacked vs naive");
  for (int64_t j = 0; j < n; ++j) EXPECT_TRUE(std::isnan(c.at(5, j))) << "row 5 col " << j;
  for (int64_t i = 0; i < 5; ++i) EXPECT_FALSE(std::isfinite(c.at(i, 9))) << "col 9 row " << i;
  EXPECT_TRUE(std::isfinite(c.at(0, 0)));
}

TEST(GemmPrepacked, RejectsMismatchedOperands) {
  Rng rng(63);
  const gemm::NtPanels panels(rand_tensor({8, 6}, rng));
  EXPECT_THROW(ops::matmul_nt_prepacked(rand_tensor({3, 5}, rng), panels),
               std::invalid_argument);
  EXPECT_THROW(ops::matmul_nt_prepacked(rand_tensor({2, 3, 6}, rng), panels),
               std::invalid_argument);
  EXPECT_THROW(gemm::NtPanels(rand_tensor({2, 3, 6}, rng)), std::invalid_argument);
}

// TN reads A through its strip gather and the batched kernels index
// slices: a NaN/Inf must land on exactly the outputs the naive loops
// poison, in the poisoned slice only.
TEST(GemmBlocked, NanAndInfPropagateThroughTnAndBatchedKernels) {
  Rng rng(32);
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const int64_t m = 17, k = 9, n = 33;
  Tensor at = rand_tensor({k, m}, rng);
  Tensor b = rand_tensor({k, n}, rng);
  at.at(2, 5) = qnan;  // poisons output row 5
  b.at(4, 10) = inf;   // saturates output column 10
  const Tensor c = gemm::matmul_tn_blocked(at, b, gemm::Blocking{4, 3, 8});
  expect_bitwise_equal(c, gemm::matmul_tn_naive(at, b), "NaN/Inf tn blocked vs naive");
  for (int64_t j = 0; j < n; ++j) EXPECT_TRUE(std::isnan(c.at(5, j))) << "row 5 col " << j;
  for (int64_t i = 0; i < m; ++i) EXPECT_FALSE(std::isfinite(c.at(i, 10))) << "col 10 row " << i;
  EXPECT_TRUE(std::isfinite(c.at(0, 0)));

  const int64_t bs = 3;
  Tensor ba = rand_tensor({bs, m, k}, rng);
  Tensor ba_t = rand_tensor({bs, k, m}, rng);
  Tensor bb = rand_tensor({bs, k, n}, rng);
  Tensor bb_t = rand_tensor({bs, n, k}, rng);
  ba.at(1, 5, 2) = qnan;
  ba_t.at(1, 2, 5) = qnan;
  bb.at(2, 4, 10) = inf;
  bb_t.at(2, 10, 4) = inf;
  for (const gemm::Blocking& blk : kBlockings) {
    const Tensor cnn = gemm::bmm_blocked(ba, bb, blk);
    const Tensor cnt = gemm::bmm_nt_blocked(ba, bb_t, blk);
    const Tensor ctn = gemm::bmm_tn_blocked(ba_t, bb, blk);
    expect_bitwise_equal(cnn, gemm::bmm_naive(ba, bb), "NaN/Inf bmm " + blk.to_string());
    expect_bitwise_equal(cnt, gemm::bmm_nt_naive(ba, bb_t), "NaN/Inf bmm_nt " + blk.to_string());
    expect_bitwise_equal(ctn, gemm::bmm_tn_naive(ba_t, bb), "NaN/Inf bmm_tn " + blk.to_string());
    for (const Tensor* cp : {&cnn, &cnt, &ctn}) {
      for (int64_t j = 0; j < n; ++j) {
        EXPECT_TRUE(std::isnan(cp->at(1, 5, j)));
        EXPECT_TRUE(std::isfinite(cp->at(0, 5, j)));
      }
      for (int64_t i = 0; i < m; ++i) {
        EXPECT_FALSE(std::isfinite(cp->at(2, i, 10)));
        EXPECT_TRUE(std::isfinite(cp->at(1, i, 10)) || i == 5);
      }
    }
  }
}

// --- Packed integer kernel ---------------------------------------------------

TEST(PackedGemm, BlockedMatchesScalarRefBitwise) {
  Rng rng(41);
  // Odd column counts exercise int4 nibble alignment inside decode panels.
  for (const Mkn& s : {Mkn{1, 7, 8}, Mkn{3, 9, 8}, Mkn{5, 65, 9}, Mkn{8, 129, 33},
                       Mkn{13, 48, 24}, Mkn{2, 1, 8}}) {
    const Tensor x = rand_tensor({s.m, s.k}, rng);
    const Tensor w = rand_tensor({s.n, s.k}, rng);
    for (int bits : {4, 8}) {
      const quant::PackedMatrix p = quant::PackedMatrix::pack(w, bits);
      const Tensor want = quant::packed_matmul_nt_ref(x, p);
      for (const gemm::Blocking& blk : kBlockings) {
        expect_bitwise_equal(quant::packed_matmul_nt_blocked(x, p, blk), want,
                             "packed b" + std::to_string(bits) + " " + blk.to_string());
      }
      // The dispatching entry point must agree whichever path it picks.
      expect_bitwise_equal(quant::packed_matmul_nt(x, p), want,
                           "packed dispatch b" + std::to_string(bits));
    }
  }
}

TEST(PackedGemm, DispatchIsThreadCountDeterministic) {
  Rng rng(42);
  const Tensor x = rand_tensor({8, 96}, rng);
  const Tensor w = rand_tensor({32, 96}, rng);
  ASSERT_TRUE(gemm::use_blocked(gemm::GemmKind::kPackedNT, 8, 96, 32));
  const quant::PackedMatrix p = quant::PackedMatrix::pack(w, 4);
  Tensor y1;
  {
    parallel::NumThreadsScope scope(1);
    y1 = quant::packed_matmul_nt(x, p);
  }
  expect_bitwise_equal(y1, quant::packed_matmul_nt_ref(x, p), "packed vs ref");
  for (int64_t threads : {2, 8}) {
    parallel::NumThreadsScope scope(threads);
    expect_bitwise_equal(quant::packed_matmul_nt(x, p), y1,
                         "packed @" + std::to_string(threads));
  }
}

TEST(PackedGemm, DecodeRowMatchesValueAt) {
  Rng rng(43);
  for (int64_t cols : {7, 8, 9, 65}) {  // odd counts stress int4 tail nibble
    const Tensor w = rand_tensor({5, cols}, rng);
    for (int bits : {4, 8}) {
      const quant::PackedMatrix p = quant::PackedMatrix::pack(w, bits);
      std::vector<float> row(static_cast<size_t>(cols));
      std::vector<int8_t> q(static_cast<size_t>(cols));
      for (int64_t r = 0; r < p.rows(); ++r) {
        p.decode_row(r, row.data());
        for (int64_t c = 0; c < cols; ++c) {
          ASSERT_EQ(row[static_cast<size_t>(c)], p.value_at(r, c) * p.row_scale(r))
              << "bits " << bits << " r " << r << " c " << c;
        }
        // Ranges starting at odd offsets hit the high-nibble-first path.
        for (int64_t c0 : {int64_t{0}, int64_t{1}, int64_t{3}}) {
          if (c0 >= cols) continue;
          p.decode_row_range_q(r, c0, cols, q.data());
          for (int64_t c = c0; c < cols; ++c) {
            ASSERT_EQ(static_cast<int32_t>(q[static_cast<size_t>(c - c0)]), p.value_at(r, c))
                << "bits " << bits << " r " << r << " c0 " << c0 << " c " << c;
          }
          // The strided panel-scatter primitive decodes the same integers
          // (as unscaled floats) at any stride.
          for (int64_t stride : {int64_t{1}, int64_t{3}}) {
            std::vector<float> f(static_cast<size_t>((cols - c0) * stride), -1.0f);
            p.decode_row_range_unscaled(r, c0, cols, f.data(), stride);
            for (int64_t c = c0; c < cols; ++c) {
              ASSERT_EQ(f[static_cast<size_t>((c - c0) * stride)],
                        static_cast<float>(p.value_at(r, c)))
                  << "bits " << bits << " r " << r << " c0 " << c0 << " stride " << stride;
            }
          }
        }
      }
      // dequantize() is built on decode_row and must match it exactly.
      const Tensor d = p.dequantize();
      for (int64_t r = 0; r < p.rows(); ++r) {
        p.decode_row(r, row.data());
        for (int64_t c = 0; c < cols; ++c) {
          ASSERT_EQ(d.at(r, c), row[static_cast<size_t>(c)]);
        }
      }
    }
  }
}

// --- Schedule registry -------------------------------------------------------

TEST(GemmRegistry, SetFindClearBlockings) {
  gemm::clear_blockings();
  EXPECT_EQ(gemm::registered_blockings(), 0);
  EXPECT_FALSE(gemm::has_blocking(gemm::GemmKind::kNT, 8, 64, 32));
  const gemm::Blocking def = gemm::blocking_for(gemm::GemmKind::kNT, 8, 64, 32);
  EXPECT_TRUE(def.valid());

  const gemm::Blocking mine{16, 32, 48};
  gemm::set_blocking(gemm::GemmKind::kNT, 8, 64, 32, mine);
  EXPECT_TRUE(gemm::has_blocking(gemm::GemmKind::kNT, 8, 64, 32));
  EXPECT_EQ(gemm::registered_blockings(), 1);
  EXPECT_TRUE(gemm::blocking_for(gemm::GemmKind::kNT, 8, 64, 32) == mine);
  // Other kinds and shapes are unaffected.
  EXPECT_FALSE(gemm::has_blocking(gemm::GemmKind::kNN, 8, 64, 32));
  EXPECT_FALSE(gemm::has_blocking(gemm::GemmKind::kNT, 8, 64, 33));

  EXPECT_THROW(gemm::set_blocking(gemm::GemmKind::kNT, 8, 64, 32, gemm::Blocking{1, 0, 2}),
               std::invalid_argument);
  gemm::clear_blockings();
  EXPECT_EQ(gemm::registered_blockings(), 0);
}

TEST(GemmRegistry, UseBlockedPolicy) {
  using gemm::GemmKind;
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kNN, 4, 4, 4));          // tiny
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kNT, 1024, 1024, 4));    // n < kNr
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kNN, 32, 32, 40));
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kNT, 32, 32, 40));
  // Every dense kind goes blocked from 2k MACs per slice: TN and batched
  // calls from one full kMr x kNr tile, 2-d NN/NT from two rows (the
  // decode projections included); a single row never does.
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kTN, 4, 64, 8));
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kTN, 4, 8, 32));   // 1k MACs
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kTN, 2, 256, 64));  // m < kMr
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kTN, 64, 256, 4));  // n < kNr
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kNN, 2, 128, 128, /*batch=*/4));  // m < kMr
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kNT, 2, 32, 32));
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kNT, 3, 64, 64));
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kNT, 4, 64, 32));
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kNN, 4, 64, 64));
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kNN, 32, 32, 16));
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kNN, 4, 16, 16));  // 1k MACs
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kNT, 1, 768, 768));
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kNN, 32, 32, 16, /*batch=*/32));
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kNT, 32, 16, 32, /*batch=*/32));
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kNT, 32, 16, 4, /*batch=*/32));
  // The packed kernel replaces a much slower scalar reference, so its
  // threshold is far lower than the dense one.
  EXPECT_TRUE(gemm::use_blocked(GemmKind::kPackedNT, 8, 64, 8));
  EXPECT_FALSE(gemm::use_blocked(GemmKind::kPackedNT, 1, 8, 8));
}

TEST(GemmMetrics, BlockedCallsAreCounted) {
  Rng rng(51);
  obs::Registry reg;
  gemm::set_metrics_registry(&reg);
  const Tensor a = rand_tensor({32, 32}, rng);
  const Tensor bt = rand_tensor({40, 32}, rng);
  (void)ops::matmul_nt(a, bt);  // clears use_blocked: 32*32*40 = 40960
  gemm::set_metrics_registry(nullptr);
  EXPECT_GE(reg.counter("gemm/blocked_calls").value(), 1);
}

// --- ScheduleCache persistence ----------------------------------------------

TEST(ScheduleCache, PutFindRoundTripWithCounters) {
  hw::ScheduleCache cache;
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.find("absent").has_value());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  hw::ScheduleRecord rec;
  rec.backend = "measured";
  rec.schedule.tile_m = 32;
  rec.schedule.tile_k = 64;
  rec.schedule.tile_n = 48;
  rec.metric = 0.25;
  rec.baseline = 1.5;
  cache.put("key one", rec);
  const auto got = cache.find("key one");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(got->backend, "measured");
  EXPECT_TRUE(got->blocking() == (gemm::Blocking{32, 64, 48}));
  EXPECT_DOUBLE_EQ(got->metric, 0.25);
  EXPECT_DOUBLE_EQ(got->baseline, 1.5);
}

TEST(ScheduleCache, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/edgellm_gemm_cache.txt";
  hw::ScheduleCache cache;
  hw::ScheduleRecord sim;
  sim.backend = "sim";
  sim.schedule.tile_m = 16;
  sim.schedule.tile_n = 32;
  sim.schedule.tile_k = 8;
  sim.schedule.double_buffer = true;
  sim.schedule.pin_weights = true;
  sim.metric = 1234.0;
  cache.put("sim|k1", sim);
  hw::ScheduleRecord meas;
  meas.backend = "measured";
  meas.schedule.tile_m = 64;
  meas.schedule.tile_k = 128;
  meas.schedule.tile_n = 64;
  meas.metric = 0.125;
  meas.baseline = 0.5;
  cache.put("measured|k2", meas);
  ASSERT_TRUE(cache.save(path));

  hw::ScheduleCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 2);
  const auto s = loaded.find("sim|k1");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->backend, "sim");
  EXPECT_EQ(s->schedule.tile_m, 16);
  EXPECT_TRUE(s->schedule.double_buffer);
  EXPECT_TRUE(s->schedule.pin_weights);
  const auto m = loaded.find("measured|k2");
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->blocking() == (gemm::Blocking{64, 128, 64}));
  EXPECT_DOUBLE_EQ(m->baseline, 0.5);
  std::remove(path.c_str());
}

TEST(ScheduleCache, RejectsMissingAndMalformedFiles) {
  hw::ScheduleCache cache;
  hw::ScheduleRecord rec;
  rec.backend = "sim";
  cache.put("keep", rec);

  EXPECT_FALSE(cache.load(::testing::TempDir() + "/edgellm_gemm_nonexistent.txt"));
  EXPECT_EQ(cache.size(), 1);  // contents untouched

  const std::string bad = ::testing::TempDir() + "/edgellm_gemm_bad_cache.txt";
  {
    std::ofstream out(bad);
    out << "not-a-schedule-cache v9\n";
  }
  EXPECT_FALSE(cache.load(bad));  // wrong version header
  {
    std::ofstream out(bad);
    out << "edgellm-schedule-cache v1\n";
    out << "key\tmeasured\tgarbage fields here\n";
  }
  EXPECT_FALSE(cache.load(bad));  // malformed record line
  EXPECT_EQ(cache.size(), 1);
  ASSERT_TRUE(cache.find("keep").has_value());
  std::remove(bad.c_str());
}

// --- Memoised analytical search ---------------------------------------------

TEST(ScheduleCache, SearchGemmCachedHitsOnSecondCall) {
  const hw::DeviceModel dev = hw::default_edge_device();
  hw::GemmWorkload g;
  g.name = "t.qkv";
  g.m = 64;
  g.n = 64;
  g.k = 64;
  const hw::SearchConfig cfg;
  hw::ScheduleCache cache;

  const hw::GemmPlan first =
      hw::search_gemm_cached(dev, g, dev.sram_bytes, cfg, /*pinned=*/false, &cache);
  ASSERT_TRUE(first.cost.feasible);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 1);

  const hw::GemmPlan second =
      hw::search_gemm_cached(dev, g, dev.sram_bytes, cfg, /*pinned=*/false, &cache);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_TRUE(second.schedule.tile_m == first.schedule.tile_m &&
              second.schedule.tile_n == first.schedule.tile_n &&
              second.schedule.tile_k == first.schedule.tile_k);
  EXPECT_DOUBLE_EQ(second.cost.cycles, first.cost.cycles);

  // A pinned search is a distinct key, not a false hit.
  (void)hw::search_gemm_cached(dev, g, dev.sram_bytes, cfg, /*pinned=*/true, &cache);
  EXPECT_EQ(cache.misses(), 2);
}

// --- Measured autotuner ------------------------------------------------------

hw::MeasuredConfig fast_tune_config() {
  hw::MeasuredConfig cfg;
  cfg.mc_candidates = {8, 16};
  cfg.kc_candidates = {16};
  cfg.nc_candidates = {8, 16};
  cfg.reps = 1;
  return cfg;
}

TEST(MeasuredBackend, TuneReturnsValidBlockingAndCaches) {
  hw::ScheduleCache cache;
  hw::MeasuredBackend backend(fast_tune_config(), &cache);

  const hw::TuneResult r = backend.tune(gemm::GemmKind::kNT, 8, 32, 16);
  EXPECT_TRUE(r.blocking.valid());
  EXPECT_GT(r.best_ms, 0.0);
  EXPECT_GT(r.baseline_ms, 0.0);
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(cache.size(), 1);

  const hw::TuneResult warm = backend.tune(gemm::GemmKind::kNT, 8, 32, 16);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_TRUE(warm.blocking == r.blocking);

  // Packed tuning exercises the int4 kernel and its dequantize baseline.
  const hw::TuneResult pr = backend.tune(gemm::GemmKind::kPackedNT, 8, 32, 16, /*bits=*/4);
  EXPECT_TRUE(pr.blocking.valid());
  EXPECT_FALSE(pr.from_cache);
  EXPECT_EQ(cache.size(), 2);
}

TEST(MeasuredBackend, TuneAndInstallRegistersBlocking) {
  gemm::clear_blockings();
  hw::MeasuredBackend backend(fast_tune_config(), nullptr);
  const hw::TuneResult r = backend.tune_and_install(gemm::GemmKind::kNT, 8, 48, 16);
  EXPECT_TRUE(gemm::has_blocking(gemm::GemmKind::kNT, 8, 48, 16));
  EXPECT_TRUE(gemm::blocking_for(gemm::GemmKind::kNT, 8, 48, 16) == r.blocking);
  gemm::clear_blockings();
}

TEST(MeasuredBackend, AutotuneModelGemmsIsWarmOnSecondRun) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(61);
  nn::CausalLm model(cfg, rng);
  quant::QuantSpec q;
  q.bits = 8;
  model.blocks()[0]->set_compression(q, std::nullopt);
  model.set_eval();

  gemm::clear_blockings();
  hw::ScheduleCache cache;
  hw::MeasuredBackend backend(fast_tune_config(), &cache);
  // batch_rows = 128 lifts the tiny model's shapes over the use_blocked
  // thresholds (128 * 16 * 16 = 32768).
  const hw::ModelTuneSummary cold = hw::autotune_model_gemms(backend, model, 128);
  EXPECT_GT(cold.shapes_tuned, 0);
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(gemm::registered_blockings(), cold.shapes_tuned);

  const hw::ModelTuneSummary warm = hw::autotune_model_gemms(backend, model, 128);
  EXPECT_EQ(warm.shapes_tuned, cold.shapes_tuned);
  EXPECT_EQ(warm.cache_hits, warm.shapes_tuned);
  gemm::clear_blockings();
}

// --- Packed weights in the decode weight cache ------------------------------

TEST(PackedWeightCache, PackedBuildSwapsPackableLayersAndStaysClose) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(71);
  nn::CausalLm model(cfg, rng);
  quant::QuantSpec q;
  q.bits = 8;
  model.blocks()[0]->set_compression(q, std::nullopt);
  Rng lrng(5);
  model.blocks()[1]->attention().q_proj().enable_lora(2, 4.0f, lrng);
  model.set_eval();

  const nn::Linear& quantized = model.blocks()[0]->attention().q_proj();
  const nn::Linear& lora = model.blocks()[1]->attention().q_proj();
  EXPECT_TRUE(quantized.packable());
  EXPECT_FALSE(lora.packable());  // LoRA layers never pack

  nn::DecodeWeightCache fp32_cache(model);
  nn::DecodeWeightCache packed_cache(model, /*pack_compressed=*/true);
  EXPECT_TRUE(packed_cache.built());
  // The quantized layer's one entry moves from fp32 panels to packed
  // storage; the LoRA layer has no entry in either cache.
  ASSERT_NE(fp32_cache.find(&quantized), nullptr);
  EXPECT_TRUE(std::holds_alternative<gemm::NtPanels>(*fp32_cache.find(&quantized)));
  ASSERT_NE(packed_cache.find(&quantized), nullptr);
  EXPECT_EQ(packed_cache.find(&lora), nullptr);
  // Packed payloads are smaller than the fp32 panels they replace.
  EXPECT_LT(packed_cache.bytes(), fp32_cache.bytes());
  // The packed entry holds the layer's actual quantized weight.
  const auto* pw = std::get_if<quant::PackedMatrix>(packed_cache.find(&quantized));
  ASSERT_NE(pw, nullptr);
  EXPECT_EQ(pw->rows(), quantized.out_features());
  EXPECT_EQ(pw->cols(), quantized.in_features());
  EXPECT_EQ(pw->bits(), 8);

  // Decode through the packed cache runs deployed integer numerics: close
  // to the fp32 path (same integers, scale applied once at the end instead
  // of per weight element) but not bitwise equal.
  const std::vector<int64_t> prompt = {1, 5, 9, 2};
  nn::KvCache plain(cfg.n_layers, cfg.kv_dim(), false);
  nn::KvCache packed(cfg.n_layers, cfg.kv_dim(), false);
  for (size_t t = 0; t < prompt.size(); ++t) {
    nn::BatchedSeq a;
    a.cache = &plain;
    a.position = static_cast<int64_t>(t);
    a.tokens = std::span(&prompt[t], 1);
    a.all_exits = true;
    nn::BatchedSeq b = a;
    b.cache = &packed;
    nn::batched_decode_step(model, std::span<nn::BatchedSeq>(&a, 1), &fp32_cache);
    nn::batched_decode_step(model, std::span<nn::BatchedSeq>(&b, 1), &packed_cache);
    ASSERT_EQ(a.logits.size(), b.logits.size());
    for (size_t e = 0; e < a.logits.size(); ++e) {
      for (int64_t v = 0; v < a.logits[e].numel(); ++v) {
        ASSERT_NEAR(a.logits[e][v], b.logits[e][v], 5e-3f)
            << "pos " << t << " exit " << e << " v " << v;
      }
    }
  }
}

}  // namespace
}  // namespace edgellm

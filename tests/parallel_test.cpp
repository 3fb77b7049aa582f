// The deterministic thread-pool compute backend (tensor/parallel.hpp) and
// the kernel-numerics contracts that ride on it:
//   - parallel_for covers ranges exactly once, nests without deadlock, and
//     falls back to serial execution when it should;
//   - every parallelised kernel is bitwise identical to its serial result
//     at any thread count (the backend's core guarantee);
//   - the matmul/bmm variants propagate NaN/Inf per IEEE semantics
//     (0 * NaN == NaN), also through exact zeros in sparse operands;
//   - PagedKvPool metrics accessors are safe to poll concurrently (run
//     under TSan in CI);
//   - training steps and served greedy decode are bitwise reproducible
//     across compute-thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/tuner.hpp"
#include "nn/decoder.hpp"
#include "serve/engine.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "test_util.hpp"

namespace edgellm {
namespace {

using edgellm::testing::tiny_config;

/// Restores the process-global compute thread count on scope exit so tests
/// can't leak a setting into each other.
struct ThreadGuard {
  int64_t prev = parallel::num_threads();
  ~ThreadGuard() { parallel::set_num_threads(prev); }
};

Tensor rand_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " diverges at linear index " << i;
  }
}

// --- parallel_for mechanics -------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  std::vector<std::atomic<int>> hits(101);
  parallel::parallel_for(0, 101, 7, [&](int64_t lo, int64_t hi) {
    EXPECT_LE(lo, hi);
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, EmptyRangeInvokesNothing) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  int calls = 0;
  parallel::parallel_for(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  parallel::parallel_for(9, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, BadGrainClampsToOne) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  std::vector<std::atomic<int>> hits(10);
  parallel::parallel_for(0, 10, 0, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, SetNumThreadsClampsAndReports) {
  ThreadGuard guard;
  parallel::set_num_threads(0);
  EXPECT_EQ(parallel::num_threads(), 1);
  parallel::set_num_threads(-5);
  EXPECT_EQ(parallel::num_threads(), 1);
  parallel::set_num_threads(3);
  EXPECT_EQ(parallel::num_threads(), 3);
}

TEST(ParallelFor, ReportsParallelRegion) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  EXPECT_FALSE(parallel::in_parallel_region());
  std::atomic<int> seen_inside{0};
  parallel::parallel_for(0, 8, 1, [&](int64_t, int64_t) {
    if (parallel::in_parallel_region()) seen_inside.fetch_add(1);
  });
  EXPECT_GT(seen_inside.load(), 0);
  EXPECT_FALSE(parallel::in_parallel_region());
}

// A chunk body that throws must not terminate the process: the first
// exception is rethrown on the calling thread after the join (matching
// serial propagation), and the pool stays usable afterwards.
TEST(ParallelFor, ChunkExceptionRethrownOnCaller) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  EXPECT_THROW(parallel::parallel_for(0, 32, 1,
                                      [&](int64_t lo, int64_t) {
                                        if (lo == 0) throw std::runtime_error("chunk boom");
                                      }),
               std::runtime_error);
  // Serial fallback path propagates too.
  parallel::set_num_threads(1);
  EXPECT_THROW(parallel::parallel_for(
                   0, 4, 1, [&](int64_t, int64_t) { throw std::runtime_error("serial boom"); }),
               std::runtime_error);
  // The pool survives: a subsequent clean job covers the range exactly once.
  parallel::set_num_threads(4);
  std::vector<std::atomic<int>> hits(32);
  parallel::parallel_for(0, 32, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

// NumThreadsScope is how per-call knobs (GenerateConfig::n_threads) apply
// the setting without leaking it: the prior global count is restored on
// scope exit, and n <= 0 never touches the global at all.
TEST(ParallelFor, NumThreadsScopeRestoresPriorCount) {
  ThreadGuard guard;
  parallel::set_num_threads(3);
  {
    parallel::NumThreadsScope scope(5);
    EXPECT_EQ(parallel::num_threads(), 5);
    parallel::NumThreadsScope noop(0);
    EXPECT_EQ(parallel::num_threads(), 5);
  }
  EXPECT_EQ(parallel::num_threads(), 3);
}

// Nested parallel_for must run serially on the calling thread instead of
// re-entering the pool — the test completing at all is the deadlock check.
TEST(ParallelFor, NestedCallsRunSerialWithoutDeadlock) {
  ThreadGuard guard;
  parallel::set_num_threads(4);
  std::vector<std::atomic<int>> hits(8 * 16);
  parallel::parallel_for(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      parallel::parallel_for(0, 16, 1, [&](int64_t jlo, int64_t jhi) {
        for (int64_t j = jlo; j < jhi; ++j) hits[static_cast<size_t>(i * 16 + j)].fetch_add(1);
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
}

// Concurrent fan-outs from independent threads (the serving engine's decode
// workers do exactly this) must serialise on the pool, not corrupt state.
TEST(ParallelFor, ConcurrentCallersAreSafe) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  constexpr int kCallers = 4;
  constexpr int64_t kN = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 10; ++rep) {
        parallel::parallel_for(0, kN, 4, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(c)][static_cast<size_t>(i)]
              .fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<size_t>(c)][static_cast<size_t>(i)].load(), 10);
  }
}

// --- kernel determinism across thread counts --------------------------------

// Every parallelised kernel, odd sizes so chunks straddle boundaries.
// Reference is the serial (1-thread) result; 2 and 8 threads must match it
// bit for bit.
TEST(Determinism, MatmulVariantsBitwiseIdenticalAcrossThreads) {
  ThreadGuard guard;
  Rng rng(123);
  const int64_t m = 13, k = 7, n = 9, bs = 5;
  const Tensor a = rand_tensor({m, k}, rng);
  const Tensor b = rand_tensor({k, n}, rng);
  const Tensor a_t = rand_tensor({k, m}, rng);
  const Tensor b_t = rand_tensor({n, k}, rng);
  const Tensor ba = rand_tensor({bs, m, k}, rng);
  const Tensor bb = rand_tensor({bs, k, n}, rng);
  const Tensor bb_t = rand_tensor({bs, n, k}, rng);
  const Tensor ba_t = rand_tensor({bs, k, m}, rng);

  parallel::set_num_threads(1);
  const Tensor r_mm = ops::matmul(a, b);
  const Tensor r_tn = ops::matmul_tn(a_t, b);
  const Tensor r_nt = ops::matmul_nt(a, b_t);
  const Tensor r_bmm = ops::bmm(ba, bb);
  const Tensor r_bnt = ops::bmm_nt(ba, bb_t);
  const Tensor r_btn = ops::bmm_tn(ba_t, bb);

  for (const int64_t nt : {2, 8}) {
    parallel::set_num_threads(nt);
    expect_bitwise_equal(ops::matmul(a, b), r_mm, "matmul");
    expect_bitwise_equal(ops::matmul_tn(a_t, b), r_tn, "matmul_tn");
    expect_bitwise_equal(ops::matmul_nt(a, b_t), r_nt, "matmul_nt");
    expect_bitwise_equal(ops::bmm(ba, bb), r_bmm, "bmm");
    expect_bitwise_equal(ops::bmm_nt(ba, bb_t), r_bnt, "bmm_nt");
    expect_bitwise_equal(ops::bmm_tn(ba_t, bb), r_btn, "bmm_tn");
  }
}

TEST(Determinism, ElementwiseAndSoftmaxBitwiseIdenticalAcrossThreads) {
  ThreadGuard guard;
  Rng rng(77);
  const Tensor x = rand_tensor({5, 33}, rng);
  const Tensor y = rand_tensor({5, 33}, rng);
  const Tensor bias = rand_tensor({33}, rng);

  parallel::set_num_threads(1);
  const Tensor r_add = ops::add(x, y);
  const Tensor r_mul = ops::mul(x, y);
  const Tensor r_bias = ops::add_bias(x, bias);
  const Tensor r_gelu = ops::gelu(x);
  const Tensor r_silu = ops::silu(x);
  const Tensor r_sm = ops::softmax_lastdim(x);
  const Tensor r_smb = ops::softmax_lastdim_backward(r_sm, y);
  const std::vector<int64_t> r_arg = ops::argmax_lastdim(x);

  for (const int64_t nt : {2, 8}) {
    parallel::set_num_threads(nt);
    expect_bitwise_equal(ops::add(x, y), r_add, "add");
    expect_bitwise_equal(ops::mul(x, y), r_mul, "mul");
    expect_bitwise_equal(ops::add_bias(x, bias), r_bias, "add_bias");
    expect_bitwise_equal(ops::gelu(x), r_gelu, "gelu");
    expect_bitwise_equal(ops::silu(x), r_silu, "silu");
    expect_bitwise_equal(ops::softmax_lastdim(x), r_sm, "softmax_lastdim");
    expect_bitwise_equal(ops::softmax_lastdim_backward(r_sm, y), r_smb, "softmax backward");
    EXPECT_EQ(ops::argmax_lastdim(x), r_arg) << "argmax at " << nt << " threads";
  }
}

// --- IEEE NaN/Inf propagation ----------------------------------------------

// Kernels that skipped the inner loop when A[i,p] == 0 let a zero in A
// silently mask a NaN/Inf in B. Every variant must propagate:
// 0 * NaN == NaN and 0 * Inf == NaN.
TEST(Numerics, MatmulPropagatesNanThroughZeroRows) {
  ThreadGuard guard;
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const int64_t nt : {1, 4}) {
    parallel::set_num_threads(nt);

    Tensor a({2, 3});  // all zeros
    Tensor b({3, 2});
    b.at(1, 0) = qnan;
    b.at(2, 1) = inf;
    const Tensor c = ops::matmul(a, b);
    EXPECT_TRUE(std::isnan(c.at(0, 0))) << "0 * NaN must be NaN (nt=" << nt << ")";
    EXPECT_TRUE(std::isnan(c.at(1, 0)));
    EXPECT_TRUE(std::isnan(c.at(0, 1))) << "0 * Inf must be NaN (nt=" << nt << ")";
    EXPECT_TRUE(std::isnan(c.at(1, 1)));
  }

  // Sparse A at a blocked-dispatch shape: on finite inputs the exact zeros
  // contribute +0 terms and the result equals the naive reference bitwise;
  // a NaN in B behind a zero column of A still poisons every output row.
  Rng rng(9);
  Tensor sa = rand_tensor({40, 36}, rng);
  Tensor sb = rand_tensor({36, 48}, rng);
  for (int64_t i = 0; i < sa.numel(); i += 3) sa[i] = 0.0f;
  for (int64_t i = 0; i < 40; ++i) sa.at(i, 5) = 0.0f;
  ASSERT_TRUE(ops::gemm::use_blocked(ops::gemm::GemmKind::kNN, 40, 36, 48));
  expect_bitwise_equal(ops::matmul(sa, sb), ops::gemm::matmul_naive(sa, sb), "sparse matmul");
  sb.at(5, 7) = qnan;
  const Tensor sc = ops::matmul(sa, sb);
  for (int64_t i = 0; i < 40; ++i) EXPECT_TRUE(std::isnan(sc.at(i, 7))) << "row " << i;
}

TEST(Numerics, MatmulTnAndNtPropagateNan) {
  ThreadGuard guard;
  const float qnan = std::numeric_limits<float>::quiet_NaN();

  Tensor a_t({3, 2});  // stored [k,m], all zeros
  Tensor b({3, 2});
  b.at(0, 1) = qnan;
  const Tensor c_tn = ops::matmul_tn(a_t, b);
  EXPECT_TRUE(std::isnan(c_tn.at(0, 1)));
  EXPECT_TRUE(std::isnan(c_tn.at(1, 1)));

  Tensor a({2, 3});  // all zeros
  Tensor b_t({2, 3});  // stored [n,k]
  b_t.at(1, 2) = qnan;
  const Tensor c_nt = ops::matmul_nt(a, b_t);
  EXPECT_TRUE(std::isnan(c_nt.at(0, 1)));
  EXPECT_TRUE(std::isnan(c_nt.at(1, 1)));
}

TEST(Numerics, BmmVariantsPropagateNan) {
  ThreadGuard guard;
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const int64_t bs = 2, m = 2, k = 3, n = 2;

  // NaN planted in batch 1 only — batch 0 must stay clean (checks batch
  // indexing as well as propagation).
  Tensor ba({bs, m, k});
  Tensor bb({bs, k, n});
  bb.at(1, 0, 0) = qnan;
  const Tensor c = ops::bmm(ba, bb);
  EXPECT_EQ(c.at(0, 0, 0), 0.0f);
  EXPECT_TRUE(std::isnan(c.at(1, 0, 0)));
  EXPECT_TRUE(std::isnan(c.at(1, 1, 0)));

  Tensor bb_t({bs, n, k});
  bb_t.at(1, 1, 0) = qnan;
  const Tensor c_nt = ops::bmm_nt(ba, bb_t);
  EXPECT_EQ(c_nt.at(0, 1, 1), 0.0f);
  EXPECT_TRUE(std::isnan(c_nt.at(1, 0, 1)));

  Tensor ba_t({bs, k, m});
  Tensor bb2({bs, k, n});
  bb2.at(1, 2, 1) = qnan;
  const Tensor c_tn = ops::bmm_tn(ba_t, bb2);
  EXPECT_EQ(c_tn.at(0, 0, 1), 0.0f);
  EXPECT_TRUE(std::isnan(c_tn.at(1, 0, 1)));
  EXPECT_TRUE(std::isnan(c_tn.at(1, 1, 1)));

  // The attention backward's grad_v = bmm_tn(probs, grad_ctx): causal
  // probs hold exact zeros above the diagonal (probs[p][i] == 0 for i > p).
  // On finite inputs the dense kernel equals the naive reference bitwise;
  // a NaN in grad_ctx row 0 reaches every output row, including the rows
  // whose weight on it is an exact zero.
  Rng rng(10);
  const int64_t heads = 3, t = 12, dh = 16;
  Tensor probs = rand_tensor({heads, t, t}, rng);
  for (int64_t h = 0; h < heads; ++h) {
    for (int64_t p = 0; p < t; ++p) {
      for (int64_t i = p + 1; i < t; ++i) probs.at(h, p, i) = 0.0f;
    }
  }
  Tensor grad_ctx = rand_tensor({heads, t, dh}, rng);
  expect_bitwise_equal(ops::bmm_tn(probs, grad_ctx), ops::gemm::bmm_tn_naive(probs, grad_ctx),
                       "causal bmm_tn");
  grad_ctx.at(2, 0, 3) = qnan;
  const Tensor gv = ops::bmm_tn(probs, grad_ctx);
  for (int64_t i = 0; i < t; ++i) EXPECT_TRUE(std::isnan(gv.at(2, i, 3))) << "row " << i;
  EXPECT_FALSE(std::isnan(gv.at(1, 5, 3)));
}

// --- KV pool concurrent metrics (TSan target) -------------------------------

// Metrics accessors are const and documented safe to poll from any thread
// while the scheduler acquires, appends and releases. They read only
// mutex-guarded counters — never block contents, which are unlocked. A
// poller hammers every accessor while the main thread plays the scheduler
// (its appends allocate blocks under the pool mutex); TSan in CI turns any
// missing lock into a failure, and the invariant checks catch torn
// accounting.
TEST(PagedKvPoolThreads, MetricsPollingRacesAcquireRelease) {
  serve::KvPoolConfig cfg;
  cfg.n_slots = 4;
  cfg.max_seq = 16;
  cfg.n_layers = 1;
  cfg.kv_dim = 16;
  cfg.block_tokens = 2;
  serve::PagedKvPool pool(cfg);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      const int64_t live = pool.bytes_in_use();
      EXPECT_GE(live, 0);
      EXPECT_GE(pool.committed_bytes(), 0);
      EXPECT_GE(pool.high_water_bytes(), live);  // mark never trails a live read
      const int64_t used = pool.seqs_in_use();
      EXPECT_GE(used, 0);
      EXPECT_LE(used, 2);
    }
  });

  std::vector<float> row(16, 1.0f);
  for (int rep = 0; rep < 200; ++rep) {
    const std::vector<int64_t> prompt = {rep % 7, 1, 2, 3};
    auto a = pool.acquire(prompt, 8, 1);
    auto b = pool.acquire({rep % 5, 4}, 4, 1);
    ASSERT_NE(a.seq, nullptr);
    ASSERT_NE(b.seq, nullptr);
    for (int64_t p = a.seq->positions(0); p < 4; ++p) a.seq->append(0, row.data(), row.data());
    for (int64_t p = b.seq->positions(0); p < 2; ++p) b.seq->append(0, row.data(), row.data());
    EXPECT_GT(pool.bytes_in_use(), 0);
    // One publishes its full blocks to the prefix trie, one recycles.
    pool.release(a.seq, prompt, /*reuse=*/true);
    pool.release(b.seq, {}, /*reuse=*/false);
  }
  stop.store(true);
  poller.join();
  EXPECT_EQ(pool.seqs_in_use(), 0);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.bytes_in_use(), pool.cached_blocks() * pool.block_bytes());
  EXPECT_GT(pool.high_water_bytes(), 0);
  EXPECT_EQ(pool.audit(), "");
}

// --- end-to-end determinism across compute-thread counts --------------------

data::MarkovChain train_domain() {
  data::MarkovChain::Config cfg;
  cfg.vocab = 24;
  cfg.order = 1;
  cfg.branch = 3;
  cfg.mass = 0.85f;
  cfg.seed = 5;
  return data::MarkovChain(cfg);
}

// A short training run (fresh identically-seeded model each time) must
// produce bitwise-equal losses and weights at 1, 2, and 8 compute threads.
TEST(DeterminismEndToEnd, TrainingStepsBitwiseReproducibleAcrossThreads) {
  ThreadGuard guard;
  const data::MarkovChain domain = train_domain();

  auto run = [&](int64_t nt) {
    parallel::set_num_threads(nt);
    Rng rng(3);
    nn::CausalLm model(tiny_config(), rng);
    core::TunerConfig cfg;
    cfg.sampling = core::DepthSampling::kCyclic;
    cfg.backprop_window = 2;
    cfg.optim.lr = 1e-2f;
    core::AdaptiveLayerTuner tuner(model, cfg, Rng(7));
    Rng data_rng(11);
    std::vector<float> losses;
    for (int i = 0; i < 3; ++i) {
      const auto batch = data::sample_lm_batch(domain, 4, 12, data_rng);
      losses.push_back(tuner.step(batch).loss);
    }
    std::vector<nn::Param*> params;
    model.collect_params(params);
    std::vector<float> weights;
    for (const nn::Param* p : params) {
      for (int64_t i = 0; i < p->value.numel(); ++i) weights.push_back(p->value[i]);
    }
    return std::make_pair(losses, weights);
  };

  const auto ref = run(1);
  for (const int64_t nt : {2, 8}) {
    const auto got = run(nt);
    ASSERT_EQ(got.first.size(), ref.first.size());
    for (size_t i = 0; i < ref.first.size(); ++i) {
      EXPECT_EQ(got.first[i], ref.first[i]) << "loss step " << i << " at " << nt << " threads";
    }
    ASSERT_EQ(got.second.size(), ref.second.size());
    for (size_t i = 0; i < ref.second.size(); ++i) {
      ASSERT_EQ(got.second[i], ref.second[i]) << "weight " << i << " at " << nt << " threads";
    }
  }
}

std::vector<int64_t> prompt_tokens(int64_t n, int64_t vocab, int64_t salt) {
  std::vector<int64_t> t(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) t[static_cast<size_t>(i)] = (i * 5 + 2 + salt) % vocab;
  return t;
}

// GenerateConfig::n_threads routes through the same knob; greedy decode is
// bitwise identical at any value.
TEST(DeterminismEndToEnd, GenerateBitwiseReproducibleAcrossThreads) {
  ThreadGuard guard;
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(21);
  nn::CausalLm model(cfg, rng);
  model.set_eval();
  const auto prompt = prompt_tokens(5, cfg.vocab, 1);

  auto decode = [&](int64_t nt) {
    nn::IncrementalDecoder dec(model);
    nn::GenerateConfig g;
    g.max_new_tokens = 8;
    g.temperature = 0.0f;
    g.n_threads = nt;
    Rng srng(0);
    return dec.generate(prompt, g, srng);
  };

  const auto ref = decode(1);
  EXPECT_EQ(decode(2), ref);
  EXPECT_EQ(decode(8), ref);
}

TEST(DeterminismEndToEnd, GenerateConfigRejectsNegativeThreads) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(22);
  nn::CausalLm model(cfg, rng);
  nn::GenerateConfig g;
  g.n_threads = -1;
  EXPECT_THROW(nn::validate_generate_config(g, model), std::invalid_argument);
}

// Batch-4 served greedy decode must produce identical completions at
// compute_threads 1, 2, and 8 — and match the single-sequence reference.
TEST(DeterminismEndToEnd, ServedDecodeBitwiseReproducibleAcrossThreads) {
  ThreadGuard guard;
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(40);
  nn::CausalLm model(cfg, rng);

  std::vector<std::vector<int64_t>> prompts;
  for (int64_t i = 0; i < 4; ++i) prompts.push_back(prompt_tokens(4, cfg.vocab, i * 3));

  std::vector<std::vector<int64_t>> want;
  for (const auto& p : prompts) {
    nn::IncrementalDecoder dec(model);
    nn::GenerateConfig g;
    g.max_new_tokens = 6;
    g.temperature = 0.0f;
    Rng srng(0);
    want.push_back(dec.generate(p, g, srng));
  }

  for (const int64_t nt : {1, 2, 8}) {
    serve::EngineConfig ecfg;
    ecfg.max_batch = 4;
    ecfg.threads = 2;  // batch sharding, orthogonal to compute threads
    ecfg.compute_threads = nt;
    serve::ServeEngine engine(model, ecfg);
    std::vector<std::future<serve::Completion>> futs;
    for (size_t i = 0; i < prompts.size(); ++i) {
      serve::Request r;
      r.id = static_cast<int64_t>(i);
      r.prompt = prompts[i];
      r.max_new_tokens = 6;
      r.temperature = 0.0f;
      futs.push_back(engine.submit(std::move(r)));
    }
    for (size_t i = 0; i < futs.size(); ++i) {
      const serve::Completion c = futs[i].get();
      EXPECT_EQ(c.status, serve::RequestStatus::kOk);
      EXPECT_EQ(c.tokens, want[i]) << "request " << i << " at compute_threads=" << nt;
    }
    engine.shutdown();
  }
}

TEST(DeterminismEndToEnd, EngineRejectsNegativeComputeThreads) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(41);
  nn::CausalLm model(cfg, rng);
  serve::EngineConfig ecfg;
  ecfg.compute_threads = -2;
  EXPECT_THROW(serve::ServeEngine engine(model, ecfg), std::invalid_argument);
}

}  // namespace
}  // namespace edgellm

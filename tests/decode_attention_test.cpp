// Decode attention on the dispatched kernels (nn::attend_sequence): K
// gathered once per sequence and layer into transposed kNr-position panels,
// scores on gemm_tile, the shared polynomial exp, P·V on attn_pv. Every
// decode path runs it, so its contracts are pinned end to end here:
//   - decode logits are bitwise identical under scalar and native dispatch
//     at every cached length 1..max_seq (every panel edge), for MHA and
//     GQA, fp32 and int8 KV, contiguous ("slot": nn::KvCache) and paged
//     (serve::PagedKvSeq) storage;
//   - a multi-row step (chunked prefill, speculative verify) leaves the
//     same logits and cache rows as feeding its rows one at a time;
//   - a NaN/Inf in one sequence's cached K/V never reaches another
//     sequence, at 1, 2 and 4 threads (scratch is per thread and reused);
//   - attend_sequence agrees with a double-precision softmax attention.
// Run alone with `ctest -L decode` (also carries the simd label).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "nn/decoder.hpp"
#include "serve/kv_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "test_util.hpp"

namespace edgellm::nn {
namespace {

using edgellm::testing::DispatchScope;
using edgellm::testing::feed_positions;
using edgellm::testing::paged_cfg;
using edgellm::testing::seq_tokens;
using edgellm::testing::tiny_config;

struct AttnCase {
  const char* shape;  // printable name of the head layout
  int64_t d_model, n_heads, n_kv_heads;
  bool int8;
  bool paged;
};

void PrintTo(const AttnCase& c, std::ostream* os) {
  *os << c.shape << (c.int8 ? "_int8" : "_fp32") << (c.paged ? "_paged" : "_slot");
}

ModelConfig attn_config(const AttnCase& c) {
  ModelConfig cfg = tiny_config();
  cfg.d_model = c.d_model;
  cfg.n_heads = c.n_heads;
  cfg.n_kv_heads = c.n_kv_heads;
  cfg.d_ff = 2 * c.d_model;
  cfg.max_seq = 20;  // panel edges at 8 and 16, a partial third panel
  return cfg;
}

// One sequence's KV storage: a contiguous KvCache or a paged-pool sequence
// (blocks of 4 positions, so rows straddle blocks and panels differently).
class Backing {
 public:
  Backing(const ModelConfig& cfg, bool paged, bool int8) {
    if (paged) {
      pool_ = std::make_unique<serve::PagedKvPool>(
          paged_cfg(4, cfg.n_layers, cfg.kv_dim(), 0, nullptr, int8));
      seq_ = pool_->acquire({0}, cfg.max_seq, cfg.n_layers).seq;
      view_ = seq_;
    } else {
      slot_ = std::make_unique<KvCache>(cfg.n_layers, cfg.kv_dim(), int8);
      view_ = slot_.get();
    }
  }
  ~Backing() {
    if (pool_) pool_->release(seq_, {}, /*reuse=*/false);
  }
  Backing(const Backing&) = delete;
  Backing& operator=(const Backing&) = delete;

  KvSequenceView& view() { return *view_; }

 private:
  std::unique_ptr<KvCache> slot_;
  std::unique_ptr<serve::PagedKvPool> pool_;
  serve::PagedKvSeq* seq_ = nullptr;
  KvSequenceView* view_ = nullptr;
};

// Feeds tokens[pos, pos + n) in one batched call; returns the last row's logits.
Tensor feed(CausalLm& model, KvSequenceView& kv, const std::vector<int64_t>& tokens, int64_t pos,
            int64_t n, const DecodeWeightCache& weights) {
  BatchedSeq s;
  s.cache = &kv;
  s.position = pos;
  s.tokens = std::span<const int64_t>(tokens.data() + pos, static_cast<size_t>(n));
  batched_decode_step(model, std::span<BatchedSeq>(&s, 1), &weights);
  return std::move(s.logits.at(0));
}

void expect_bitwise(const float* got, const float* want, int64_t n, const std::string& what) {
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << " element " << i << ": got " << got[i] << " want " << want[i];
  }
}

// Every cached K and V row of `a` equals `b`'s, bitwise, in every layer.
void expect_same_cache(const KvSequenceView& a, const KvSequenceView& b, int64_t layers,
                       const std::string& what) {
  const int64_t kvd = a.kv_dim();
  std::vector<float> ra(static_cast<size_t>(kvd)), rb(static_cast<size_t>(kvd));
  for (int64_t l = 0; l < layers; ++l) {
    ASSERT_EQ(a.positions(l), b.positions(l)) << what << " layer " << l;
    for (int64_t p = 0; p < a.positions(l); ++p) {
      a.load_k(l, p, ra.data());
      b.load_k(l, p, rb.data());
      expect_bitwise(ra.data(), rb.data(), kvd, what + " K layer " + std::to_string(l));
      a.load_v(l, p, ra.data());
      b.load_v(l, p, rb.data());
      expect_bitwise(ra.data(), rb.data(), kvd, what + " V layer " + std::to_string(l));
    }
  }
}

class DecodeAttention : public ::testing::TestWithParam<AttnCase> {};

// Scalar and native dispatch decode the same sequence in lockstep, one
// token per step, so the cached length walks 1..max_seq through every
// panel edge; logits must agree bit for bit at every length.
TEST_P(DecodeAttention, LogitsIdenticalAcrossDispatchAtEveryLength) {
  DispatchScope scope;
  const ModelConfig cfg = attn_config(GetParam());
  Rng rng(41);
  CausalLm model(cfg, rng);
  model.set_eval();
  const DecodeWeightCache weights(model);
  Backing scalar(cfg, GetParam().paged, GetParam().int8);
  Backing native(cfg, GetParam().paged, GetParam().int8);
  const std::vector<int64_t> tokens = seq_tokens(cfg.max_seq, cfg.vocab, 3);
  for (int64_t pos = 0; pos < cfg.max_seq; ++pos) {
    ASSERT_TRUE(simd::set_dispatch("scalar"));
    const Tensor want = feed(model, scalar.view(), tokens, pos, 1, weights);
    ASSERT_TRUE(simd::set_dispatch("auto"));
    const Tensor got = feed(model, native.view(), tokens, pos, 1, weights);
    expect_bitwise(got.raw(), want.raw(), cfg.vocab, "t=" + std::to_string(pos + 1));
  }
}

// An 11-row chunked-prefill step starting mid-panel (positions 5..15: row
// strips of 4, 4 and 3 over panels ending at 8 and 16), then a speculative
// round whose verify pass is one multi-row step, against the same tokens
// fed one at a time.
TEST_P(DecodeAttention, MultiRowStepMatchesRowsFedOneAtATime) {
  const ModelConfig cfg = attn_config(GetParam());
  Rng rng(43);
  CausalLm model(cfg, rng);
  model.set_eval();
  const DecodeWeightCache weights(model);
  Backing stacked(cfg, GetParam().paged, GetParam().int8);
  Backing single(cfg, GetParam().paged, GetParam().int8);
  const std::vector<int64_t> tokens = seq_tokens(16, cfg.vocab, 5);
  for (int64_t pos = 0; pos < 5; ++pos) {
    (void)feed(model, stacked.view(), tokens, pos, 1, weights);
  }
  const Tensor want_prefill = feed(model, stacked.view(), tokens, 5, 11, weights);
  Tensor got_prefill;
  for (int64_t pos = 0; pos < 16; ++pos) {
    got_prefill = feed(model, single.view(), tokens, pos, 1, weights);
  }
  expect_bitwise(got_prefill.raw(), want_prefill.raw(), cfg.vocab, "prefill logits");
  expect_same_cache(stacked.view(), single.view(), cfg.n_layers, "after prefill");

  const int64_t k = 4;
  const int64_t first = ops::argmax_lastdim(want_prefill.reshape({1, cfg.vocab}))[0];
  const SpeculativeResult res =
      speculative_decode_step(model, stacked.view(), 16, first, /*draft_depth=*/1, k, &weights);
  ASSERT_FALSE(res.tokens.empty());
  std::vector<int64_t> fed = tokens;
  fed.push_back(first);
  for (size_t i = 0; i < res.tokens.size(); ++i) {
    const int64_t pos = 16 + static_cast<int64_t>(i);
    const Tensor lg = feed(model, single.view(), fed, pos, 1, weights);
    const int64_t greedy = ops::argmax_lastdim(lg.reshape({1, cfg.vocab}))[0];
    EXPECT_EQ(res.tokens[i], greedy) << "speculative token " << i;
    fed.push_back(greedy);
  }
  expect_same_cache(stacked.view(), single.view(), cfg.n_layers, "after speculative round");
}

// Three sequences decode in one batch; the first (history 13) gets a NaN K
// row and an Inf V row in every layer. The other two — shorter (3) and
// longer (19) than it, so the reused per-thread scratch is both partially
// and fully overwritten after it — must match a clean run bit for bit.
TEST_P(DecodeAttention, NonFiniteKvStaysInItsSequence) {
  const ModelConfig cfg = attn_config(GetParam());
  Rng rng(47);
  CausalLm model(cfg, rng);
  model.set_eval();
  const DecodeWeightCache weights(model);
  const std::vector<int64_t> lengths = {13, 3, 19};
  const auto run = [&](bool poison, int64_t threads) {
    parallel::NumThreadsScope scope(threads);
    std::vector<std::unique_ptr<Backing>> kv;
    std::vector<std::vector<int64_t>> toks;
    std::vector<BatchedSeq> seqs(lengths.size());
    for (size_t i = 0; i < lengths.size(); ++i) {
      kv.push_back(std::make_unique<Backing>(cfg, GetParam().paged, GetParam().int8));
      toks.push_back(seq_tokens(cfg.max_seq, cfg.vocab, static_cast<int64_t>(i)));
      int64_t len = lengths[i];
      if (i == 0) --len;  // its last history row is appended below
      (void)feed(model, kv[i]->view(), toks[i], 0, len, weights);
      if (i == 0) {
        std::vector<float> k(static_cast<size_t>(cfg.kv_dim()), 0.25f);
        std::vector<float> v(static_cast<size_t>(cfg.kv_dim()), -0.5f);
        if (poison) {
          k[1] = std::numeric_limits<float>::quiet_NaN();
          v[0] = std::numeric_limits<float>::infinity();
        }
        for (int64_t l = 0; l < cfg.n_layers; ++l) kv[i]->view().append(l, k.data(), v.data());
      }
      seqs[i].cache = &kv[i]->view();
      seqs[i].position = lengths[i];
      seqs[i].tokens = std::span<const int64_t>(toks[i].data() + lengths[i], 1);
    }
    batched_decode_step(model, seqs, &weights);
    std::vector<Tensor> out;
    for (BatchedSeq& s : seqs) out.push_back(std::move(s.logits.at(0)));
    return out;
  };
  for (const int64_t threads : {1, 2, 4}) {
    const std::vector<Tensor> clean = run(false, threads);
    const std::vector<Tensor> poisoned = run(true, threads);
    for (size_t i = 1; i < lengths.size(); ++i) {
      expect_bitwise(poisoned[i].raw(), clean[i].raw(), cfg.vocab,
                     "sequence " + std::to_string(i) + " at " + std::to_string(threads) +
                         " threads");
    }
    if (!GetParam().int8) {  // int8 rows carry the non-finite value into their scale
      bool finite = true;
      for (int64_t j = 0; j < cfg.vocab; ++j) finite = finite && std::isfinite(poisoned[0][j]);
      EXPECT_FALSE(finite) << "the poisoned sequence's logits stayed finite";
    }
  }
}

// attend_sequence against softmax attention computed in double with libm
// exp, over a cache filled with known rows: catches a wrong panel or head
// mapping that every dispatch would share.
TEST_P(DecodeAttention, AttendSequenceMatchesDoubleReference) {
  const ModelConfig cfg = attn_config(GetParam());
  const int64_t c = cfg.d_model;
  const int64_t dh = c / cfg.n_heads;
  const int64_t group = cfg.n_heads / cfg.kv_heads();
  const int64_t kvd = cfg.kv_dim();
  Backing b(cfg, GetParam().paged, GetParam().int8);
  feed_positions(b.view(), 19, cfg.n_layers, /*salt=*/7);
  const int64_t first = 9, m = 10, layer = 1;
  Rng rng(53);
  std::vector<float> q(static_cast<size_t>(m * c));
  for (float& x : q) x = rng.uniform(-1.0f, 1.0f);
  std::vector<float> ctx(static_cast<size_t>(m * c), 123.0f);  // overwritten
  attend_sequence(cfg, b.view(), layer, first, m, q.data(), ctx.data());

  std::vector<float> kr(static_cast<size_t>(kvd)), vr(static_cast<size_t>(kvd));
  for (int64_t j = 0; j < m; ++j) {
    const int64_t t = first + j + 1;
    for (int64_t h = 0; h < cfg.n_heads; ++h) {
      const int64_t kv_off = (h / group) * dh;
      std::vector<double> w(static_cast<size_t>(t));
      double mx = -1e300, denom = 0.0;
      for (int64_t p = 0; p < t; ++p) {
        b.view().load_k(layer, p, kr.data());
        double s = 0.0;
        for (int64_t d = 0; d < dh; ++d) s += double{q[j * c + h * dh + d]} * kr[kv_off + d];
        w[p] = s / std::sqrt(static_cast<double>(dh));
        mx = std::max(mx, w[p]);
      }
      for (double& x : w) denom += (x = std::exp(x - mx));
      for (int64_t d = 0; d < dh; ++d) {
        double want = 0.0;
        for (int64_t p = 0; p < t; ++p) {
          b.view().load_v(layer, p, vr.data());
          want += w[p] / denom * vr[kv_off + d];
        }
        EXPECT_NEAR(ctx[j * c + h * dh + d], want, 1e-5)
            << "row " << j << " head " << h << " lane " << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, DecodeAttention,
    ::testing::Values(AttnCase{"mha_dh16", 64, 4, 0, false, false},
                      AttnCase{"mha_dh16", 64, 4, 0, true, false},
                      AttnCase{"mha_dh16", 64, 4, 0, false, true},
                      AttnCase{"mha_dh16", 64, 4, 0, true, true},
                      AttnCase{"gqa_dh8", 32, 4, 2, false, false},
                      AttnCase{"gqa_dh8", 32, 4, 2, true, true},
                      AttnCase{"gqa_dh4", 16, 4, 2, false, false},
                      AttnCase{"gqa_dh4", 16, 4, 2, true, false},
                      AttnCase{"gqa_dh4", 16, 4, 2, false, true},
                      AttnCase{"gqa_dh4", 16, 4, 2, true, true},
                      AttnCase{"mha_dh6", 12, 2, 0, false, false}),
    [](const ::testing::TestParamInfo<AttnCase>& info) {
      std::string name = info.param.shape;
      name += info.param.int8 ? "_int8" : "_fp32";
      name += info.param.paged ? "_paged" : "_slot";
      return name;
    });

}  // namespace
}  // namespace edgellm::nn

// KV-cached incremental decoding must agree exactly with the batched
// forward pass, under compression too.
#include <gtest/gtest.h>

#include <bit>

#include "core/tuner.hpp"
#include "data/eval.hpp"
#include "nn/decoder.hpp"
#include "test_util.hpp"

namespace edgellm::nn {
namespace {

using edgellm::testing::tiny_config;

std::vector<int64_t> seq_tokens(int64_t n, int64_t vocab) {
  std::vector<int64_t> t(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) t[static_cast<size_t>(i)] = (i * 5 + 2) % vocab;
  return t;
}

TEST(Decoder, MatchesBatchedForwardAtEveryPosition) {
  const ModelConfig cfg = tiny_config();
  Rng rng(1);
  CausalLm model(cfg, rng);
  const auto toks = seq_tokens(10, cfg.vocab);

  // Batched reference: logits for the full sequence at once.
  const Tensor ref = model.forward_eval(toks, 1, 10, cfg.n_layers);

  IncrementalDecoder dec(model);
  dec.prime({toks[0]});
  for (size_t i = 1; i <= toks.size(); ++i) {
    const Tensor& inc = dec.logits();
    for (int64_t v = 0; v < cfg.vocab; ++v) {
      ASSERT_NEAR(inc[v], ref[(static_cast<int64_t>(i) - 1) * cfg.vocab + v], 1e-4f)
          << "pos " << i - 1 << " vocab " << v;
    }
    if (i < toks.size()) dec.step(toks[i]);
  }
}

TEST(Decoder, MatchesBatchedForwardUnderCompression) {
  const ModelConfig cfg = tiny_config();
  Rng rng(2);
  CausalLm model(cfg, rng);
  quant::QuantSpec q;
  q.bits = 4;
  prune::PruneSpec p;
  p.sparsity = 0.5f;
  for (TransformerBlock* b : model.blocks()) b->set_compression(q, p);

  const auto toks = seq_tokens(8, cfg.vocab);
  const Tensor ref = model.forward_eval(toks, 1, 8, cfg.n_layers);

  IncrementalDecoder dec(model);
  dec.prime(toks);
  for (int64_t v = 0; v < cfg.vocab; ++v) {
    EXPECT_NEAR(dec.logits()[v], ref[7 * cfg.vocab + v], 1e-4f);
  }
}

TEST(Decoder, EarlyExitDecoding) {
  const ModelConfig cfg = tiny_config();
  Rng rng(3);
  CausalLm model(cfg, rng);
  const auto toks = seq_tokens(6, cfg.vocab);
  const Tensor ref = model.forward_eval(toks, 1, 6, /*exit_layer=*/2);

  IncrementalDecoder dec(model, /*exit_layer=*/2);
  dec.prime(toks);
  for (int64_t v = 0; v < cfg.vocab; ++v) {
    EXPECT_NEAR(dec.logits()[v], ref[5 * cfg.vocab + v], 1e-4f);
  }
  EXPECT_THROW(IncrementalDecoder(model, 5), std::invalid_argument);  // not an exit
}

TEST(Decoder, KvCacheGrowsLinearly) {
  const ModelConfig cfg = tiny_config();
  Rng rng(4);
  CausalLm model(cfg, rng);
  IncrementalDecoder dec(model);
  dec.prime({1});
  const int64_t one = dec.kv_cache_bytes();
  // K + V per layer per position.
  EXPECT_EQ(one, cfg.n_layers * 2 * cfg.d_model * static_cast<int64_t>(sizeof(float)));
  dec.step(2);
  dec.step(3);
  EXPECT_EQ(dec.kv_cache_bytes(), 3 * one);
  EXPECT_EQ(dec.position(), 3);
}

TEST(Decoder, ContextWindowEnforced) {
  ModelConfig cfg = tiny_config();
  cfg.max_seq = 4;
  Rng rng(5);
  CausalLm model(cfg, rng);
  IncrementalDecoder dec(model);
  dec.prime({1, 2, 3, 4});
  EXPECT_THROW(dec.step(5), std::invalid_argument);
}

TEST(Decoder, GreedySamplingIsArgmax) {
  Tensor logits = Tensor::from_values({0.1f, 3.0f, -1.0f, 0.5f});
  Rng rng(6);
  GenerateConfig cfg;
  cfg.temperature = 0.0f;
  EXPECT_EQ(sample_token(logits, cfg, rng), 1);
}

TEST(Decoder, TopKRestrictsSupport) {
  Tensor logits = Tensor::from_values({5.0f, 4.0f, -10.0f, -10.0f});
  Rng rng(7);
  GenerateConfig cfg;
  cfg.temperature = 1.0f;
  cfg.top_k = 2;
  for (int i = 0; i < 50; ++i) {
    const int64_t t = sample_token(logits, cfg, rng);
    EXPECT_TRUE(t == 0 || t == 1) << t;
  }
}

TEST(Decoder, GenerateProducesRequestedTokens) {
  const ModelConfig cfg = tiny_config();
  Rng rng(8);
  CausalLm model(cfg, rng);
  IncrementalDecoder dec(model);
  GenerateConfig gcfg;
  gcfg.max_new_tokens = 5;
  gcfg.temperature = 0.8f;
  Rng srng(9);
  const auto out = dec.generate({1, 2, 3}, gcfg, srng);
  EXPECT_EQ(out.size(), 5u);
  for (int64_t t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, cfg.vocab);
  }
}

TEST(Decoder, QuantizedKvCloseToFp) {
  const ModelConfig cfg = tiny_config();
  Rng rng(20);
  CausalLm model(cfg, rng);
  const auto toks = seq_tokens(10, cfg.vocab);

  IncrementalDecoder fp(model, 0, /*quantize_kv=*/false);
  IncrementalDecoder q(model, 0, /*quantize_kv=*/true);
  fp.prime(toks);
  q.prime(toks);

  // int8 KV perturbs logits slightly; rankings should survive.
  float max_abs = 0.0f;
  for (int64_t v = 0; v < cfg.vocab; ++v) max_abs = std::max(max_abs, std::fabs(fp.logits()[v]));
  for (int64_t v = 0; v < cfg.vocab; ++v) {
    EXPECT_NEAR(q.logits()[v], fp.logits()[v], 0.05f * std::max(1.0f, max_abs)) << v;
  }
}

TEST(Decoder, ResetAllowsServingSuccessivePrompts) {
  const ModelConfig cfg = tiny_config();
  Rng rng(30);
  CausalLm model(cfg, rng);
  const auto a = seq_tokens(6, cfg.vocab);
  const std::vector<int64_t> b = {3, 1, 4, 1, 5};

  IncrementalDecoder fresh(model);
  fresh.prime(b);

  IncrementalDecoder reused(model);
  reused.prime(a);
  reused.reset();
  EXPECT_EQ(reused.position(), 0);
  EXPECT_EQ(reused.kv_cache_bytes(), 0);
  reused.prime(b);
  for (int64_t v = 0; v < cfg.vocab; ++v) {
    EXPECT_EQ(reused.logits()[v], fresh.logits()[v]) << v;  // no state leaked
  }
}

// prime() snapshots the effective weights once (DecodeWeightCache) and
// decodes the prompt and every step() against the snapshot. Training
// between two primes must show up after the second prime, and every logit
// must stay bitwise equal to the uncached decode_step path.
TEST(Decoder, RePrimeAfterTrainingMatchesUncachedDecodeBitwise) {
  const ModelConfig cfg = tiny_config();
  Rng rng(31);
  CausalLm model(cfg, rng);
  quant::QuantSpec q;
  q.bits = 4;
  prune::PruneSpec p;
  p.sparsity = 0.5f;
  model.blocks()[0]->set_compression(q, p);  // effective_weight does real work

  data::MarkovChain::Config dc;
  dc.vocab = cfg.vocab;
  dc.seed = 3;
  const data::MarkovChain domain(dc);
  core::TunerConfig tcfg = core::TunerConfig::vanilla();
  tcfg.optim.lr = 1e-2f;
  core::AdaptiveLayerTuner tuner(model, tcfg, Rng(32));
  Rng drng(33);

  const std::vector<int64_t> prompt = {3, 1, 4, 1, 5};
  const std::vector<int64_t> fed = {2, 7, 1};
  IncrementalDecoder dec(model);
  const auto decode_and_compare = [&](Tensor& first) {
    dec.prime(prompt);
    KvCache ref_cache(cfg.n_layers, cfg.kv_dim(), false);
    Tensor ref;
    int64_t pos = 0;
    for (int64_t t : prompt) ref = decode_step(model, ref_cache, pos++, t, 0);
    first = dec.logits();
    for (size_t i = 0; i <= fed.size(); ++i) {
      ASSERT_EQ(dec.logits().numel(), ref.numel());
      for (int64_t v = 0; v < ref.numel(); ++v) {
        ASSERT_EQ(std::bit_cast<uint32_t>(dec.logits()[v]), std::bit_cast<uint32_t>(ref[v]))
            << "token " << i << " vocab " << v;
      }
      if (i == fed.size()) break;
      dec.step(fed[i]);
      ref = decode_step(model, ref_cache, pos++, fed[i], 0);
    }
  };

  Tensor before, after;
  decode_and_compare(before);
  for (int i = 0; i < 3; ++i) tuner.step(data::sample_lm_batch(domain, 2, 8, drng));
  decode_and_compare(after);
  bool moved = false;
  for (int64_t v = 0; v < before.numel(); ++v) moved |= before[v] != after[v];
  EXPECT_TRUE(moved) << "training should change the re-primed logits";
}

TEST(Decoder, GenerateConfigValidation) {
  const ModelConfig cfg = tiny_config();
  Rng rng(31);
  CausalLm model(cfg, rng);
  IncrementalDecoder dec(model);
  Rng srng(1);

  GenerateConfig g;
  g.max_new_tokens = 0;
  EXPECT_THROW(dec.generate({1}, g, srng), std::invalid_argument);
  g = GenerateConfig{};
  g.top_k = cfg.vocab + 1;
  EXPECT_THROW(dec.generate({1}, g, srng), std::invalid_argument);
  g = GenerateConfig{};
  g.top_k = -1;
  EXPECT_THROW(dec.generate({1}, g, srng), std::invalid_argument);
  g = GenerateConfig{};
  g.exit_layer = 5;  // not a registered exit
  EXPECT_THROW(dec.generate({1}, g, srng), std::invalid_argument);
  g = GenerateConfig{};
  g.exit_layer = 2;  // registered, but this decoder caches full depth
  EXPECT_THROW(dec.generate({1}, g, srng), std::invalid_argument);

  IncrementalDecoder early(model, 2);
  g = GenerateConfig{};
  g.exit_layer = 2;
  g.max_new_tokens = 2;
  EXPECT_EQ(early.generate({1}, g, srng).size(), 2u);
}

TEST(Decoder, QuantizedKvBytesAccountedExactly) {
  const ModelConfig cfg = tiny_config();
  Rng rng(32);
  CausalLm model(cfg, rng);
  IncrementalDecoder q(model, 0, /*quantize_kv=*/true);
  q.prime({1, 2, 3, 4, 5});
  // int8 payload + one fp32 scale per K and per V row, per layer, per
  // position.
  const int64_t per_pos = cfg.n_layers * 2 * (cfg.kv_dim() + 4);
  EXPECT_EQ(q.kv_cache_bytes(), 5 * per_pos);
  IncrementalDecoder fp(model, 0, false);
  fp.prime({1, 2, 3, 4, 5});
  EXPECT_EQ(fp.kv_cache_bytes(), 5 * cfg.n_layers * 2 * cfg.kv_dim() * 4);
}

// Early-exit incremental generation must agree with greedily decoding from
// the full (non-cached) forward pass at the same fixed exit.
TEST(Decoder, EarlyExitGenerateAgreesWithFullForward) {
  const ModelConfig cfg = tiny_config();
  Rng rng(33);
  CausalLm model(cfg, rng);
  const std::vector<int64_t> prompt = {2, 7, 11};
  const int64_t n_new = 5;

  IncrementalDecoder dec(model, /*exit_layer=*/2);
  GenerateConfig g;
  g.max_new_tokens = n_new;
  g.temperature = 0.0f;
  g.exit_layer = 2;
  Rng srng(1);
  const auto got = dec.generate(prompt, g, srng);

  std::vector<int64_t> seq = prompt;
  std::vector<int64_t> want;
  for (int64_t i = 0; i < n_new; ++i) {
    const int64_t T = static_cast<int64_t>(seq.size());
    const Tensor logits = model.forward_eval(seq, 1, T, /*exit_layer=*/2);
    int64_t best = 0;
    for (int64_t v = 1; v < cfg.vocab; ++v) {
      if (logits[(T - 1) * cfg.vocab + v] > logits[(T - 1) * cfg.vocab + best]) best = v;
    }
    want.push_back(best);
    seq.push_back(best);
  }
  EXPECT_EQ(got, want);
}

TEST(Decoder, QuantizedKvUsesQuarterMemory) {
  const ModelConfig cfg = tiny_config();
  Rng rng(21);
  CausalLm model(cfg, rng);
  IncrementalDecoder fp(model, 0, false);
  IncrementalDecoder q(model, 0, true);
  fp.prime({1, 2, 3, 4, 5, 6, 7, 8});
  q.prime({1, 2, 3, 4, 5, 6, 7, 8});
  // int8 payload + one fp32 scale per vector vs fp32 payload.
  EXPECT_LT(q.kv_cache_bytes(), fp.kv_cache_bytes() / 3);
  EXPECT_GT(q.kv_cache_bytes(), 0);
}

// After adapting to a domain, generated continuations should follow the
// domain's preferred transitions far more often than chance.
TEST(Decoder, AdaptedModelGeneratesInDomain) {
  data::MarkovChain::Config dc;
  dc.vocab = 24;
  dc.order = 1;
  dc.branch = 3;
  dc.seed = 5;
  const data::MarkovChain domain(dc);

  Rng rng(10);
  CausalLm model(tiny_config(), rng);
  core::TunerConfig tcfg = core::TunerConfig::vanilla();
  tcfg.optim.lr = 1e-2f;
  core::AdaptiveLayerTuner tuner(model, tcfg, Rng(11));
  Rng drng(12);
  for (int i = 0; i < 250; ++i) {
    tuner.step(data::sample_lm_batch(domain, 4, 12, drng));
  }

  IncrementalDecoder dec(model);
  GenerateConfig gcfg;
  gcfg.max_new_tokens = 12;
  gcfg.temperature = 0.7f;
  Rng srng(13);

  int64_t preferred = 0, total = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto prompt = domain.sample(4, srng);
    std::vector<int64_t> seq = prompt;
    const auto gen = dec.generate(prompt, gcfg, srng);
    seq.insert(seq.end(), gen.begin(), gen.end());
    for (size_t i = prompt.size(); i < seq.size(); ++i) {
      const std::vector<int64_t> ctx = {seq[i - 1]};
      if (domain.next_dist(ctx)[static_cast<size_t>(seq[i])] > 0.1f) ++preferred;
      ++total;
    }
  }
  // Chance would be branch/vocab = 12.5%; a trained model should be high.
  EXPECT_GT(static_cast<double>(preferred) / total, 0.5);
}

}  // namespace
}  // namespace edgellm::nn

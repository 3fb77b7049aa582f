// Behavioural tests for NN modules: caching discipline, optimizers, LoRA,
// losses, compression wiring.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/lora.hpp"
#include "nn/mlp.hpp"
#include "nn/optim.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace edgellm::nn {
namespace {

TEST(Linear, ShapesAndBias) {
  Rng rng(1);
  Linear lin("lin", 3, 5, /*bias=*/true, rng);
  const Tensor y = lin.forward(Tensor({2, 4, 3}, 0.0f));
  EXPECT_EQ(y.shape(), (Shape{2, 4, 5}));
  // Zero input -> output equals bias on every row.
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t j = 0; j < 5; ++j) EXPECT_FLOAT_EQ(y[r * 5 + j], lin.bias().value[j]);
  }
}

TEST(Linear, FeatureMismatchThrows) {
  Rng rng(1);
  Linear lin("lin", 3, 5, false, rng);
  EXPECT_THROW(lin.forward(Tensor({2, 4})), std::invalid_argument);
}

TEST(Linear, NoCacheWhenGradDisabled) {
  Rng rng(2);
  Linear lin("lin", 4, 4, false, rng);
  lin.set_grad_enabled(false);
  (void)lin.forward(Tensor({2, 4}, 1.0f));
  EXPECT_EQ(lin.cached_activation_bytes(), 0);
  EXPECT_THROW(lin.backward(Tensor({2, 4}, 1.0f)), std::invalid_argument);

  lin.set_grad_enabled(true);
  (void)lin.forward(Tensor({2, 4}, 1.0f));
  EXPECT_GT(lin.cached_activation_bytes(), 0);
  lin.clear_cache();
  EXPECT_EQ(lin.cached_activation_bytes(), 0);
}

TEST(Linear, EffectiveWeightAppliesMaskThenQuant) {
  Rng rng(3);
  Linear lin("lin", 8, 8, false, rng);
  prune::PruneSpec p;
  p.sparsity = 0.5f;
  lin.set_prune(p);
  quant::QuantSpec q;
  q.bits = 4;
  lin.set_quant(q);
  const Tensor eff = lin.effective_weight();
  const Tensor& mask = *lin.prune_mask();
  for (int64_t i = 0; i < eff.numel(); ++i) {
    if (mask[i] == 0.0f) {
      EXPECT_FLOAT_EQ(eff[i], 0.0f);
    }
  }
  lin.clear_compression();
  EXPECT_TRUE(lin.effective_weight().equals(lin.weight().value));
}

TEST(Linear, StorageBytesShrinkWithCompression) {
  Rng rng(4);
  Linear lin("lin", 32, 32, false, rng);
  const double fp16 = lin.weight_storage_bytes();
  quant::QuantSpec q;
  q.bits = 4;
  lin.set_quant(q);
  const double q4 = lin.weight_storage_bytes();
  // The sparse format pays one index byte per kept value, so sparsity only
  // wins storage once it is high enough (compute savings are separate).
  prune::PruneSpec p;
  p.sparsity = 0.8f;
  lin.set_prune(p);
  const double q4p = lin.weight_storage_bytes();
  EXPECT_LT(q4, fp16);
  EXPECT_LT(q4p, q4);
}

TEST(Embedding, LookupAndScatterGrad) {
  Rng rng(5);
  Embedding emb("emb", 10, 4, rng);
  const std::vector<int64_t> toks = {3, 3, 7};
  const Tensor out = emb.forward(toks);
  EXPECT_EQ(out.shape(), (Shape{3, 4}));
  for (int64_t d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(out.at(0, d), emb.weight().value.at(3, d));
    EXPECT_FLOAT_EQ(out.at(2, d), emb.weight().value.at(7, d));
  }
  Tensor g({3, 4}, 1.0f);
  emb.backward(g);
  for (int64_t d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(emb.weight().grad.at(3, d), 2.0f);  // two lookups of token 3
    EXPECT_FLOAT_EQ(emb.weight().grad.at(7, d), 1.0f);
    EXPECT_FLOAT_EQ(emb.weight().grad.at(0, d), 0.0f);
  }
  EXPECT_THROW(emb.forward({11}), std::invalid_argument);
}

TEST(Loss, MatchesManualComputation) {
  Tensor logits({2, 3}, std::vector<float>{1.0f, 2.0f, 3.0f, 0.0f, 0.0f, 0.0f});
  const std::vector<int64_t> targets = {2, 1};
  const float loss = cross_entropy_loss_only(logits, targets);
  const float l0 = -std::log(std::exp(3.0f) / (std::exp(1.0f) + std::exp(2.0f) + std::exp(3.0f)));
  const float l1 = -std::log(1.0f / 3.0f);
  EXPECT_NEAR(loss, (l0 + l1) / 2.0f, 1e-5f);
}

TEST(Loss, AllIgnoredThrows) {
  Tensor logits({2, 3}, 0.0f);
  EXPECT_THROW(cross_entropy_loss_only(logits, {kIgnoreIndex, kIgnoreIndex}),
               std::invalid_argument);
  EXPECT_THROW(cross_entropy_loss_only(logits, {0}), std::invalid_argument);
  EXPECT_THROW(cross_entropy_loss_only(logits, {0, 3}), std::invalid_argument);
}

TEST(Optim, SgdConvergesOnQuadratic) {
  // min (w - 3)^2 via explicit gradient.
  Param w("w", Tensor::from_values({0.0f}));
  Sgd opt({&w}, {.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.0f});
  for (int i = 0; i < 100; ++i) {
    w.zero_grad();
    w.grad_buffer()[0] = 2.0f * (w.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0f, 1e-3f);
}

TEST(Optim, SgdMomentumStateBytes) {
  Param w("w", Tensor({8}));
  Sgd opt({&w}, {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 0.0f});
  EXPECT_EQ(opt.state_bytes(), 0);
  w.grad_buffer().fill(1.0f);
  opt.step();
  EXPECT_EQ(opt.state_bytes(), 8 * 4);
}

TEST(Optim, AdamWConvergesOnQuadratic) {
  Param w("w", Tensor::from_values({0.0f}));
  AdamW opt({&w}, {.lr = 0.1f});
  for (int i = 0; i < 200; ++i) {
    w.zero_grad();
    w.grad_buffer()[0] = 2.0f * (w.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0f, 1e-2f);
}

TEST(Optim, FrozenParamsSkipped) {
  Param w("w", Tensor::from_values({1.0f}));
  w.trainable = false;
  AdamW opt({&w}, {.lr = 0.1f});
  w.grad_buffer()[0] = 5.0f;
  opt.step();
  EXPECT_FLOAT_EQ(w.value[0], 1.0f);
  EXPECT_EQ(opt.state_bytes(), 0);
}

TEST(Optim, StateAllocatedLazilyPerParam) {
  Param a("a", Tensor({4})), b("b", Tensor({4}));
  AdamW opt({&a}, {.lr = 0.1f});
  a.grad_buffer().fill(1.0f);
  opt.step();
  const int64_t one = opt.state_bytes();
  EXPECT_EQ(one, 4 * 4 * 2);
  // Re-scoping to {b} keeps a's state (moments survive window revisits).
  opt.set_params({&b});
  b.grad_buffer().fill(1.0f);
  opt.step();
  EXPECT_EQ(opt.state_bytes(), 2 * one);
}

TEST(Optim, ClipGradNorm) {
  Param w("w", Tensor({4}));
  w.grad_buffer().fill(3.0f);  // norm = 6
  const float pre = clip_grad_norm({&w}, 3.0f);
  EXPECT_NEAR(pre, 6.0f, 1e-5f);
  float norm = 0.0f;
  for (int i = 0; i < 4; ++i) norm += w.grad[i] * w.grad[i];
  EXPECT_NEAR(std::sqrt(norm), 3.0f, 1e-4f);

  // Below the threshold nothing changes.
  w.grad_buffer().fill(0.1f);
  clip_grad_norm({&w}, 3.0f);
  EXPECT_FLOAT_EQ(w.grad[0], 0.1f);
}

TEST(Lora, ZeroInitIsNoOp) {
  Rng rng(6);
  Linear lin("lin", 6, 6, false, rng);
  const Tensor x = randn({2, 6}, rng);
  lin.set_grad_enabled(false);
  const Tensor before = lin.forward(x);
  lin.enable_lora(2, 8.0f, rng);
  const Tensor after = lin.forward(x);
  EXPECT_TRUE(before.allclose(after, 1e-6f));
}

TEST(Lora, ModelLevelFreezing) {
  Rng rng(7);
  nn::ModelConfig cfg = edgellm::testing::tiny_config();
  CausalLm model(cfg, rng);
  const int64_t base_params = model.param_count();
  enable_lora_tuning(model, 2, 4.0f, rng);
  EXPECT_GT(model.param_count(), base_params);

  int64_t trainable = 0;
  for (Param* p : model.params()) {
    if (p->trainable) trainable += p->numel();
  }
  // Only adapters + exit norms/heads are trainable, far fewer than base.
  EXPECT_LT(trainable, base_params / 2);
  for (Param* p : model.params()) {
    if (p->name.find("block") == 0 && p->name.find("lora") == std::string::npos) {
      EXPECT_FALSE(p->trainable) << p->name;
    }
  }
  disable_lora_tuning(model);
  EXPECT_EQ(model.param_count(), base_params);
  for (Param* p : model.params()) EXPECT_TRUE(p->trainable);
}

TEST(Mlp, CacheAccounting) {
  Rng rng(8);
  Mlp mlp("mlp", 4, 8, rng);
  (void)mlp.forward(Tensor({2, 4}, 1.0f));
  // fc1 input 2*4, pre-act 2*8, fc2 input 2*8 floats.
  EXPECT_EQ(mlp.cached_activation_bytes(), (8 + 16 + 16) * 4);
  mlp.clear_cache();
  EXPECT_EQ(mlp.cached_activation_bytes(), 0);
}

}  // namespace
}  // namespace edgellm::nn

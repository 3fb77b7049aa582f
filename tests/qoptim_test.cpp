// Quantized-state AdamW: convergence parity with fp32 AdamW at ~4x less
// optimizer memory.
#include <gtest/gtest.h>

#include "core/tuner.hpp"
#include "data/eval.hpp"
#include "nn/optim.hpp"
#include "test_util.hpp"

namespace edgellm::nn {
namespace {

TEST(QuantizedAdamW, ConvergesOnQuadratic) {
  Param w("w", Tensor::from_values({0.0f}));
  QuantizedAdamW opt({&w}, {.lr = 0.1f});
  for (int i = 0; i < 200; ++i) {
    w.zero_grad();
    w.grad_buffer()[0] = 2.0f * (w.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0f, 5e-2f);
}

TEST(QuantizedAdamW, StateBytesQuartered) {
  Param w("w", Tensor({1024}));
  AdamW fp({&w}, {.lr = 0.1f});
  w.grad_buffer().fill(1.0f);
  fp.step();
  const int64_t fp_bytes = fp.state_bytes();

  Param w2("w2", Tensor({1024}));
  QuantizedAdamW q({&w2}, {.lr = 0.1f});
  w2.grad_buffer().fill(1.0f);
  q.step();
  const int64_t q_bytes = q.state_bytes();

  EXPECT_EQ(fp_bytes, 1024 * 8);
  // int8 m + uint8 v + 2 fp32 scales per 128-block.
  EXPECT_EQ(q_bytes, 1024 * 2 + (1024 / 128) * 2 * 4);
  EXPECT_LT(q_bytes, fp_bytes / 3);
}

TEST(QuantizedAdamW, TracksFp32AdamWClosely) {
  // Identical quadratic bowls in many dimensions; trajectories should stay
  // close despite the int8 moment storage.
  Rng rng(1);
  const Tensor target = randn({256}, rng);
  Param a("a", Tensor({256}));
  Param b("b", Tensor({256}));
  AdamW fp({&a}, {.lr = 0.05f});
  QuantizedAdamW q({&b}, {.lr = 0.05f});
  for (int i = 0; i < 150; ++i) {
    a.zero_grad();
    b.zero_grad();
    for (int64_t j = 0; j < 256; ++j) {
      a.grad_buffer()[j] = 2.0f * (a.value[j] - target[j]);
      b.grad_buffer()[j] = 2.0f * (b.value[j] - target[j]);
    }
    fp.step();
    q.step();
  }
  double err_fp = 0.0, err_q = 0.0;
  for (int64_t j = 0; j < 256; ++j) {
    err_fp += std::fabs(a.value[j] - target[j]);
    err_q += std::fabs(b.value[j] - target[j]);
  }
  EXPECT_LT(err_q / 256.0, err_fp / 256.0 + 0.05);
}

TEST(QuantizedAdamW, FrozenParamsSkipped) {
  Param w("w", Tensor::from_values({1.0f}));
  w.trainable = false;
  QuantizedAdamW opt({&w}, {.lr = 0.1f});
  w.grad_buffer()[0] = 5.0f;
  opt.step();
  EXPECT_FLOAT_EQ(w.value[0], 1.0f);
  EXPECT_EQ(opt.state_bytes(), 0);
}

TEST(QuantizedAdamW, RejectsBadConfig) {
  Param w("w", Tensor({4}));
  EXPECT_THROW(QuantizedAdamW({&w}, {.lr = -1.0f}), std::invalid_argument);
  EXPECT_THROW(QuantizedAdamW({&w}, {.lr = 0.1f, .block_size = 0}), std::invalid_argument);
  EXPECT_THROW(QuantizedAdamW({&w}, {.lr = 0.1f, .block_size = 4096}), std::invalid_argument);
}

TEST(QuantizedAdamW, TunerIntegrationTrainsWithLessOptMemory) {
  data::MarkovChain::Config dc;
  dc.vocab = 24;
  dc.order = 1;
  dc.branch = 3;
  dc.seed = 5;
  const data::MarkovChain domain(dc);

  auto run = [&](bool quantized) {
    Rng rng(3);
    CausalLm model(edgellm::testing::tiny_config(), rng);
    core::TunerConfig tcfg;
    tcfg.sampling = core::DepthSampling::kCyclic;
    tcfg.backprop_window = 2;
    tcfg.optim.lr = 1e-2f;
    tcfg.quantized_optimizer = quantized;
    core::AdaptiveLayerTuner tuner(model, tcfg, Rng(7));
    Rng drng(11);
    core::StepStats last{};
    float last_loss_sum = 0.0f;
    for (int i = 0; i < 100; ++i) {
      last = tuner.step(data::sample_lm_batch(domain, 4, 12, drng));
      if (i >= 90) last_loss_sum += last.loss;
    }
    return std::make_pair(last_loss_sum, last.optimizer_state_bytes);
  };

  const auto [fp_loss, fp_bytes] = run(false);
  const auto [q_loss, q_bytes] = run(true);
  EXPECT_LT(q_bytes, fp_bytes / 3);
  EXPECT_LT(q_loss, fp_loss * 1.10f);  // within 10% of fp AdamW's final loss
}

}  // namespace
}  // namespace edgellm::nn

// Micro-benchmarks (google-benchmark) for the kernels the library leans on:
// GEMM variants, fake-quant, prune masking, attention forward/backward, and
// schedule-cost evaluation / search throughput.
//
// Before the google-benchmark suites run, main() performs the observability
// overhead sweep: instrumented ops::matmul vs a raw triple-loop replica,
// with the tracer off / structural-only / kernel-sampled / every-call, and
// writes the result to BENCH_obs.json (the evidence for the "<2% with
// tracing disabled" claim in docs/OBSERVABILITY.md). Skip it with
// --no-obs-sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>

#include "hw/anneal.hpp"
#include "hw/search.hpp"
#include "obs/trace.hpp"
#include "quant/packed.hpp"
#include "nn/attention.hpp"
#include "nn/decoder.hpp"
#include "prune/prune.hpp"
#include "quant/quant.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "tensor/simd.hpp"

namespace {

using namespace edgellm;

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = randn({n, n}, rng);
  const Tensor b = randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatmulNt(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = randn({n, n}, rng);
  const Tensor b = randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul_nt(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulNt)->Arg(64)->Arg(128);

// Thread sweep over the deterministic compute backend: Args are {n,
// threads}. Outputs are bitwise identical at every thread count (asserted
// by ctest -L parallel); this measures the wall-clock side of the bargain.
// On a single-core host every row collapses to serial speed — run on a
// multicore machine to see the scaling.
void BM_MatmulThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  parallel::set_num_threads(state.range(1));
  Rng rng(1);
  const Tensor a = randn({n, n}, rng);
  const Tensor b = randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  parallel::set_num_threads(1);
}
BENCHMARK(BM_MatmulThreads)
    ->Args({128, 1})->Args({128, 2})->Args({128, 4})
    ->Args({256, 1})->Args({256, 2})->Args({256, 4});

void BM_BmmThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  parallel::set_num_threads(state.range(1));
  Rng rng(1);
  const Tensor a = randn({8, n, n}, rng);
  const Tensor b = randn({8, n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::bmm(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n * n * n);
  parallel::set_num_threads(1);
}
BENCHMARK(BM_BmmThreads)->Args({64, 1})->Args({64, 2})->Args({64, 4});

void BM_AttentionForwardThreads(benchmark::State& state) {
  parallel::set_num_threads(state.range(1));
  Rng rng(5);
  nn::MultiHeadAttention attn("a", 64, 4, rng);
  attn.set_grad_enabled(false);
  const Tensor x = randn({4, state.range(0), 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.forward(x));
  }
  parallel::set_num_threads(1);
}
BENCHMARK(BM_AttentionForwardThreads)->Args({64, 1})->Args({64, 2})->Args({64, 4});

void BM_Softmax(benchmark::State& state) {
  Rng rng(2);
  const Tensor x = randn({state.range(0), 128}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::softmax_lastdim(x));
  }
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(512);

void BM_FakeQuant(benchmark::State& state) {
  Rng rng(3);
  const Tensor w = randn({state.range(0), state.range(0)}, rng);
  quant::QuantSpec spec;
  spec.bits = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::fake_quant(w, spec));
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_FakeQuant)->Args({64, 4})->Args({64, 8})->Args({256, 4});

void BM_MagnitudeMask(benchmark::State& state) {
  Rng rng(4);
  const Tensor w = randn({state.range(0), state.range(0)}, rng);
  prune::PruneSpec spec;
  spec.sparsity = 0.5f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prune::magnitude_mask(w, spec));
  }
}
BENCHMARK(BM_MagnitudeMask)->Arg(64)->Arg(256);

void BM_AttentionForward(benchmark::State& state) {
  Rng rng(5);
  nn::MultiHeadAttention attn("a", 64, 4, rng);
  attn.set_grad_enabled(false);
  const Tensor x = randn({4, state.range(0), 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.forward(x));
  }
}
BENCHMARK(BM_AttentionForward)->Arg(16)->Arg(64);

void BM_AttentionTrainStep(benchmark::State& state) {
  Rng rng(6);
  nn::MultiHeadAttention attn("a", 64, 4, rng);
  const Tensor x = randn({4, state.range(0), 64}, rng);
  const Tensor g = randn({4, state.range(0), 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.forward(x));
    benchmark::DoNotOptimize(attn.backward(g));
    attn.zero_grad();
  }
}
BENCHMARK(BM_AttentionTrainStep)->Arg(16)->Arg(64);

void BM_PackedMatmul(benchmark::State& state) {
  Rng rng(12);
  const int64_t n = state.range(0);
  const Tensor x = randn({8, n}, rng);
  const Tensor w = randn({n, n}, rng);
  const quant::PackedMatrix p = quant::PackedMatrix::pack(w, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::packed_matmul_nt(x, p));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n * n);
}
BENCHMARK(BM_PackedMatmul)->Args({128, 8})->Args({128, 4});

void BM_ScheduleEval(benchmark::State& state) {
  const hw::DeviceModel dev = hw::default_edge_device();
  hw::GemmWorkload g;
  g.name = "g";
  g.m = 512;
  g.n = 512;
  g.k = 512;
  g.weight_bits = 4;
  hw::Schedule s;
  s.tile_m = s.tile_n = s.tile_k = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw::evaluate_schedule(dev, g, s, dev.sram_bytes));
  }
}
BENCHMARK(BM_ScheduleEval);

void BM_ScheduleAnneal(benchmark::State& state) {
  const hw::DeviceModel dev = hw::default_edge_device();
  hw::GemmWorkload g;
  g.name = "g";
  g.m = 512;
  g.n = 512;
  g.k = 512;
  g.weight_bits = 4;
  hw::AnnealConfig cfg;
  cfg.iterations = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw::anneal_gemm(dev, g, dev.sram_bytes, cfg));
  }
}
BENCHMARK(BM_ScheduleAnneal)->Arg(500)->Arg(2000);

void BM_ScheduleSearch(benchmark::State& state) {
  const hw::DeviceModel dev = hw::default_edge_device();
  hw::GemmWorkload g;
  g.name = "g";
  g.m = 512;
  g.n = 512;
  g.k = 512;
  g.weight_bits = 4;
  const hw::SearchConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw::search_gemm(dev, g, dev.sram_bytes, cfg));
  }
}
BENCHMARK(BM_ScheduleSearch);

// --- observability overhead sweep (BENCH_obs.json) --------------------------

/// Uninstrumented reference GEMM: the same allocation + serial triple loop
/// ops::matmul runs (single-threaded), minus argument checks, dispatch and
/// the KernelSpan probe — the denominator for the instrumentation-overhead
/// ratio.
Tensor raw_gemm(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = pa[i * k + p];
      const float* brow = pb + p * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

/// Min-of-reps wall time in ms — min is far more robust to scheduler noise
/// than mean on a shared/single-core box.
template <typename Fn>
double min_time_ms(int reps, int inner, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < inner; ++i) fn();
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count() /
        inner;
    best = std::min(best, ms);
  }
  return best;
}

void run_obs_sweep(const std::string& path) {
  obs::Tracer& tracer = obs::Tracer::global();
  Rng rng(7);
  const int64_t n = 96;
  const Tensor a = randn({n, n}, rng);
  const Tensor b = randn({n, n}, rng);
  constexpr int kReps = 9, kInner = 20;

  tracer.disable();
  tracer.clear();
  const double t_raw = min_time_ms(kReps, kInner, [&] {
    benchmark::DoNotOptimize(raw_gemm(a, b));
  });
  const double t_off = min_time_ms(kReps, kInner, [&] {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  });

  tracer.enable(/*kernel_sample=*/0);  // structural spans only: probe cost, no recording
  const double t_structural = min_time_ms(kReps, kInner, [&] {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  });
  tracer.enable(/*kernel_sample=*/16);
  const double t_sampled = min_time_ms(kReps, kInner, [&] {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  });
  tracer.enable(/*kernel_sample=*/1);
  const double t_every = min_time_ms(kReps, kInner, [&] {
    benchmark::DoNotOptimize(ops::matmul(a, b));
  });
  const int64_t recorded = static_cast<int64_t>(tracer.events().size());
  tracer.disable();
  tracer.clear();

  const auto pct = [](double t, double base) { return (t / base - 1.0) * 100.0; };
  std::ofstream js(path);
  js << "{\n"
     << "  \"bench\": \"obs_overhead\",\n"
     << "  \"matmul_n\": " << n << ",\n"
     << "  \"reps\": " << kReps << ", \"inner\": " << kInner << ",\n"
     << "  \"raw_loop_ms\": " << t_raw << ",\n"
     << "  \"instrumented_tracing_off_ms\": " << t_off << ",\n"
     << "  \"tracing_on_structural_ms\": " << t_structural << ",\n"
     << "  \"tracing_on_sample16_ms\": " << t_sampled << ",\n"
     << "  \"tracing_on_sample1_ms\": " << t_every << ",\n"
     << "  \"overhead_off_vs_raw_pct\": " << pct(t_off, t_raw) << ",\n"
     << "  \"overhead_structural_vs_off_pct\": " << pct(t_structural, t_off) << ",\n"
     << "  \"overhead_sample16_vs_off_pct\": " << pct(t_sampled, t_off) << ",\n"
     << "  \"overhead_sample1_vs_off_pct\": " << pct(t_every, t_off) << ",\n"
     << "  \"events_recorded_at_sample1\": " << recorded << "\n"
     << "}\n";
  std::cout << "obs sweep: raw " << t_raw << " ms, tracing-off " << t_off << " ms ("
            << pct(t_off, t_raw) << "% vs raw), sample=1 " << t_every << " ms; wrote " << path
            << "\n";
}

// --- blocked GEMM sweep (BENCH_gemm.json) ------------------------------------

/// Naive vs blocked dense kernels on square and decode-skinny shapes and on
/// the adaptation step's TN and per-head batched shapes, the pre-packed NT
/// kernel on the decode shapes (vs naive and per-call blocked), plus the packed
/// integer kernel vs the dequantize-to-fp32-then-matmul path it replaces,
/// plus a thread sweep of the blocked kernel on the largest dense shape, plus
/// the SIMD backend vs forced-scalar dispatch (GEMM, dequant-dot, elementwise,
/// decode attention). Every pairing is bitwise identical by construction
/// (tensor/gemm.hpp, asserted by ctest -L gemm and -L simd) — this measures
/// only the speed side. Returns false (after writing the JSON) when the
/// blocked kernel loses to the naive one on the largest dense NT shape or on
/// any adaptation TN shape, the pre-packed kernel loses to naive on a decode
/// shape, or a vector kernel loses to its scalar twin — the CI perf-smoke
/// gate.
bool run_gemm_sweep(const std::string& path) {
  Rng rng(9);
  std::ofstream js(path);
  js << "{\n  \"bench\": \"gemm_sweep\",\n  \"results\": [\n";
  bool first = true;
  double largest_dense_speedup = 0.0;

  const auto emit = [&](const std::string& kind, int bits, int64_t m, int64_t k, int64_t n,
                        int64_t threads, double base_ms, double ours_ms,
                        const char* baseline_name, int64_t batch = 1) {
    if (!first) js << ",\n";
    first = false;
    js << "    {\"kind\": \"" << kind << "\", \"bits\": " << bits << ", \"batch\": " << batch
       << ", \"m\": " << m << ", \"k\": " << k << ", \"n\": " << n
       << ", \"threads\": " << threads << ", \""
       << baseline_name << "_ms\": " << base_ms << ", \"blocked_ms\": " << ours_ms
       << ", \"speedup\": " << base_ms / ours_ms << "}";
  };
  const auto reps_for = [](int64_t macs) {
    return macs > int64_t{8} * 1000 * 1000 ? 3 : 5;
  };

  // Dense shapes: squares up to one L2-ish working set, plus the serving
  // decode shape (few activation rows against a wide weight).
  struct Mkn {
    int64_t m, k, n;
  };
  const std::vector<Mkn> dense = {{64, 64, 64},   {128, 128, 128}, {256, 256, 256},
                                  {8, 256, 256},  {8, 512, 512},   {8, 768, 768}};
  for (const Mkn& s : dense) {
    const Tensor a = randn({s.m, s.k}, rng);
    const Tensor bn = randn({s.k, s.n}, rng);
    const Tensor bt = randn({s.n, s.k}, rng);
    const int reps = reps_for(s.m * s.k * s.n);
    const auto blk = ops::gemm::blocking_for(ops::gemm::GemmKind::kNT, s.m, s.k, s.n);
    const double nn_naive = min_time_ms(reps, 1, [&] {
      benchmark::DoNotOptimize(ops::gemm::matmul_naive(a, bn));
    });
    const double nn_blocked = min_time_ms(reps, 1, [&] {
      benchmark::DoNotOptimize(ops::gemm::matmul_blocked(a, bn, blk));
    });
    emit("nn", 32, s.m, s.k, s.n, 1, nn_naive, nn_blocked, "naive");
    const double nt_naive = min_time_ms(reps, 1, [&] {
      benchmark::DoNotOptimize(ops::gemm::matmul_nt_naive(a, bt));
    });
    const double nt_blocked = min_time_ms(reps, 1, [&] {
      benchmark::DoNotOptimize(ops::gemm::matmul_nt_blocked(a, bt, blk));
    });
    emit("nt", 32, s.m, s.k, s.n, 1, nt_naive, nt_blocked, "naive");
    if (s.m == 256) largest_dense_speedup = nt_naive / nt_blocked;
  }

  // Decode shapes against weights packed once (the decode weight cache's
  // kernel, gemm::matmul_nt_prepacked): m = batch rows against q/k/v/o
  // (64x64), fc1 (64 -> 256), fc2 (256 -> 64) and the exit head (64 -> 32),
  // each vs the naive loop and vs the blocked kernel packing B per call.
  double prepacked_speedup_min = 1e300;
  for (int64_t m : {1, 2, 4, 8}) {
    for (const Mkn& s : {Mkn{m, 64, 64}, Mkn{m, 64, 256}, Mkn{m, 256, 64}, Mkn{m, 64, 32}}) {
      const Tensor a = randn({s.m, s.k}, rng);
      const Tensor bt = randn({s.n, s.k}, rng);
      const ops::gemm::NtPanels panels(bt);
      const auto blk = ops::gemm::blocking_for(ops::gemm::GemmKind::kNT, s.m, s.k, s.n);
      const double naive = min_time_ms(7, 200, [&] {
        benchmark::DoNotOptimize(ops::gemm::matmul_nt_naive(a, bt));
      });
      const double blocked = min_time_ms(7, 200, [&] {
        benchmark::DoNotOptimize(ops::gemm::matmul_nt_blocked(a, bt, blk));
      });
      const double prepacked = min_time_ms(7, 200, [&] {
        benchmark::DoNotOptimize(ops::gemm::matmul_nt_prepacked(a, panels));
      });
      js << (first ? "" : ",\n") << "    {\"kind\": \"nt_prepacked\", \"bits\": 32, \"batch\": 1"
         << ", \"m\": " << s.m << ", \"k\": " << s.k << ", \"n\": " << s.n
         << ", \"threads\": 1, \"naive_ms\": " << naive << ", \"blocked_ms\": " << blocked
         << ", \"prepacked_ms\": " << prepacked << ", \"speedup\": " << naive / prepacked
         << ", \"speedup_vs_blocked\": " << blocked / prepacked << "}";
      first = false;
      prepacked_speedup_min = std::min(prepacked_speedup_min, naive / prepacked);
    }
  }

  // The adaptation step's training shapes (batch 8 x seq 32 = 256 rows,
  // d_model 64, d_ff 256, 4 heads of 16): the weight gradients dW = g^T x
  // as TN GEMMs, and attention as 32 per-head GEMMs of 32x32x16 — the
  // batched NN (probs @ v), NT (q @ k^T) and TN (probs^T @ grad_ctx).
  double adapt_tn_speedup_min = 1e300;
  for (const Mkn& s : {Mkn{64, 256, 64}, Mkn{256, 256, 64}, Mkn{64, 256, 256}}) {
    const Tensor at = randn({s.k, s.m}, rng);
    const Tensor b = randn({s.k, s.n}, rng);
    const auto blk = ops::gemm::blocking_for(ops::gemm::GemmKind::kTN, s.m, s.k, s.n);
    const double naive = min_time_ms(5, 1, [&] {
      benchmark::DoNotOptimize(ops::gemm::matmul_tn_naive(at, b));
    });
    const double blocked = min_time_ms(5, 1, [&] {
      benchmark::DoNotOptimize(ops::gemm::matmul_tn_blocked(at, b, blk));
    });
    emit("tn", 32, s.m, s.k, s.n, 1, naive, blocked, "naive");
    adapt_tn_speedup_min = std::min(adapt_tn_speedup_min, naive / blocked);
  }
  {
    const int64_t heads = 32, t = 32, dh = 16;
    const Tensor probs = randn({heads, t, t}, rng);
    const Tensor v = randn({heads, t, dh}, rng);
    const Tensor q = randn({heads, t, dh}, rng);
    const auto time_pair = [&](const char* kind, int64_t m, int64_t k, int64_t n, auto&& naive,
                               auto&& blocked) {
      const double naive_ms = min_time_ms(5, 1, naive);
      const double blocked_ms = min_time_ms(5, 1, blocked);
      emit(kind, 32, m, k, n, 1, naive_ms, blocked_ms, "naive", heads);
    };
    const auto nn = ops::gemm::blocking_for(ops::gemm::GemmKind::kNN, t, t, dh);
    const auto nt = ops::gemm::blocking_for(ops::gemm::GemmKind::kNT, t, dh, t);
    const auto tn = ops::gemm::blocking_for(ops::gemm::GemmKind::kTN, t, t, dh);
    time_pair(
        "bmm", t, t, dh, [&] { benchmark::DoNotOptimize(ops::gemm::bmm_naive(probs, v)); },
        [&] { benchmark::DoNotOptimize(ops::gemm::bmm_blocked(probs, v, nn)); });
    time_pair(
        "bmm_nt", t, dh, t, [&] { benchmark::DoNotOptimize(ops::gemm::bmm_nt_naive(q, v)); },
        [&] { benchmark::DoNotOptimize(ops::gemm::bmm_nt_blocked(q, v, nt)); });
    time_pair(
        "bmm_tn", t, t, dh, [&] { benchmark::DoNotOptimize(ops::gemm::bmm_tn_naive(probs, v)); },
        [&] { benchmark::DoNotOptimize(ops::gemm::bmm_tn_blocked(probs, v, tn)); });
  }

  // Packed integer weights at the decode shapes: the blocked integer kernel
  // vs dequantizing the whole weight to fp32 and running the dense matmul —
  // the path DecodeWeightCache takes without --packed-weights.
  for (const Mkn& s : {Mkn{8, 256, 256}, Mkn{8, 512, 512}, Mkn{8, 768, 768},
                       Mkn{8, 1024, 1024}}) {
    const Tensor x = randn({s.m, s.k}, rng);
    const Tensor w = randn({s.n, s.k}, rng);
    const int reps = 5;
    for (int bits : {8, 4}) {
      const quant::PackedMatrix p = quant::PackedMatrix::pack(w, bits);
      const double dequant = min_time_ms(reps, 1, [&] {
        benchmark::DoNotOptimize(ops::matmul_nt(x, p.dequantize()));
      });
      const double packed = min_time_ms(reps, 1, [&] {
        benchmark::DoNotOptimize(quant::packed_matmul_nt(x, p));
      });
      emit("packed_nt", bits, s.m, s.k, s.n, 1, dequant, packed, "dequant_path");
    }
  }

  // Thread sweep on the largest dense shape: same bits at every count; on a
  // single-core host the rows collapse to serial speed.
  {
    const int64_t n = 256;
    const Tensor a = randn({n, n}, rng);
    const Tensor bt = randn({n, n}, rng);
    for (int64_t threads : {1, 2, 8}) {
      parallel::set_num_threads(threads);
      const double naive = min_time_ms(3, 1, [&] {
        benchmark::DoNotOptimize(ops::gemm::matmul_nt_naive(a, bt));
      });
      const double blocked = min_time_ms(3, 1, [&] {
        benchmark::DoNotOptimize(ops::matmul_nt(a, bt));
      });
      emit("nt_threads", 32, n, n, n, threads, naive, blocked, "naive");
    }
    parallel::set_num_threads(1);
  }

  // SIMD dispatch sweep: the same blocked kernel under forced-scalar vs the
  // detected backend (plus its fast_math variant), on the 256^3 NT dense
  // shape, the fused packed int4/int8 dequant-dot, and the three hot
  // elementwise kernels. Scalar-vs-vector rows are bitwise identical in
  // output (ctest -L simd), so the delta is pure vectorization. On a host
  // whose best backend IS scalar the rows collapse to 1.0x and the SIMD
  // gates below auto-pass.
  double simd_gemm_speedup = 1.0;
  double simd_dequant_speedup_min = 1e300;
  double attn_speedup_min = 1e300;
  const bool have_vector = simd::detected_isa() != simd::Isa::kScalar;
  {
    const char* native = simd::to_string(simd::detected_isa());
    const auto timed_under = [&](const char* isa, auto&& fn) {
      if (!simd::set_dispatch(isa)) std::abort();  // detected ISA is always settable
      const double t = min_time_ms(5, 1, fn);
      simd::set_dispatch("auto");
      return t;
    };

    const int64_t n = 256;
    const Tensor a = randn({n, n}, rng);
    const Tensor bt = randn({n, n}, rng);
    const auto blk = ops::gemm::blocking_for(ops::gemm::GemmKind::kNT, n, n, n);
    const auto nt_once = [&] {
      benchmark::DoNotOptimize(ops::gemm::matmul_nt_blocked(a, bt, blk, false));
    };
    const double nt_scalar = timed_under("scalar", nt_once);
    const double nt_vector = timed_under(native, nt_once);
    simd_gemm_speedup = nt_scalar / nt_vector;
    emit("nt_simd", 32, n, n, n, 1, nt_scalar, nt_vector, "scalar_simd");
    const double nt_fast = timed_under(native, [&] {
      benchmark::DoNotOptimize(ops::gemm::matmul_nt_blocked(a, bt, blk, true));
    });
    emit("nt_simd_fastmath", 32, n, n, n, 1, nt_scalar, nt_fast, "scalar_simd");

    const Tensor x = randn({8, 768}, rng);
    const Tensor w = randn({768, 768}, rng);
    const auto qblk = ops::gemm::blocking_for(ops::gemm::GemmKind::kPackedNT, 8, 768, 768);
    for (int bits : {8, 4}) {
      const quant::PackedMatrix p = quant::PackedMatrix::pack(w, bits);
      const auto q_once = [&] {
        benchmark::DoNotOptimize(quant::packed_matmul_nt_blocked(x, p, qblk, false));
      };
      const double q_scalar = timed_under("scalar", q_once);
      const double q_vector = timed_under(native, q_once);
      simd_dequant_speedup_min = std::min(simd_dequant_speedup_min, q_scalar / q_vector);
      emit("packed_nt_simd", bits, 8, 768, 768, 1, q_scalar, q_vector, "scalar_simd");
    }

    // Elementwise: softmax (exp-heavy), swiglu (sigmoid-heavy), rmsnorm
    // (reduction + apply). Shapes sized like decode activations.
    const Tensor sm_x = randn({64, 512}, rng);
    const double sm_scalar = timed_under("scalar", [&] {
      benchmark::DoNotOptimize(ops::softmax_lastdim(sm_x));
    });
    const double sm_vector = timed_under(native, [&] {
      benchmark::DoNotOptimize(ops::softmax_lastdim(sm_x));
    });
    emit("softmax_simd", 32, 64, 0, 512, 1, sm_scalar, sm_vector, "scalar_simd");

    const Tensor gate = randn({64, 1024}, rng);
    const Tensor up = randn({64, 1024}, rng);
    const double sw_scalar = timed_under("scalar", [&] {
      benchmark::DoNotOptimize(ops::swiglu(gate, up));
    });
    const double sw_vector = timed_under(native, [&] {
      benchmark::DoNotOptimize(ops::swiglu(gate, up));
    });
    emit("swiglu_simd", 32, 64, 0, 1024, 1, sw_scalar, sw_vector, "scalar_simd");

    const Tensor nx = randn({64, 1024}, rng);
    const Tensor gain = randn({1024}, rng);
    const double rn_scalar = timed_under("scalar", [&] {
      benchmark::DoNotOptimize(ops::rms_norm_lastdim(nx, gain, 1e-5f));
    });
    const double rn_vector = timed_under(native, [&] {
      benchmark::DoNotOptimize(ops::rms_norm_lastdim(nx, gain, 1e-5f));
    });
    emit("rmsnorm_simd", 32, 64, 0, 1024, 1, rn_scalar, rn_vector, "scalar_simd");

    // GELU and its gradient over the adaptation MLP's 256 x 256 = 64k
    // activations (the scalar rows are the sigmoid-form reference).
    const Tensor gx = randn({256, 256}, rng);
    const Tensor gg = randn({256, 256}, rng);
    const double ge_scalar = timed_under("scalar", [&] {
      benchmark::DoNotOptimize(ops::gelu(gx));
    });
    const double ge_vector = timed_under(native, [&] {
      benchmark::DoNotOptimize(ops::gelu(gx));
    });
    emit("gelu_simd", 32, 256, 0, 256, 1, ge_scalar, ge_vector, "scalar_simd");
    const double gg_scalar = timed_under("scalar", [&] {
      benchmark::DoNotOptimize(ops::gelu_grad(gx, gg));
    });
    const double gg_vector = timed_under(native, [&] {
      benchmark::DoNotOptimize(ops::gelu_grad(gx, gg));
    });
    emit("gelu_grad_simd", 32, 256, 0, 256, 1, gg_scalar, gg_vector, "scalar_simd");

    // Decode attention (nn::attend_sequence): one new row at position t-1
    // of a 4-head x dh-16 sequence (the serving model's layout) over t
    // cached rows, fp32 and int8 KV. Rows: m = 1 query row, k = dh,
    // n = t, batch = heads.
    nn::ModelConfig acfg;
    acfg.d_model = 64;
    acfg.n_heads = 4;
    acfg.max_seq = 64;
    const Tensor q = randn({1, acfg.d_model}, rng);
    Tensor ctx({1, acfg.d_model});
    for (const int bits : {32, 8}) {
      for (const int64_t t : {int64_t{8}, int64_t{33}, int64_t{64}}) {
        nn::KvCache cache(1, acfg.kv_dim(), bits == 8);
        for (int64_t p = 0; p < t; ++p) {
          const Tensor kv = randn({2, acfg.kv_dim()}, rng);
          cache.append(0, kv.raw(), kv.raw() + acfg.kv_dim());
        }
        const auto attend = [&] {
          nn::attend_sequence(acfg, cache, 0, t - 1, 1, q.raw(), ctx.raw());
          benchmark::DoNotOptimize(ctx.raw());
        };
        const auto attend_under = [&](const char* isa) {
          if (!simd::set_dispatch(isa)) std::abort();
          const double ms = min_time_ms(21, 500, attend);
          simd::set_dispatch("auto");
          return ms;
        };
        const double a_scalar = attend_under("scalar");
        const double a_vector = attend_under(native);
        attn_speedup_min = std::min(attn_speedup_min, a_scalar / a_vector);
        emit("attn_decode_simd", bits, 1, acfg.d_model / acfg.n_heads, t, 1, a_scalar, a_vector,
             "scalar_simd", acfg.n_heads);
      }
    }
  }
  if (!have_vector) {
    simd_dequant_speedup_min = 1.0;
    attn_speedup_min = 1.0;
  }

  js << "\n  ],\n  \"largest_dense_nt_speedup\": " << largest_dense_speedup
     << ",\n  \"adapt_tn_min_speedup\": " << adapt_tn_speedup_min
     << ",\n  \"nt_prepacked_min_speedup\": " << prepacked_speedup_min
     << ",\n  \"simd_isa\": \"" << simd::to_string(simd::detected_isa())
     << "\",\n  \"simd_nt256_speedup\": " << simd_gemm_speedup
     << ",\n  \"simd_dequant_dot_min_speedup\": " << simd_dequant_speedup_min
     << ",\n  \"attn_min_speedup\": " << attn_speedup_min << "\n}\n";
  std::cout << "gemm sweep: blocked NT speedup at 256^3 = " << largest_dense_speedup
            << "x vs naive; blocked TN min over the adapt shapes = " << adapt_tn_speedup_min
            << "x; prepacked NT min over the decode shapes = " << prepacked_speedup_min
            << "x; simd (" << simd::to_string(simd::detected_isa())
            << ") vs scalar at 256^3 NT = " << simd_gemm_speedup
            << "x, fused dequant-dot min = " << simd_dequant_speedup_min
            << "x, decode attention min = " << attn_speedup_min << "x; wrote " << path << "\n";
  // Gate: blocked must beat naive (largest dense NT, every adapt TN shape),
  // prepacked must not lose to naive on any decode shape, and on hosts with
  // a vector backend the vectorized kernels (GEMM, dequant-dot, decode
  // attention) must beat forced-scalar. The bars are deliberately below the
  // typical 2-4x so scheduler noise on shared CI runners can't flake the
  // job; the committed BENCH_gemm.json records the real margins.
  bool ok = largest_dense_speedup >= 1.0 && adapt_tn_speedup_min >= 1.0 &&
            prepacked_speedup_min >= 1.0;
  if (have_vector) {
    ok = ok && simd_gemm_speedup >= 1.3 && simd_dequant_speedup_min >= 1.0 &&
         attn_speedup_min >= 1.0;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool obs_sweep = true;
  bool gemm_sweep = true;
  bool check_gemm = false;
  const auto strip = [&](int i) {
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    --argc;
  };
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--no-obs-sweep") == 0) {
      obs_sweep = false;
      strip(i);
    } else if (std::strcmp(argv[i], "--no-gemm-sweep") == 0) {
      gemm_sweep = false;
      strip(i);
    } else if (std::strcmp(argv[i], "--check-gemm") == 0) {
      check_gemm = true;
      strip(i);
    } else {
      ++i;
    }
  }
  if (obs_sweep) run_obs_sweep("BENCH_obs.json");
  if (gemm_sweep || check_gemm) {
    const bool ok = run_gemm_sweep("BENCH_gemm.json");
    if (check_gemm && !ok) {
      std::cerr << "gemm sweep: blocked kernel lost to naive on the largest dense shape or "
                   "an adapt TN shape, the prepacked kernel lost to naive on a decode shape, "
                   "or the vectorized kernels (GEMM, dequant-dot, decode attention) lost to "
                   "forced-scalar dispatch\n";
      return 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

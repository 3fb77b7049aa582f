// Cross-request prefix reuse through the paged KV pool: how many sequences
// fit under one KV byte budget, and what the shared-prefix cache buys.
//
// The workload is the canonical edge-serving shape: every request carries
// the same long system-prompt prefix plus a short unique tail. Without
// prefix reuse (kv_paged off) every sequence reserves its *full*
// projection up front, so the budget admits only budget / full_projection
// sequences at a time. With prefix reuse (kv_paged on) finished sequences
// publish their blocks, the shared prefix is stored once (pinned while
// referenced, LRU-evictable after) and each request reserves only its
// incremental blocks past the cached prefix, so the same byte budget runs
// several times more sequences concurrently — measured here as mean batch
// occupancy over the drain of an identical staged backlog.
//
// Correctness is asserted inside the bench: both engines must produce
// byte-identical greedy completions for every request and satisfy KV
// conservation after drain.
//
// A machine-readable summary is written to BENCH_serve_prefix.json
// (override with --json PATH, disable with --json ""). --check-prefix
// exits non-zero unless the prefix cache visibly engaged (hit rate > 0),
// outputs matched, conservation held, and prefix reuse sustained at least
// 2x the no-reuse effective concurrency.
//
// Run: ./build/bench/bench_serve_prefix [--requests N] [--tokens N]
//      [--json out.json] [--check-prefix]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/engine.hpp"

namespace {

using namespace edgellm;
using runtime::fmt;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr int64_t kPrefixLen = 24;  ///< shared system-prompt prefix
constexpr int64_t kTailLen = 1;     ///< unique per-request suffix

/// Shared prefix + one distinguishing tail token per request id.
std::vector<int64_t> make_prompt(int64_t salt, int64_t vocab) {
  std::vector<int64_t> p(static_cast<size_t>(kPrefixLen + kTailLen));
  for (int64_t i = 0; i < kPrefixLen; ++i) p[static_cast<size_t>(i)] = (i * 7 + 1) % vocab;
  for (int64_t i = 0; i < kTailLen; ++i) {
    p[static_cast<size_t>(kPrefixLen + i)] = (salt * 5 + i + 3) % vocab;
  }
  return p;
}

struct RunResult {
  double concurrency = 0.0;  ///< mean batch occupancy over the staged drain
  double wall_ms = 0.0;
  int64_t tokens = 0;
  int64_t prefix_hit = 0;
  int64_t prefix_miss = 0;
  int64_t prefix_hit_tokens = 0;
  int64_t high_water_bytes = 0;
  bool conserved = false;
  std::vector<std::vector<int64_t>> outputs;

  double tok_s() const { return static_cast<double>(tokens) / (wall_ms / 1e3); }
};

/// Stages `n_requests` identical-shape requests behind pause(), drains them,
/// and reports effective concurrency as the occupancy delta over the drain.
/// A single warm request runs first (outside the measured window) so the
/// reuse engine's prefix cache is populated the way a live system's would
/// be; the no-reuse engine gets the same warm-up for symmetry.
RunResult run_backlog(nn::CausalLm& model, const serve::EngineConfig& ecfg, int64_t n_requests,
                      int64_t n_new, int64_t vocab) {
  serve::ServeEngine engine(model, ecfg);
  RunResult r;

  {
    serve::Request warm;
    warm.id = 1;
    warm.prompt = make_prompt(/*salt=*/0, vocab);
    warm.max_new_tokens = n_new;
    warm.temperature = 0.0f;
    engine.submit(std::move(warm)).get();
  }
  const serve::EngineMetrics m0 = engine.metrics();

  engine.pause();
  std::vector<std::future<serve::Completion>> futs;
  for (int64_t i = 0; i < n_requests; ++i) {
    serve::Request req;
    req.id = i + 2;
    req.prompt = make_prompt(/*salt=*/i + 1, vocab);
    req.max_new_tokens = n_new;
    req.temperature = 0.0f;
    futs.push_back(engine.submit(std::move(req)));
  }
  const auto t0 = Clock::now();
  engine.resume();
  for (auto& f : futs) {
    const serve::Completion c = f.get();
    check_arg(c.status == serve::RequestStatus::kOk, "bench: request failed: " + c.error);
    r.tokens += static_cast<int64_t>(c.tokens.size());
    r.outputs.push_back(c.tokens);
  }
  r.wall_ms = ms_since(t0);
  engine.shutdown();

  const serve::EngineMetrics m1 = engine.metrics();
  const int64_t ticks = m1.ticks - m0.ticks;
  r.concurrency = ticks > 0 ? (m1.occupancy_sum - m0.occupancy_sum) / static_cast<double>(ticks)
                            : 0.0;
  r.prefix_hit = engine.registry().counter("kv/prefix_hit").value();
  r.prefix_miss = engine.registry().counter("kv/prefix_miss").value();
  r.prefix_hit_tokens = engine.registry().counter("kv/prefix_hit_tokens").value();
  r.high_water_bytes = static_cast<int64_t>(engine.registry().gauge("kv/high_water_bytes").value());
  r.conserved = engine.registry().counter("kv/acquired").value() ==
                    engine.registry().counter("kv/released").value() &&
                static_cast<int64_t>(engine.registry().gauge("kv/committed_bytes").value()) == 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool check_prefix = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-prefix") == 0) {
      check_prefix = true;
    } else if (i + 1 < argc) {
      args[argv[i]] = argv[i + 1];
      ++i;
    }
  }
  const int64_t n_requests = args.count("--requests") ? std::stoll(args["--requests"]) : 21;
  const int64_t n_new = args.count("--tokens") ? std::stoll(args["--tokens"]) : 4;

  const nn::ModelConfig cfg = bench::bench_model_config();
  Rng rng(7);
  nn::CausalLm model(cfg, rng);

  // Budget: exactly three full-projection sequences. Every request projects
  // kPrefixLen + kTailLen + n_new positions at full depth, rounded up to
  // whole blocks; without reuse every sequence reserves all of it, so that
  // engine's concurrency is 3 by construction. With reuse a request pays
  // that projection only for the blocks past the shared prefix.
  constexpr int64_t kBlockTokens = 8;
  const int64_t projected = std::min<int64_t>(kPrefixLen + kTailLen + n_new, cfg.max_seq);
  const int64_t full_seq_bytes = (projected + kBlockTokens - 1) / kBlockTokens * kBlockTokens *
                                 nn::KvCache::bytes_per_position(cfg.n_layers, cfg.kv_dim(), false);
  const int64_t budget = 3 * full_seq_bytes;

  serve::EngineConfig base;
  base.threads = 2;
  base.max_batch = 16;
  base.queue_capacity = n_requests + 2;
  base.kv_byte_budget = budget;
  base.kv_block_tokens = kBlockTokens;

  serve::EngineConfig no_reuse_cfg = base;
  serve::EngineConfig reuse_cfg = base;
  reuse_cfg.kv_paged = true;

  std::cout << "prefix workload: " << n_requests << " requests, " << kPrefixLen
            << "-token shared prefix + " << kTailLen << "-token tail, " << n_new
            << " new tokens each; budget = 3 full sequences (" << budget << " bytes)\n\n";

  const RunResult base_run = run_backlog(model, no_reuse_cfg, n_requests, n_new, cfg.vocab);
  const RunResult reuse = run_backlog(model, reuse_cfg, n_requests, n_new, cfg.vocab);

  const bool outputs_match = base_run.outputs == reuse.outputs;
  const double ratio =
      base_run.concurrency > 0.0 ? reuse.concurrency / base_run.concurrency : 0.0;
  const double hit_rate =
      reuse.prefix_hit + reuse.prefix_miss > 0
          ? static_cast<double>(reuse.prefix_hit) /
                static_cast<double>(reuse.prefix_hit + reuse.prefix_miss)
          : 0.0;

  runtime::TablePrinter table({17, 13, 9, 11, 9, 10, 12});
  table.row({"prefix reuse", "concurrency", "wall ms", "tok/s", "hits", "hit toks",
             "high water"});
  table.rule();
  auto row = [&](const char* name, const RunResult& r) {
    table.row({name, fmt(r.concurrency, 2), fmt(r.wall_ms, 1), fmt(r.tok_s(), 0),
               std::to_string(r.prefix_hit), std::to_string(r.prefix_hit_tokens),
               std::to_string(r.high_water_bytes)});
  };
  row("no prefix reuse", base_run);
  row("prefix reuse", reuse);

  std::cout << "\neffective concurrency: " << fmt(ratio, 2) << "x (prefix reuse "
            << fmt(reuse.concurrency, 2) << " vs no prefix reuse " << fmt(base_run.concurrency, 2)
            << " sequences under the same budget); prefix hit rate " << fmt(hit_rate * 100.0, 1)
            << "%; outputs " << (outputs_match ? "byte-identical" : "DIVERGED") << "\n";

  const std::string json_path =
      args.count("--json") ? args["--json"] : std::string("BENCH_serve_prefix.json");
  if (!json_path.empty()) {
    std::ofstream js(json_path);
    js << "{\n  \"requests\": " << n_requests << ",\n  \"prefix_tokens\": " << kPrefixLen
       << ",\n  \"tail_tokens\": " << kTailLen << ",\n  \"new_tokens\": " << n_new
       << ",\n  \"block_tokens\": " << kBlockTokens
       << ",\n  \"kv_byte_budget\": " << budget << ",\n  \"full_sequence_bytes\": "
       << full_seq_bytes << ",\n  \"no_reuse\": {\"concurrency\": "
       << fmt(base_run.concurrency, 3) << ", \"wall_ms\": " << fmt(base_run.wall_ms, 1)
       << ", \"tok_s\": " << fmt(base_run.tok_s(), 1)
       << ", \"high_water_bytes\": " << base_run.high_water_bytes << "}"
       << ",\n  \"reuse\": {\"concurrency\": " << fmt(reuse.concurrency, 3)
       << ", \"wall_ms\": " << fmt(reuse.wall_ms, 1) << ", \"tok_s\": " << fmt(reuse.tok_s(), 1)
       << ", \"high_water_bytes\": " << reuse.high_water_bytes
       << ", \"prefix_hit\": " << reuse.prefix_hit << ", \"prefix_miss\": " << reuse.prefix_miss
       << ", \"prefix_hit_tokens\": " << reuse.prefix_hit_tokens << "}"
       << ",\n  \"concurrency_ratio\": " << fmt(ratio, 3)
       << ",\n  \"prefix_hit_rate\": " << fmt(hit_rate, 3)
       << ",\n  \"outputs_byte_identical\": " << (outputs_match ? "true" : "false") << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (check_prefix) {
    bool ok = true;
    if (!(hit_rate > 0.0)) {
      std::cerr << "CHECK FAILED: prefix cache never hit\n";
      ok = false;
    }
    if (!outputs_match) {
      std::cerr << "CHECK FAILED: prefix-reuse outputs diverged from no-reuse outputs\n";
      ok = false;
    }
    if (!base_run.conserved || !reuse.conserved) {
      std::cerr << "CHECK FAILED: KV conservation violated after drain\n";
      ok = false;
    }
    if (!(ratio >= 2.0)) {
      std::cerr << "CHECK FAILED: effective concurrency ratio " << fmt(ratio, 2)
                << "x (want >= 2x)\n";
      ok = false;
    }
    if (base_run.high_water_bytes > budget || reuse.high_water_bytes > budget) {
      std::cerr << "CHECK FAILED: KV high water exceeded the byte budget\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "prefix checks passed\n";
  }
  return 0;
}

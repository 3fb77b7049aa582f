// Workload `adapt`: what a device owner pays to adapt the model with
// Edge-LLM, one closed-loop caller.
//
//   set-up (repeated, median = setup_s): nn::load_model_with_config ->
//     core::analyze_sensitivity -> core::search_luc_policy (exact DP) -> core::apply_policy
//   measured: AdaptiveLayerTuner::step with the default TunerConfig on
//     batch x seq target-domain batches, for the run's seconds; after each
//     window of steps, a few single-stream greedy decodes of the model as
//     adapted so far through nn::IncrementalDecoder — the latency that
//     model then gets on-device (ttft/itl/slo metrics of this workload)
//
// The workload is single-threaded, so it moves round robin over the CPUs,
// one step or probe per CPU (see CpuRotation).
//
// Output checks: every step loss is finite, held-out target-domain loss
// after adaptation is below the loss before it, the LUC policy is identical
// across set-up repeats and meets the bit budget.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "core/luc.hpp"
#include "core/sensitivity.hpp"
#include "core/tuner.hpp"
#include "data/eval.hpp"
#include "nn/decoder.hpp"
#include "nn/serialize.hpp"

namespace perfbench {

using namespace edgellm;

namespace {

const char* to_string(core::DepthSampling s) {
  switch (s) {
    case core::DepthSampling::kUniform: return "uniform";
    case core::DepthSampling::kCyclic: return "cyclic";
    case core::DepthSampling::kLossWeighted: return "loss_weighted";
    case core::DepthSampling::kFinalOnly: return "final_only";
  }
  return "?";
}

std::string tuner_config_json(const core::TunerConfig& t) {
  std::ostringstream os;
  os << "{\"sampling\": \"" << to_string(t.sampling) << "\", \"backprop_window\": "
     << t.backprop_window << ", \"update_embeddings\": " << (t.update_embeddings ? "true" : "false")
     << ", \"checkpoint\": " << (t.checkpoint ? "true" : "false")
     << ", \"quantized_optimizer\": " << (t.quantized_optimizer ? "true" : "false")
     << ", \"lr\": " << json_num(t.optim.lr) << ", \"clip_norm\": " << json_num(t.clip_norm)
     << ", \"distill_weight\": " << json_num(t.distill_weight)
     << ", \"guard_numerics\": " << (t.guard_numerics ? "true" : "false") << "}";
  return os.str();
}

std::string policy_json(const core::LucPolicy& p) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < p.layers.size(); ++i) {
    os << (i ? ", " : "") << "{\"bits\": " << p.layers[i].bits
       << ", \"sparsity\": " << json_num(p.layers[i].sparsity) << "}";
  }
  os << "]";
  return os.str();
}

bool same_policy(const core::LucPolicy& a, const core::LucPolicy& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (size_t i = 0; i < a.layers.size(); ++i) {
    if (a.layers[i].bits != b.layers[i].bits || a.layers[i].sparsity != b.layers[i].sparsity) {
      return false;
    }
  }
  return true;
}

/// Raw samples of one stretch of tuner steps.
struct StepLog {
  std::vector<double> step_ms;
  std::map<int64_t, std::vector<double>> step_ms_by_exit;
  std::map<int64_t, std::vector<double>> forward_eval_ms_by_exit;
  std::vector<double> sample_ms;
  std::vector<float> losses;
  int64_t skipped = 0;
  int64_t activation_peak = 0, grad_peak = 0, optimizer_bytes = 0;
};

/// Runs tuner steps for `seconds` or `max_steps` steps, whichever ends
/// first, each on the next CPU of `cpus`; with `time_forward_eval` also
/// times a forward_eval of each step's batch at the step's exit (outside the
/// step's own clock).
void run_steps(core::AdaptiveLayerTuner& tuner, nn::CausalLm& model,
               const data::MarkovChain& domain, Rng& rng, int64_t batch, int64_t seq,
               double seconds, int64_t max_steps, bool time_forward_eval, CpuRotation& cpus,
               StepLog& log) {
  const auto t0 = Clock::now();
  for (int64_t n = 0; n < max_steps && ms_since(t0) < seconds * 1e3; ++n) {
    cpus.next();
    const auto ts = Clock::now();
    const data::LmBatch b = data::sample_lm_batch(domain, batch, seq, rng);
    log.sample_ms.push_back(ms_since(ts));
    const auto t1 = Clock::now();
    const core::StepStats st = tuner.step(b);
    const double ms = ms_since(t1);
    log.step_ms.push_back(ms);
    log.step_ms_by_exit[st.exit_layer].push_back(ms);
    log.losses.push_back(st.loss);
    if (st.skipped) ++log.skipped;
    log.activation_peak = std::max(log.activation_peak, st.activation_bytes);
    log.grad_peak = std::max(log.grad_peak, st.grad_bytes);
    log.optimizer_bytes = std::max(log.optimizer_bytes, st.optimizer_state_bytes);
    if (time_forward_eval) {
      const auto t2 = Clock::now();
      (void)model.forward_eval(b.inputs, b.batch, b.seq, st.exit_layer);
      log.forward_eval_ms_by_exit[st.exit_layer].push_back(ms_since(t2));
    }
  }
}

/// Single-stream greedy decode probes of the model as adapted so far.
struct ProbeLog {
  std::vector<double> ttft, itl;
  int64_t sent = 0, ok = 0, in_slo = 0;
};

/// Decodes `n` seeded prompts through nn::IncrementalDecoder, each on the
/// next CPU of `cpus`: TTFT is prime + first sample, ITL each further step
/// + sample. A probe is valid when every token is in the vocabulary.
void run_probes(nn::CausalLm& model, const data::MarkovChain& domain, const Params& p, int64_t n,
                Rng& rng, CpuRotation& cpus, ProbeLog& log) {
  nn::IncrementalDecoder dec(model);
  nn::GenerateConfig greedy;
  greedy.temperature = 0.0f;
  const int64_t n_new = p.integer("probe_new_tokens");
  const int64_t vocab = model.config().vocab;
  for (int64_t i = 0; i < n; ++i) {
    const std::vector<int64_t> prompt = domain.sample(p.integer("probe_prompt_len"), rng);
    cpus.next();
    const auto t0 = Clock::now();
    dec.prime(prompt);
    int64_t tok = nn::sample_token(dec.logits(), greedy, rng);
    const double first = ms_since(t0);
    log.ttft.push_back(first);
    bool valid = tok >= 0 && tok < vocab;
    double gaps = 0.0;
    for (int64_t j = 1; j < n_new; ++j) {
      const auto ts = Clock::now();
      dec.step(tok);
      tok = nn::sample_token(dec.logits(), greedy, rng);
      const double gap = ms_since(ts);
      log.itl.push_back(gap);
      gaps += gap;
      valid = valid && tok >= 0 && tok < vocab;
    }
    ++log.sent;
    if (valid) ++log.ok;
    if (valid && first <= p.num("ttft_limit_ms") &&
        gaps / static_cast<double>(n_new - 1) <= p.num("itl_limit_ms")) {
      ++log.in_slo;
    }
  }
}

}  // namespace

Outcome run_adapt(const RunArgs& a) {
  const Params& p = a.params;
  Outcome o;
  const int64_t batch = p.integer("batch");
  const int64_t seq = p.integer("seq");
  // The target domain: the base language with `shift` of its rows re-drawn.
  const data::MarkovChain domain = base_domain().shifted(static_cast<float>(p.num("shift")), 4242);

  // Inputs, all from the target domain. The calibration set is the device
  // owner's fixed one (calib_seed), so every run compresses to the same
  // LUC policy; held-out, training and probe data follow the run's seed.
  Rng calib_rng(static_cast<uint64_t>(p.integer("calib_seed")));
  std::vector<data::LmBatch> calib, held_out;
  for (int64_t i = 0; i < p.integer("calib_batches"); ++i) {
    calib.push_back(data::sample_lm_batch(domain, batch, seq, calib_rng));
  }
  Rng rng(a.seed);
  for (int64_t i = 0; i < p.integer("eval_batches"); ++i) {
    held_out.push_back(data::sample_lm_batch(domain, batch, seq, rng));
  }

  // --- set-up, repeated; setup_s is the median ------------------------------
  const core::SensitivityConfig scfg;
  core::LucConfig lcfg;
  lcfg.target_effective_bits = p.num("budget_bits");
  lcfg.search = core::LucConfig::Search::kExactDp;  // as `edgellm_cli adapt`
  std::vector<double> setup_s, load_ms, analyze_s, search_ms, apply_ms;
  std::unique_ptr<nn::CausalLm> model;
  core::LucPolicy policy;
  bool policies_agree = true;
  CpuRotation cpus;  // the workload is single-threaded: see CpuRotation
  for (int64_t r = 0; r < p.integer("setup_repeats"); ++r) {
    cpus.next();
    model.reset();
    const auto t0 = Clock::now();
    model = nn::load_model_with_config(a.model_path);
    const auto t1 = Clock::now();
    const core::SensitivityProfile profile = core::analyze_sensitivity(*model, calib, scfg);
    const auto t2 = Clock::now();
    core::LucPolicy pol = core::search_luc_policy(profile, scfg, lcfg);
    const auto t3 = Clock::now();
    core::apply_policy(*model, pol, scfg.prune_pattern, scfg.quant_granularity);
    const auto t4 = Clock::now();
    setup_s.push_back(ms_between(t0, t4) / 1e3);
    load_ms.push_back(ms_between(t0, t1));
    analyze_s.push_back(ms_between(t1, t2) / 1e3);
    search_ms.push_back(ms_between(t2, t3));
    apply_ms.push_back(ms_between(t3, t4));
    if (r > 0 && !same_policy(pol, policy)) policies_agree = false;
    policy = std::move(pol);
  }
  o.check(policies_agree, "adapt: LUC policy differs across set-up repeats");
  o.check(policy.avg_effective_bits() <= lcfg.target_effective_bits + 1e-6,
          "adapt: LUC policy exceeds the effective-bit budget");
  o.config["luc_policy"] = policy_json(policy);
  o.config["luc"] = "{\"target_effective_bits\": " + json_num(lcfg.target_effective_bits) +
                    ", \"search\": \"exact_dp\", \"avg_effective_bits\": " +
                    json_num(policy.avg_effective_bits()) + "}";

  const int64_t final_exit = model->config().n_layers;
  const float loss_before = data::lm_loss(*model, held_out, final_exit);

  // --- adaptation steps -------------------------------------------------------
  const core::TunerConfig tcfg;
  o.config["tuner"] = tuner_config_json(tcfg);
  core::AdaptiveLayerTuner tuner(*model, tcfg, Rng(a.seed * 0x9E3779B97F4A7C15ull + 1));
  for (int64_t i = 0; i < p.integer("warmup_steps"); ++i) {
    (void)tuner.step(data::sample_lm_batch(domain, batch, seq, rng));
  }
  StepLog measured, traced, control, split;
  ProbeLog probes;
  Rng probe_rng(a.seed + 0x51);
  const int64_t sample = p.integer("trace_kernel_sample");
  const int64_t all = std::numeric_limits<int64_t>::max();
  std::vector<ClosedSpan> spans;
  if (!a.trace) {
    // Steps and decode probes interleave: window_steps steps, then
    // probe_window probes of the model as adapted so far, until the run's
    // time is used, so both sample the same stretch of the host.
    const auto t0 = Clock::now();
    while (ms_since(t0) < a.seconds * 1e3) {
      run_steps(tuner, *model, domain, rng, batch, seq, a.seconds - ms_since(t0) / 1e3,
                p.integer("window_steps"), false, cpus, measured);
      run_probes(*model, domain, p, p.integer("probe_window"), probe_rng, cpus, probes);
    }
  } else {
    // Same process: untraced steps (benchmark clocks); then short traced
    // and untraced chunks alternating, so the trace overhead compares steps
    // taken side by side; then a stretch that also times forward_eval on
    // each step's batch.
    run_steps(tuner, *model, domain, rng, batch, seq, a.seconds / 2, all, false, cpus, measured);
    obs::Tracer& tr = obs::Tracer::global();
    tr.clear();
    const auto t0 = Clock::now();
    for (bool on = true; ms_since(t0) < 2e3 * p.num("trace_seconds"); on = !on) {
      if (on) tr.enable(sample);
      run_steps(tuner, *model, domain, rng, batch, seq, p.num("trace_chunk_seconds"), all, false,
                cpus, on ? traced : control);
      if (on) tr.disable();
    }
    run_steps(tuner, *model, domain, rng, batch, seq, p.num("forward_eval_seconds"), all, true,
              cpus, split);
    spans = close_spans(tr.events());
    o.config["span_self_time"] = span_self_table_json(spans);
    if (tr.dropped_events() > 0) {
      o.notes.push_back("tracer dropped " + std::to_string(tr.dropped_events()) + " events");
    }
    tr.clear();
    run_probes(*model, domain, p, p.integer("probe_window"), probe_rng, cpus, probes);
  }
  const float loss_after = data::lm_loss(*model, held_out, final_exit);

  bool finite = std::isfinite(loss_before) && std::isfinite(loss_after);
  for (const StepLog* log : {&measured, &traced, &control, &split}) {
    for (const float l : log->losses) finite = finite && std::isfinite(l);
  }
  o.check(finite, "adapt: non-finite loss");
  o.check(loss_after < loss_before, "adapt: held-out loss did not drop (" +
                                        std::to_string(loss_before) + " -> " +
                                        std::to_string(loss_after) + ")");
  o.config["held_out_loss"] = "{\"before\": " + json_num(loss_before) +
                              ", \"after\": " + json_num(loss_after) + "}";
  int64_t steps = 0, skipped = 0;
  for (const StepLog* log : {&measured, &traced, &control, &split}) {
    steps += static_cast<int64_t>(log->step_ms.size());
    skipped += log->skipped;
  }
  o.add_phase(Phase{"adapt_steps", steps, steps - skipped, skipped});

  o.add_phase(Phase{"adapted_decode", probes.sent, probes.ok, probes.sent - probes.ok});
  o.check(probes.ok == probes.sent, "adapt: adapted-model decode produced an invalid token");

  if (!a.trace) {
    // Steps per second: median over windows of window_steps consecutive
    // steps, so a host stall moves one window instead of the whole run.
    const size_t w = static_cast<size_t>(p.integer("window_steps"));
    std::vector<double> window_rate;
    for (size_t i = 0; i + w <= measured.step_ms.size(); i += w) {
      double ms = 0.0;
      for (size_t k = i; k < i + w; ++k) ms += measured.step_ms[k] + measured.sample_ms[k];
      window_rate.push_back(static_cast<double>(w) / (ms / 1e3));
    }
    const double iters_per_s = median(window_rate);
    // Step time percentiles weigh every exit equally (the default sampling
    // is uniform over exits), so the seed's draw of exits does not move
    // them: p50 lands on the mid-depth exit, p90 on the full-depth one.
    // Probe latencies: median over windows of probe_window probes.
    const size_t pw = static_cast<size_t>(p.integer("probe_window"));
    const size_t itl_w = pw * static_cast<size_t>(p.integer("probe_new_tokens") - 1);
    o.put("setup_s", median(setup_s), "s");
    o.put("peak_rss_mb", peak_rss_mb(), "MB");
    o.put("iters_per_s", iters_per_s, "1/s");
    o.put("iter_ms_p50", stratified_quantile(measured.step_ms_by_exit, 0.5), "ms");
    o.put("iter_ms_p90", stratified_quantile(measured.step_ms_by_exit, 0.9), "ms");
    o.put("tokens_per_s", iters_per_s * static_cast<double>(batch * seq), "tok/s");
    o.put("ttft_ms_p50", windowed_quantile(probes.ttft, pw, 0.5), "ms");
    o.put("ttft_ms_p99", windowed_quantile(probes.ttft, pw, 0.99), "ms");
    o.put("itl_ms_p50", windowed_quantile(probes.itl, itl_w, 0.5), "ms");
    o.put("itl_ms_p99", windowed_quantile(probes.itl, itl_w, 0.99), "ms");
    o.put("slo_ok_share", ratio(probes.in_slo, probes.sent), "fraction");
    return o;
  }

  // --- per-layer metrics (traced run) ----------------------------------------
  for (const int64_t e : model->exit_layers()) {
    const std::string sfx = ".exit" + std::to_string(e);
    o.put("core.tuner.step_ms" + sfx, median(measured.step_ms_by_exit[e]), "ms");
    o.put("nn.forward_eval_ms" + sfx, median(split.forward_eval_ms_by_exit[e]), "ms");
  }
  o.put("core.tuner.skipped_share", ratio(skipped, steps), "fraction");
  o.put("core.tuner.activation_bytes_peak", static_cast<double>(measured.activation_peak), "bytes");
  o.put("core.tuner.grad_bytes_peak", static_cast<double>(measured.grad_peak), "bytes");
  o.put("core.tuner.optimizer_state_bytes", static_cast<double>(measured.optimizer_bytes), "bytes");
  o.put("core.sensitivity.analyze_s", median(analyze_s), "s");
  o.put("core.luc.search_ms", median(search_ms), "ms");
  o.put("core.luc.apply_ms", median(apply_ms), "ms");
  o.put("data.sample_batch_ms", median(measured.sample_ms), "ms");
  o.put("nn.load_model_ms", median(load_ms), "ms");

  const std::vector<double> step_spans = span_durations(spans, "tuner/step");
  const double step_span_ms = mean(step_spans) * static_cast<double>(step_spans.size());
  o.put("tensor.kernel_share.adapt",
        step_span_ms > 0.0 ? kernel_self_ms(spans, sample, "tuner/step") / step_span_ms : 0.0,
        "fraction");
  o.put("tensor.fanouts_per_step",
        step_spans.empty() ? 0.0
                           : scaled_count(spans, "parallel/fanout", sample, "tuner/step") /
                                 static_cast<double>(step_spans.size()),
        "count");
  // Overhead: traced vs interleaved untraced median step time, per exit,
  // averaged over exits so a different exit mix does not register.
  std::vector<double> ratios;
  for (const auto& [e, ms] : traced.step_ms_by_exit) {
    const double base = median(control.step_ms_by_exit[e]);
    if (base > 0.0 && !ms.empty()) ratios.push_back(median(ms) / base - 1.0);
  }
  o.put("obs.trace_overhead_share", mean(ratios), "fraction");
  return o;
}

}  // namespace perfbench

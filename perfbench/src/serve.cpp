// Workload `serve_decode`: the served model in three phases on one engine:
// an open-loop Poisson arrival schedule at a fixed rate, a closed loop that
// keeps `streams` requests in flight, and bursts (everything submitted at
// once) for capacity. Short unshared prompts, long outputs and mixed exit
// policies (final / voted / speculative), so token generation dominates.
// Requests go through serve::ServeEngine::submit with a StreamSink that
// timestamps each token.
//
// Open-loop requests are timed from their scheduled send time, so a stall
// that delays later sends shows up in their latency; how late each send
// actually ran is reported as loadgen.late_ms_p99. The open loop gives the
// SLO share; TTFT, ITL and request latency come from the closed loop, where
// the batch stays full: on a shared host a mostly idle engine's latency
// follows the host's wake-up delays more than the code. The measured run
// repeats all three phases on several fresh engines and reports the median
// over those passes.
//
// The traced run adds a KV-budget phase: paged KV under a byte budget,
// long prompts on shared prefixes, bursts only.
//
// Output checks: a seeded sample of final and speculative completions
// equals the nn::IncrementalDecoder greedy reference token for token, every
// streamed token sequence equals its completion, and after drain the
// request and KV counts are conserved.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "nn/decoder.hpp"
#include "nn/serialize.hpp"

namespace perfbench {

using namespace edgellm;

std::string engine_config_json(const serve::EngineConfig& c) {
  std::ostringstream os;
  os << "{\"max_batch\": " << c.max_batch << ", \"queue_capacity\": " << c.queue_capacity
     << ", \"threads\": " << c.threads << ", \"compute_threads\": " << c.compute_threads
     << ", \"fast_math\": " << (c.fast_math ? "true" : "false")
     << ", \"kv_byte_budget\": " << c.kv_byte_budget
     << ", \"quantize_kv\": " << (c.quantize_kv ? "true" : "false")
     << ", \"kv_paged\": " << (c.kv_paged ? "true" : "false")
     << ", \"kv_block_tokens\": " << c.kv_block_tokens << ", \"prefill_chunk\": " << c.prefill_chunk
     << ", \"pack_compressed_weights\": " << (c.pack_compressed_weights ? "true" : "false")
     << ", \"speculative_depth\": " << c.speculative_depth << ", \"draft_k\": " << c.draft_k
     << ", \"trace_kernel_sample\": " << c.trace_kernel_sample
     << ", \"max_admission_retries\": " << c.max_admission_retries
     << ", \"watchdog_stall_ms\": " << c.watchdog_stall_ms << "}";
  return os.str();
}

std::vector<int64_t> greedy_reference(nn::CausalLm& model, const std::vector<int64_t>& prompt,
                                      int64_t n_new) {
  nn::IncrementalDecoder dec(model);
  nn::GenerateConfig g;
  g.max_new_tokens = n_new;
  g.temperature = 0.0f;
  Rng unused(0);
  return dec.generate(prompt, g, unused);
}

void check_references(nn::CausalLm& model, const std::vector<ServedSample>& samples,
                      const std::string& tag, Outcome& o) {
  int64_t mismatched = 0;
  for (const ServedSample& s : samples) {
    if (greedy_reference(model, s.prompt, s.n_new) != s.tokens) ++mismatched;
  }
  const std::string n = std::to_string(samples.size());
  o.check(!samples.empty(), tag + "no completion to check against the reference");
  o.check(mismatched == 0, tag + std::to_string(mismatched) + " of " + n +
                               " sampled completions differ from the IncrementalDecoder reference");
  o.notes.push_back(tag + "checked " + n + " completions against the IncrementalDecoder reference");
}

void check_drained(const serve::ServeEngine& engine, Outcome& o, const std::string& tag) {
  const serve::EngineMetrics m = engine.metrics();
  o.check(m.submitted == m.completed + m.rejected + m.cancelled + m.timed_out + m.shed +
                             m.expired + m.failed,
          tag + ": request conservation violated");
  const obs::MetricsSnapshot s = engine.registry().snapshot();
  o.check(s.counter("kv/acquired") == s.counter("kv/released"),
          tag + ": kv/acquired != kv/released after drain");
}

void put_serving_layers(Outcome& o, const std::vector<ClosedSpan>& spans, int64_t sample,
                        const obs::MetricsSnapshot& snap, const serve::EngineMetrics& m) {
  const std::vector<double> decode = span_durations(spans, "decode/step");
  const std::vector<double> ticks = span_durations(spans, "serve/tick");
  o.put("nn.decode_step_ms_p50", quantile(decode, 0.5), "ms");
  o.put("nn.decode_step_ms_p99", quantile(decode, 0.99), "ms");
  const double decode_total = mean(decode) * static_cast<double>(decode.size());
  o.put("tensor.kernel_share.decode",
        decode_total > 0.0 ? kernel_self_ms(spans, sample, "decode/step") / decode_total : 0.0,
        "fraction");
  o.put("tensor.fanouts_per_step",
        ticks.empty() ? 0.0
                      : scaled_count(spans, "parallel/fanout", sample, nullptr) /
                            static_cast<double>(ticks.size()),
        "count");
  o.put("serve.tick_ms_p50", quantile(ticks, 0.5), "ms");
  o.put("serve.tick_ms_p99", quantile(ticks, 0.99), "ms");
  o.put("serve.batch_size_mean", hist_mean(snap, "serve/batch_size"), "seqs");
  o.put("serve.tokens_per_tick", ratio(m.tokens_generated, m.ticks), "tok");
  o.put("serve.failed_share",
        ratio(m.rejected + m.shed + m.expired + m.timed_out + m.failed, m.submitted), "fraction");
  o.put("kv.high_water_bytes", static_cast<double>(snap.gauge("kv/high_water_bytes")), "bytes");
}

namespace {

/// One request as the load generator saw it.
struct Rec {
  serve::Request req;
  Clock::time_point due{};
  Clock::time_point done_t{};
  double late_ms = 0.0;
  double submit_us = 0.0;
  std::vector<Clock::time_point> tok_t;  ///< written by the engine's sink
  std::vector<int64_t> toks;
  std::future<serve::Completion> fut;
  serve::Completion c;
  bool resolved = false;
};

/// Seeded request stream: prompt lengths and the exit policy mix come from
/// the workload constants and the run's seed.
class RequestGen {
 public:
  RequestGen(const Params& p, uint64_t seed) : p_(p), rng_(seed), domain_(base_domain()) {}

  serve::Request next(int64_t id) {
    serve::Request r;
    r.id = id;
    r.max_new_tokens = p_.integer("new_tokens");
    r.temperature = 0.0f;
    r.prompt = domain_.sample(rng_.uniform_int(p_.integer("prompt_min"), p_.integer("prompt_max")),
                              rng_);
    const double u = static_cast<double>(rng_.uniform(0.0f, 1.0f));
    if (u < p_.num("share_final")) {
      r.exit_policy = serve::ExitPolicy::kFinal;
    } else if (u < p_.num("share_final") + p_.num("share_voted")) {
      r.exit_policy = serve::ExitPolicy::kVoted;
    } else {
      r.exit_policy = serve::ExitPolicy::kSpeculative;
      r.draft_depth = p_.integer("spec_depth");
      r.draft_k = p_.integer("spec_k");
    }
    return r;
  }

 private:
  const Params& p_;
  Rng rng_;
  data::MarkovChain domain_;
};

/// Counts completions for the closed loop. Shared with the sinks, so it
/// outlives any callback still running when the loop gives up waiting.
struct DoneSignal {
  std::mutex mu;
  std::condition_variable cv;
  int64_t done = 0;
};

void submit(serve::ServeEngine& engine, Rec& r, std::shared_ptr<DoneSignal> signal = nullptr) {
  r.tok_t.reserve(static_cast<size_t>(r.req.max_new_tokens));
  r.toks.reserve(static_cast<size_t>(r.req.max_new_tokens));
  Rec* rp = &r;
  serve::StreamSink sink;
  sink.on_token = [rp](int64_t, int64_t tok) {
    rp->tok_t.push_back(Clock::now());
    rp->toks.push_back(tok);
  };
  sink.on_done = [rp, signal](const serve::Completion&) {
    rp->done_t = Clock::now();
    if (signal) {
      {
        std::lock_guard<std::mutex> lock(signal->mu);
        ++signal->done;
      }
      signal->cv.notify_one();
    }
  };
  const auto t0 = Clock::now();
  r.late_ms = ms_between(r.due, t0);
  r.fut = engine.submit(r.req, std::move(sink));
  r.submit_us = ms_since(t0) * 1e3;
}

/// Waits for every record's completion; false when one is still pending
/// after `timeout_s` (the caller then cancels and fails the run).
bool collect(std::deque<Rec>& recs, size_t from, double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_s));
  for (size_t i = from; i < recs.size(); ++i) {
    Rec& r = recs[i];
    if (r.resolved) continue;
    if (r.fut.wait_until(deadline) != std::future_status::ready) return false;
    r.c = r.fut.get();
    r.resolved = true;
  }
  return true;
}

Phase phase_of(const std::string& name, const std::deque<Rec>& recs, size_t from, size_t to) {
  Phase ph{name, static_cast<int64_t>(to - from), 0, 0};
  for (size_t i = from; i < to; ++i) {
    if (recs[i].resolved && recs[i].c.status == serve::RequestStatus::kOk) ++ph.ok;
  }
  ph.failed = ph.sent - ph.ok;
  return ph;
}

/// Per-request latency samples of one phase, each request timed from its
/// `due` time, and how many of the phase's requests met both SLO limits.
struct Latency {
  std::vector<double> ttft, itl, e2e, queue_wait, prefill;
  int64_t sent = 0, in_slo = 0;
};

Latency latency_of(const std::deque<Rec>& recs, size_t from, size_t to, double ttft_limit,
                   double itl_limit) {
  Latency l;
  l.sent = static_cast<int64_t>(to - from);
  for (size_t i = from; i < to; ++i) {
    const Rec& r = recs[i];
    if (!r.resolved || r.c.status != serve::RequestStatus::kOk || r.tok_t.empty()) continue;
    const double ttft = ms_between(r.due, r.tok_t.front());
    l.ttft.push_back(ttft);
    l.e2e.push_back(ms_between(r.due, r.done_t));
    l.queue_wait.push_back(r.c.metrics.queue_wait_ms);
    l.prefill.push_back(r.c.metrics.ttft_ms - r.c.metrics.queue_wait_ms);
    double gaps = 0.0;
    for (size_t k = 1; k < r.tok_t.size(); ++k) {
      const double g = ms_between(r.tok_t[k - 1], r.tok_t[k]);
      l.itl.push_back(g);
      gaps += g;
    }
    const double tpot = r.tok_t.size() > 1 ? gaps / static_cast<double>(r.tok_t.size() - 1) : 0.0;
    if (ttft <= ttft_limit && tpot <= itl_limit) ++l.in_slo;
  }
  return l;
}

/// Raw results of one warmup + open-loop + closed-loop + burst pass over
/// one engine.
struct PassResult {
  Latency open, closed;
  std::vector<double> late, submit_us;  ///< open loop
  std::vector<double> burst_tok_s, burst_req_s;  ///< one sample per burst
  int64_t burst_tokens = 0;
  double burst_s = 0.0;
  std::vector<ServedSample> ref_samples;  ///< for check_references, after the pass
  obs::MetricsSnapshot snap;
  serve::EngineMetrics m;
};

/// A seeded sample of up to `n` of the completions at `idx` in `recs`, for
/// the reference check.
void pick_samples(const std::deque<Rec>& recs, std::vector<size_t> idx, size_t n, Rng& pick,
                  std::vector<ServedSample>& out) {
  for (size_t k = 0; k < idx.size() && k < n; ++k) {  // seeded partial Fisher-Yates
    const size_t j =
        k + static_cast<size_t>(pick.uniform_int(0, static_cast<int64_t>(idx.size() - k) - 1));
    std::swap(idx[k], idx[j]);
    const Rec& r = recs[idx[k]];
    out.push_back(ServedSample{r.req.prompt, r.req.max_new_tokens, r.c.tokens});
  }
}

PassResult run_pass(serve::ServeEngine& engine, const RunArgs& a, double seconds, uint64_t seed,
                    const std::string& tag, Outcome& o) {
  const Params& p = a.params;
  RequestGen gen(p, seed);
  std::deque<Rec> recs;
  int64_t next_id = 1;
  PassResult res;
  bool stuck = false;
  const double timeout_s = 60.0;

  // Warmup: one small burst, not measured.
  for (int64_t i = 0; i < p.integer("warmup_requests"); ++i) {
    Rec& r = recs.emplace_back();
    r.req = gen.next(next_id++);
    r.due = Clock::now();
    submit(engine, r);
  }
  stuck = stuck || !collect(recs, 0, timeout_s);
  o.add_phase(phase_of(tag + "warmup", recs, 0, recs.size()));

  // Open loop: Poisson arrivals at the fixed rate, each request timed from
  // its scheduled send.
  const size_t open_from = recs.size();
  const std::vector<double> schedule =
      poisson_schedule(p.num("rate_rps"), seconds * p.num("open_share"), seed ^ 0xA5A5);
  for (size_t i = 0; i < schedule.size(); ++i) recs.emplace_back().req = gen.next(next_id++);
  const auto t0 = Clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    Rec& r = recs[open_from + i];
    r.due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(schedule[i]));
    std::this_thread::sleep_until(r.due);
    submit(engine, r);
  }
  stuck = stuck || !collect(recs, open_from, timeout_s);
  const size_t open_to = recs.size();
  o.add_phase(phase_of(tag + "open_loop", recs, open_from, open_to));

  // Closed loop: `streams` requests in flight, each completion replaced at
  // once, so the batch stays full and no queue builds; each request is
  // timed from its submit.
  const size_t closed_from = recs.size();
  const int64_t streams = p.integer("streams");
  const auto signal = std::make_shared<DoneSignal>();
  const auto send = [&] {
    Rec& r = recs.emplace_back();
    r.req = gen.next(next_id++);
    r.due = Clock::now();
    submit(engine, r, signal);
  };
  const auto tc = Clock::now();
  int64_t sent = 0;
  for (; !stuck && sent < streams; ++sent) send();
  while (!stuck && ms_since(tc) < seconds * p.num("closed_share") * 1e3) {
    std::unique_lock<std::mutex> lock(signal->mu);
    stuck = !signal->cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                                 [&] { return signal->done > sent - streams; });
    const int64_t free_slots = signal->done - (sent - streams);
    lock.unlock();
    for (int64_t k = 0; !stuck && k < free_slots; ++k, ++sent) send();
  }
  stuck = stuck || !collect(recs, closed_from, timeout_s);
  const size_t closed_to = recs.size();
  o.add_phase(phase_of(tag + "closed_loop", recs, closed_from, closed_to));

  // Burst: everything at once, repeated until the phase's time is used;
  // capacity is the median over bursts.
  const size_t burst_from = recs.size();
  const double burst_budget_s =
      seconds * (1.0 - p.num("open_share") - p.num("closed_share"));
  int64_t bursts = 0;
  while (!stuck && (bursts == 0 || res.burst_s < burst_budget_s)) {
    const size_t from = recs.size();
    for (int64_t i = 0; i < p.integer("burst_requests"); ++i) {
      recs.emplace_back().req = gen.next(next_id++);
    }
    const auto tb = Clock::now();
    for (size_t i = from; i < recs.size(); ++i) {
      recs[i].due = tb;
      submit(engine, recs[i]);
    }
    stuck = !collect(recs, from, timeout_s);
    Clock::time_point last = tb;
    int64_t tokens = 0, done = 0;
    for (size_t i = from; i < recs.size(); ++i) {
      const Rec& r = recs[i];
      if (!r.resolved || r.c.status != serve::RequestStatus::kOk) continue;
      last = std::max(last, r.done_t);
      tokens += static_cast<int64_t>(r.c.tokens.size());
      ++done;
    }
    const double s = ms_between(tb, last) / 1e3;
    if (done > 0) {
      res.burst_tok_s.push_back(static_cast<double>(tokens) / s);
      res.burst_req_s.push_back(static_cast<double>(done) / s);
    }
    res.burst_tokens += tokens;
    res.burst_s += s;
    ++bursts;
  }
  o.add_phase(phase_of(tag + "burst", recs, burst_from, recs.size()));

  if (stuck) {
    o.check(false, tag + "requests still pending after " + std::to_string(timeout_s) + " s");
    for (const Rec& r : recs) engine.cancel(r.req.id);
    collect(recs, 0, timeout_s);
  }
  engine.shutdown();
  check_drained(engine, o, tag + "engine");
  res.m = engine.metrics();
  res.snap = engine.registry().snapshot();

  const double ttft_limit = p.num("ttft_limit_ms");
  const double itl_limit = p.num("itl_limit_ms");
  res.open = latency_of(recs, open_from, open_to, ttft_limit, itl_limit);
  res.closed = latency_of(recs, closed_from, closed_to, ttft_limit, itl_limit);
  for (size_t i = open_from; i < open_to; ++i) {
    res.late.push_back(recs[i].late_ms);
    res.submit_us.push_back(recs[i].submit_us);
  }

  // Output checks: streamed == completion for every request; a seeded
  // sample of final and speculative completions is kept for the caller's
  // reference check.
  bool streamed_match = true;
  std::vector<size_t> finals, specs;
  for (size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    if (!r.resolved || r.c.status != serve::RequestStatus::kOk) continue;
    streamed_match = streamed_match && r.toks == r.c.tokens;
    if (r.req.exit_policy == serve::ExitPolicy::kFinal) finals.push_back(i);
    if (r.req.exit_policy == serve::ExitPolicy::kSpeculative) specs.push_back(i);
  }
  o.check(streamed_match, tag + "streamed tokens differ from the completion");
  Rng pick(seed ^ 0xC0FFEE);
  const size_t n = static_cast<size_t>(p.integer("check_sample"));
  pick_samples(recs, finals, n, pick, res.ref_samples);
  pick_samples(recs, specs, n, pick, res.ref_samples);
  return res;
}

/// Prompts of the KV-budget phase: `kv_shared_share` of them start with one
/// of `kv_prefixes` shared prefixes of `kv_prefix_len` tokens, the rest are
/// unique; every prompt is kv_prompt_min..kv_prompt_max tokens long.
std::vector<int64_t> kv_prompt(const Params& p, const std::vector<std::vector<int64_t>>& prefixes,
                               const data::MarkovChain& domain, Rng& rng) {
  const int64_t len = rng.uniform_int(p.integer("kv_prompt_min"), p.integer("kv_prompt_max"));
  if (static_cast<double>(rng.uniform(0.0f, 1.0f)) >= p.num("kv_shared_share")) {
    return domain.sample(len, rng);
  }
  std::vector<int64_t> prompt =
      prefixes[static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(prefixes.size()) - 1))];
  const std::vector<int64_t> rest = domain.sample(len - static_cast<int64_t>(prompt.size()), rng);
  prompt.insert(prompt.end(), rest.begin(), rest.end());
  return prompt;
}

/// The KV-budget phase of the traced run: paged KV under a byte budget that
/// fits a full batch of unshared prompts but not every cached prefix, and
/// long prompts on shared prefixes, submitted in bursts (capacity only, so
/// no open-loop queue can build). It gives the prefix-reuse and eviction
/// counters something to count; the default slot KV never moves them.
struct KvBudgetResult {
  int64_t prompt_tokens = 0;
  obs::MetricsSnapshot snap;
  std::vector<ServedSample> ref_samples;
};

KvBudgetResult run_kv_budget(nn::CausalLm& model, const serve::EngineConfig& base,
                             const RunArgs& a, Outcome& o) {
  const Params& p = a.params;
  serve::EngineConfig cfg = base;
  cfg.kv_paged = true;
  cfg.kv_byte_budget = p.integer("kv_budget_bytes");
  o.config["kv_budget_engine"] = engine_config_json(cfg);
  serve::ServeEngine engine(model, cfg);
  const data::MarkovChain domain = base_domain();
  Rng rng(a.seed ^ 0x6B76);
  std::vector<std::vector<int64_t>> prefixes;
  for (int64_t i = 0; i < p.integer("kv_prefixes"); ++i) {
    prefixes.push_back(domain.sample(p.integer("kv_prefix_len"), rng));
  }
  std::deque<Rec> recs;
  KvBudgetResult res;
  bool stuck = false;
  for (int64_t b = 0; b < p.integer("kv_bursts") && !stuck; ++b) {
    const size_t from = recs.size();
    for (int64_t i = 0; i < p.integer("burst_requests"); ++i) {
      Rec& r = recs.emplace_back();
      r.req.id = static_cast<int64_t>(recs.size());
      r.req.max_new_tokens = p.integer("kv_new_tokens");
      r.req.temperature = 0.0f;
      r.req.prompt = kv_prompt(p, prefixes, domain, rng);
      res.prompt_tokens += static_cast<int64_t>(r.req.prompt.size());
    }
    for (size_t i = from; i < recs.size(); ++i) {
      recs[i].due = Clock::now();
      submit(engine, recs[i]);
    }
    stuck = !collect(recs, from, 60.0);
  }
  o.add_phase(phase_of("kv_budget_burst", recs, 0, recs.size()));
  if (stuck) {
    o.check(false, "kv_budget/requests still pending after 60 s");
    for (const Rec& r : recs) engine.cancel(r.req.id);
    collect(recs, 0, 60.0);
  }
  engine.shutdown();
  check_drained(engine, o, "kv_budget/engine");
  res.snap = engine.registry().snapshot();
  std::vector<size_t> ok;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].resolved && recs[i].c.status == serve::RequestStatus::kOk) ok.push_back(i);
  }
  Rng pick(a.seed ^ 0xC0FFEE);
  pick_samples(recs, ok, static_cast<size_t>(p.integer("check_sample")), pick, res.ref_samples);
  return res;
}

}  // namespace

Outcome run_serve(const RunArgs& a) {
  const Params& p = a.params;
  Outcome o;
  serve::EngineConfig ecfg;  // defaults, except the recorded queue capacity
  ecfg.queue_capacity = p.integer("queue_capacity");
  o.config["engine"] = engine_config_json(ecfg);

  // Set-up, repeated; setup_s is the median.
  std::vector<double> setup_s, load_ms;
  std::unique_ptr<nn::CausalLm> model;
  std::unique_ptr<serve::ServeEngine> engine;
  for (int64_t r = 0; r < p.integer("setup_repeats"); ++r) {
    engine.reset();
    model.reset();
    const auto t0 = Clock::now();
    model = nn::load_model_with_config(a.model_path);
    const auto t1 = Clock::now();
    engine = std::make_unique<serve::ServeEngine>(*model, ecfg);
    setup_s.push_back(ms_since(t0) / 1e3);
    load_ms.push_back(ms_between(t0, t1));
  }

  if (!a.trace) {
    // The run is `passes` equal passes, each on a fresh engine (fresh
    // scheduler and worker threads). Capacity and latency figures are the
    // median over passes of each pass's figure: on a shared host an engine's
    // threads can sit on a slow CPU, or wake late, for a pass's whole length,
    // and the median keeps one such pass from moving the run. The SLO share
    // pools every pass's open loop.
    struct Figure {
      const char* name;
      const char* unit;
      std::vector<double> per_pass;
    };
    std::vector<Figure> figs = {{"iters_per_s", "1/s", {}},  {"iter_ms_p50", "ms", {}},
                                {"iter_ms_p90", "ms", {}},   {"tokens_per_s", "tok/s", {}},
                                {"ttft_ms_p50", "ms", {}},   {"ttft_ms_p99", "ms", {}},
                                {"itl_ms_p50", "ms", {}},    {"itl_ms_p99", "ms", {}}};
    const int64_t passes = p.integer("passes");
    int64_t open_sent = 0, open_in_slo = 0, closed_sent = 0, itl_samples = 0;
    for (int64_t k = 0; k < passes; ++k) {
      if (!engine) engine = std::make_unique<serve::ServeEngine>(*model, ecfg);
      const std::string tag = "pass" + std::to_string(k + 1) + "/";
      const PassResult r = run_pass(*engine, a, a.seconds / static_cast<double>(passes),
                                    a.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(k),
                                    tag, o);
      engine.reset();
      check_references(*model, r.ref_samples, tag, o);
      const Latency& c = r.closed;
      const double values[] = {median(r.burst_req_s),  quantile(c.e2e, 0.5),
                               quantile(c.e2e, 0.9),   median(r.burst_tok_s),
                               quantile(c.ttft, 0.5),  quantile(c.ttft, 0.99),
                               quantile(c.itl, 0.5),   quantile(c.itl, 0.99)};
      for (size_t i = 0; i < figs.size(); ++i) figs[i].per_pass.push_back(values[i]);
      open_sent += r.open.sent;
      open_in_slo += r.open.in_slo;
      closed_sent += c.sent;
      itl_samples += static_cast<int64_t>(c.itl.size());
    }
    o.put("setup_s", median(setup_s), "s");
    o.put("peak_rss_mb", peak_rss_mb(), "MB");
    for (const Figure& f : figs) o.put(f.name, median(f.per_pass), f.unit);
    o.put("slo_ok_share", ratio(open_in_slo, open_sent), "fraction");
    o.notes.push_back(std::to_string(passes) + " passes; open loop: " + std::to_string(open_sent) +
                      " requests; closed loop: " + std::to_string(closed_sent) + " requests, " +
                      std::to_string(itl_samples) + " ITL samples");
    return o;
  }

  // Traced run: an untraced pass (benchmark clocks, registry) on the set-up
  // engine and the KV-budget phase, then a traced pass on a fresh engine for
  // the spans. Reference decodes run only while the tracer is off.
  const PassResult u = run_pass(*engine, a, a.seconds / 2, a.seed, "untraced/", o);
  check_references(*model, u.ref_samples, "untraced/", o);
  engine.reset();
  const KvBudgetResult kv = run_kv_budget(*model, ecfg, a, o);
  check_references(*model, kv.ref_samples, "kv_budget/", o);
  const int64_t sample = p.integer("trace_kernel_sample");
  obs::Tracer& tr = obs::Tracer::global();
  tr.clear();
  tr.enable(sample);
  engine = std::make_unique<serve::ServeEngine>(*model, ecfg);
  const double trace_s = std::min(a.seconds / 2, p.num("trace_seconds"));
  const PassResult t = run_pass(*engine, a, trace_s, a.seed + 1, "traced/", o);
  tr.disable();
  const std::vector<ClosedSpan> spans = close_spans(tr.events());
  engine.reset();
  o.config["span_self_time"] = span_self_table_json(spans);
  if (tr.dropped_events() > 0) {
    o.notes.push_back("tracer dropped " + std::to_string(tr.dropped_events()) + " events");
  }
  tr.clear();
  check_references(*model, t.ref_samples, "traced/", o);

  put_serving_layers(o, spans, sample, u.snap, u.m);
  o.put("nn.speculative_round_ms_p50", quantile(span_durations(spans, "decode/speculative"), 0.5),
        "ms");
  o.put("serve.submit_us_p99", quantile(u.submit_us, 0.99), "us");
  o.put("serve.queue_wait_ms_p50", quantile(u.closed.queue_wait, 0.5), "ms");
  o.put("serve.queue_wait_ms_p99", quantile(u.closed.queue_wait, 0.99), "ms");
  o.put("serve.prefill_ms_p50", quantile(u.closed.prefill, 0.5), "ms");
  o.put("kv.prefix_hit_token_share",
        ratio(kv.snap.counter("kv/prefix_hit_tokens"), kv.prompt_tokens), "fraction");
  o.put("kv.evicted_blocks", static_cast<double>(kv.snap.counter("kv/evicted_blocks")), "count");
  o.put("kv.rejected", static_cast<double>(kv.snap.counter("kv/rejected")), "count");
  const int64_t acc = u.snap.counter("spec/accepted_tokens");
  o.put("spec.acceptance_rate", ratio(acc, acc + u.snap.counter("spec/rejected_tokens")),
        "fraction");
  o.put("loadgen.late_ms_p99", quantile(u.late, 0.99), "ms");
  o.put("nn.load_model_ms", median(load_ms), "ms");
  // Headline for the overhead: burst time per output token.
  const double untraced_tpt = u.burst_s / static_cast<double>(std::max<int64_t>(1, u.burst_tokens));
  const double traced_tpt = t.burst_s / static_cast<double>(std::max<int64_t>(1, t.burst_tokens));
  o.put("obs.trace_overhead_share", untraced_tpt > 0.0 ? traced_tpt / untraced_tpt - 1.0 : 0.0,
        "fraction");
  return o;
}

}  // namespace perfbench

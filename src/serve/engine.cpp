#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace edgellm::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A degrade mechanism is configured: staging may move requests down the
/// exit ladder before reserving KV bytes.
bool degrade_configured(const EngineConfig& cfg) {
  return cfg.admission.shed_policy == ShedPolicy::kDegradeEarlyExit ||
         cfg.admission.degrade_queue_ratio > 0.0 || cfg.admission.degrade_kv_ratio > 0.0 ||
         cfg.admission.degrade_tick_ms > 0.0;
}

/// {0, 1, ..., 16}: exact buckets for drafts-accepted-per-round (0 is a
/// legitimate and common value, so it gets its own bucket).
std::vector<double> spec_round_bounds() {
  std::vector<double> b;
  for (int i = 0; i <= 16; ++i) b.push_back(static_cast<double>(i));
  return b;
}

/// {0.0, 0.1, ..., 1.0}: deciles for the per-round acceptance rate.
std::vector<double> spec_rate_bounds() {
  std::vector<double> b;
  for (int i = 0; i <= 10; ++i) b.push_back(static_cast<double>(i) / 10.0);
  return b;
}

}  // namespace

// --- WorkerPool -------------------------------------------------------------

WorkerPool::WorkerPool(int64_t n_threads) {
  check_arg(n_threads > 0, "WorkerPool: need at least one thread");
  threads_.reserve(static_cast<size_t>(n_threads));
  for (int64_t i = 0; i < n_threads; ++i) threads_.emplace_back([this] { worker(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    quit_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::run(int64_t n_tasks, const std::function<void(int64_t)>& fn) {
  if (n_tasks <= 0) return;
  std::unique_lock<std::mutex> lk(m_);
  fn_ = &fn;
  total_ = n_tasks;
  next_ = 0;
  done_ = 0;
  ++epoch_;
  cv_work_.notify_all();
  cv_done_.wait(lk, [&] { return done_ == total_; });
  fn_ = nullptr;
}

void WorkerPool::worker() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(m_);
  while (true) {
    cv_work_.wait(lk, [&] { return quit_ || (epoch_ != seen && next_ < total_); });
    if (quit_) return;
    seen = epoch_;
    while (next_ < total_) {
      const int64_t i = next_++;
      lk.unlock();
      (*fn_)(i);
      lk.lock();
      ++done_;
      if (done_ == total_) cv_done_.notify_all();
    }
  }
}

// --- ServeEngine ------------------------------------------------------------

ServeEngine::ServeEngine(nn::CausalLm& model, EngineConfig cfg)
    : model_(model),
      cfg_(cfg),
      c_submitted_(registry_.counter("serve/submitted")),
      c_completed_(registry_.counter("serve/completed")),
      c_rejected_(registry_.counter("serve/rejected")),
      c_cancelled_(registry_.counter("serve/cancelled")),
      c_timed_out_(registry_.counter("serve/timed_out")),
      c_shed_(registry_.counter("serve/shed")),
      c_expired_(registry_.counter("serve/expired")),
      c_failed_(registry_.counter("serve/failed")),
      c_degraded_(registry_.counter("serve/degraded")),
      c_retries_(registry_.counter("serve/admission_retries")),
      c_watchdog_(registry_.counter("serve/watchdog_fired")),
      c_tokens_(registry_.counter("serve/tokens_generated")),
      c_spec_accepted_(registry_.counter("spec/accepted_tokens")),
      c_spec_rejected_(registry_.counter("spec/rejected_tokens")),
      h_batch_(registry_.histogram("serve/batch_size", obs::integer_bounds(cfg.max_batch))),
      h_queue_wait_(registry_.histogram("serve/queue_wait_ms")),
      h_tick_ms_(registry_.histogram("serve/tick_ms")),
      h_spec_accepted_(registry_.histogram("spec/accepted_per_round", spec_round_bounds())),
      h_spec_rate_(registry_.histogram("spec/acceptance_rate", spec_rate_bounds())),
      admit_ctl_(cfg.admission),
      sched_(SchedulerConfig{cfg.max_batch, cfg.queue_capacity, model.config().max_seq,
                             model.config().n_layers, cfg.max_admission_retries,
                             cfg.retry_backoff_ms,
                             degrade_configured(cfg) ? cfg.degrade_budget_retries : 0,
                             cfg.fault},
             KvPoolConfig{.kv_dim = model.config().kv_dim(),
                          .block_tokens = cfg.kv_block_tokens,
                          .byte_budget = cfg.kv_byte_budget,
                          .quantize = cfg.quantize_kv,
                          .registry = &registry_}) {
  check_arg(cfg_.threads >= 1, "ServeEngine: threads must be >= 1");
  check_arg(cfg_.compute_threads >= 0, "ServeEngine: compute_threads must be >= 0");
  check_arg(cfg_.watchdog_stall_ms >= 0, "ServeEngine: watchdog_stall_ms must be >= 0");
  check_arg(cfg_.prefill_chunk >= 1, "ServeEngine: prefill_chunk must be >= 1");
  check_arg(cfg_.degrade_budget_retries >= 0,
            "ServeEngine: degrade_budget_retries must be >= 0 (0 = off)");
  check_arg(cfg_.draft_k >= 1, "ServeEngine: draft_k must be >= 1");
  if (cfg_.speculative_depth > 0) {
    (void)model_.exit_index(cfg_.speculative_depth);  // throws on unregistered depth
    check_arg(cfg_.speculative_depth < model_.config().n_layers,
              "ServeEngine: speculative_depth must be below the final layer");
  }
  if (cfg_.compute_threads > 0) parallel::set_num_threads(cfg_.compute_threads);
  if (cfg_.trace_kernel_sample >= 0) obs::Tracer::global().enable(cfg_.trace_kernel_sample);
  ops::gemm::set_fast_math(cfg_.fast_math);
  // Expose the resolved SIMD backend on GET /metrics: gauge
  // simd/dispatch.<isa> = 1 (and simd/fast_math = 0|1) so deployments can
  // confirm what the kernels actually run on.
  registry_.gauge(std::string("simd/dispatch.") + simd::to_string(simd::active_isa())).set(1);
  registry_.gauge("simd/fast_math").set(cfg_.fast_math ? 1 : 0);
  h_wait_class_[0] = &registry_.histogram("serve/queue_wait_ms_p0");
  h_wait_class_[1] = &registry_.histogram("serve/queue_wait_ms_p1");
  h_wait_class_[2] = &registry_.histogram("serve/queue_wait_ms_p2");
  // Degradation ladder: the exits below the final layer, from the model's
  // registered set. Empty set -> ladder stays {0, 0} and degrading is a
  // no-op (nothing cheaper to trade down to).
  for (int64_t e : model_.exit_layers()) {
    if (e >= model_.config().n_layers) continue;
    ladder_.deep = std::max(ladder_.deep, e);
    ladder_.shallow = ladder_.shallow == 0 ? e : std::min(ladder_.shallow, e);
    // Per-draft-depth span names, built once: ScopedSpan keeps the char* it
    // is given, and map nodes never move, so .c_str() stays valid for the
    // engine's lifetime.
    spec_span_names_.emplace(e, "spec/round_d" + std::to_string(e));
  }
  const size_t n_exits = model_.exit_layers().size();
  exit_weights_.assign(n_exits, 1.0f / static_cast<float>(n_exits));
  exit_losses_.assign(n_exits, 0.0f);
  model_.set_eval();
  // Frozen model: pack weights into kernel-ready panels once (integer
  // storage when opted in).
  weight_cache_.build(model_, cfg_.pack_compressed_weights);
  if (cfg_.threads > 1) workers_ = std::make_unique<WorkerPool>(cfg_.threads);
  sched_thread_ = std::thread([this] { loop(); });
  if (cfg_.watchdog_stall_ms > 0) watchdog_thread_ = std::thread([this] { watchdog(); });
}

ServeEngine::~ServeEngine() { shutdown(); }

int64_t ServeEngine::resolved_depth(const Request& req) const {
  if (req.exit_policy == ExitPolicy::kFixedEarly) {
    (void)model_.exit_index(req.exit_layer);  // throws on unregistered depth
    return req.exit_layer;
  }
  // kFinal, kVoted and kSpeculative all cache (and are billed at) full
  // depth: speculative drafts write shallow layers of the SAME cache, so
  // they add positions, not layers.
  return model_.config().n_layers;
}

void ServeEngine::resolve(SeqState& s, RequestStatus status) {
  // Idempotent: the watchdog may have already failed this request while it
  // sat in a wedged batch; the loop's own resolution is then a no-op.
  if (s.resolved) return;
  s.resolved = true;
  Completion c;
  c.id = s.req.id;
  c.status = status;
  c.tokens = s.out;
  const auto now = std::chrono::steady_clock::now();
  c.metrics.prompt_tokens = static_cast<int64_t>(s.req.prompt.size());
  c.metrics.output_tokens = static_cast<int64_t>(s.out.size());
  c.metrics.total_ms = ms_between(s.submit_t, now);
  if (s.admitted()) c.metrics.queue_wait_ms = ms_between(s.submit_t, s.admit_t);
  if (s.has_first_token) {
    c.metrics.ttft_ms = ms_between(s.submit_t, s.first_token_t);
    const double decode_ms = ms_between(s.admit_t, now);
    if (decode_ms > 0.0) {
      c.metrics.tokens_per_s = static_cast<double>(s.out.size()) / (decode_ms / 1e3);
    }
  }
  c.metrics.kv_bytes = s.kv_bytes_at_end;
  c.metrics.spec_drafted = s.spec_drafted;
  c.metrics.spec_accepted = s.spec_accepted;
  c.error = std::move(s.error);
  c.degraded = s.degraded;
  c.exit_layer_used = s.exit_layer_used;
  // Streaming observers hear the terminal before the future resolves, so
  // a client that saw its future ready can rely on the sink being done.
  if (s.sink.on_done) s.sink.on_done(c);
  s.promise.set_value(std::move(c));
}

Pressure ServeEngine::pressure_locked() const {
  Pressure p;
  p.queue_ratio =
      static_cast<double>(sched_.queued()) / static_cast<double>(cfg_.queue_capacity);
  if (cfg_.kv_byte_budget > 0) {
    p.kv_ratio = static_cast<double>(sched_.pool().committed_bytes()) /
                 static_cast<double>(cfg_.kv_byte_budget);
  }
  p.tick_ewma_ms = admit_ctl_.tick_ewma_ms();
  return p;
}

std::future<Completion> ServeEngine::submit(Request req, StreamSink sink) {
  const nn::ModelConfig& mcfg = model_.config();
  check_arg(!req.prompt.empty(), "ServeEngine::submit: empty prompt");
  check_arg(static_cast<int64_t>(req.prompt.size()) <= mcfg.max_seq,
            "ServeEngine::submit: prompt longer than the context window");
  for (int64_t t : req.prompt) {
    check_arg(t >= 0 && t < mcfg.vocab, "ServeEngine::submit: prompt token out of range");
  }
  check_arg(req.max_new_tokens > 0, "ServeEngine::submit: max_new_tokens must be positive");
  check_arg(req.top_k >= 0 && req.top_k <= mcfg.vocab,
            "ServeEngine::submit: top_k must be in [0, vocab]");
  check_arg(std::isfinite(req.temperature), "ServeEngine::submit: temperature must be finite");
  check_arg(req.deadline_ms >= 0.0, "ServeEngine::submit: negative deadline");
  check_arg(req.priority >= kPriorityHigh && req.priority <= kPriorityLow,
            "ServeEngine::submit: priority out of range");
  const int64_t depth = resolved_depth(req);  // validates the exit layer too

  // Speculative knobs resolve at submit so a bad ask throws here, not at a
  // decode tick: draft depth falls back to the engine default, then to the
  // deepest registered early exit; draft_k to the engine default.
  int64_t spec_depth = 0;
  int64_t spec_k = 0;
  if (req.exit_policy == ExitPolicy::kSpeculative) {
    check_arg(req.temperature <= 0.0f,
              "ServeEngine::submit: speculative decoding is greedy-only (temperature <= 0)");
    check_arg(req.draft_depth >= 0, "ServeEngine::submit: draft_depth must be >= 0");
    check_arg(req.draft_k >= 0, "ServeEngine::submit: draft_k must be >= 0");
    spec_depth = req.draft_depth > 0        ? req.draft_depth
                 : cfg_.speculative_depth > 0 ? cfg_.speculative_depth
                                              : ladder_.deep;
    check_arg(spec_depth > 0,
              "ServeEngine::submit: speculative decoding needs a registered early exit "
              "below the final layer to draft from");
    check_arg(spec_depth < mcfg.n_layers,
              "ServeEngine::submit: draft_depth must be below the final layer");
    (void)model_.exit_index(spec_depth);  // throws on unregistered depth
    spec_k = req.draft_k > 0 ? req.draft_k : cfg_.draft_k;
    check_arg(spec_k >= 1, "ServeEngine::submit: draft_k must be >= 1");
  }

  auto s = std::make_unique<SeqState>();
  s->req = std::move(req);
  s->sink = std::move(sink);  // before any resolve() path so rejects stream too
  s->policy = s->req.exit_policy;
  s->exit_layer = s->req.exit_layer;
  s->exit_layer_used = depth;
  s->spec_depth = spec_depth;
  s->spec_k = spec_k;
  s->rng = Rng(s->req.seed);
  s->submit_t = std::chrono::steady_clock::now();
  std::future<Completion> fut = s->promise.get_future();

  // A request whose worst-case cache exceeds the whole budget can never be
  // admitted; reject now instead of wedging the queue head forever. The
  // projection may only assume a depth the request is *guaranteed* to
  // reach: lowering it to the degrade-ladder floor is sound only when
  // degradation is configured AND admission force-degrades a head stuck
  // on the byte budget (degrade_budget_retries > 0, wired into the
  // scheduler). A merely-configured pressure threshold is not enough — a
  // floor-only request arriving under low pressure would be admitted,
  // never degraded, and retry at full depth forever.
  //
  // Speculative requests project at this same VERIFIED-length bound — not
  // prompt + max_new + draft_k. Drafted-but-unverified rows exist only
  // inside one tick (speculative_decode_step truncates them before the
  // barrier), and the loop clamps each round's verify width k to both the
  // tokens the request may still emit and the context window, so the
  // transient peak position + k never exceeds this projection. Reserving
  // at prompt + max_new + k would turn away requests that provably fit.
  const int64_t projected = std::min<int64_t>(
      static_cast<int64_t>(s->req.prompt.size()) + s->req.max_new_tokens, mcfg.max_seq);
  const bool can_degrade = degrade_configured(cfg_) && cfg_.degrade_budget_retries > 0;
  const int64_t rung_floor = ladder_.shallow > 0 ? ladder_.shallow : ladder_.deep;
  const int64_t floor_depth =
      can_degrade && rung_floor > 0 ? std::min(depth, rung_floor) : depth;
  const bool impossible =
      cfg_.kv_byte_budget > 0 &&
      sched_.pool().projected_bytes(projected, floor_depth) > cfg_.kv_byte_budget;

  std::lock_guard<std::mutex> lk(mu_);
  c_submitted_.add();
  if (!accepting_ || impossible) {
    c_rejected_.add();
    s->error = accepting_ ? "request cannot fit the kv byte budget"
                          : "engine is not accepting requests";
    resolve(*s, RequestStatus::kRejected);
    return fut;
  }

  // Overload policy: quota first, then pressure thresholds.
  AdmissionController::Decision d =
      admit_ctl_.on_submit(s->req.tenant, pressure_locked(), std::chrono::steady_clock::now());
  if (d.action == AdmissionController::Decision::kShed) {
    // Drop-lowest-priority sheds a strictly less important *queued* request
    // to make room instead of refusing the newcomer — but never for quota
    // sheds (a tenant over its own budget must not displace others).
    bool made_room = false;
    if (cfg_.admission.shed_policy == ShedPolicy::kDropLowestPriority &&
        d.reason.rfind("quota:", 0) != 0) {
      if (std::unique_ptr<SeqState> victim = sched_.evict_lower_priority(s->req.priority)) {
        c_shed_.add();
        victim->error = "shed: evicted by higher-priority arrival";
        resolve(*victim, RequestStatus::kShed);
        made_room = true;
      }
    }
    if (!made_room) {
      c_shed_.add();
      s->error = d.reason;
      resolve(*s, RequestStatus::kShed);
      return fut;
    }
  } else if (d.action == AdmissionController::Decision::kAdmitDegraded) {
    s->force_degrade = true;
  }

  if (!sched_.enqueue(s)) {
    // Queue full. Drop-lowest can still make room by evicting a strictly
    // less important queued request; otherwise classic rejection.
    std::unique_ptr<SeqState> victim;
    if (cfg_.admission.shed_policy == ShedPolicy::kDropLowestPriority) {
      victim = sched_.evict_lower_priority(s->req.priority);
    }
    if (victim == nullptr) {
      c_rejected_.add();
      s->error = "admission queue full";
      resolve(*s, RequestStatus::kRejected);
      return fut;
    }
    c_shed_.add();
    victim->error = "shed: evicted by higher-priority arrival";
    resolve(*victim, RequestStatus::kShed);
    const bool requeued = sched_.enqueue(s);
    check_arg(requeued, "ServeEngine::submit: enqueue after eviction failed");
  }
  cv_.notify_all();
  return fut;
}

bool ServeEngine::cancel(int64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  bool found = false;
  std::unique_ptr<SeqState> queued = sched_.cancel(id, &found);
  if (queued) {
    c_cancelled_.add();
    resolve(*queued, RequestStatus::kCancelled);
  }
  return found;
}

void ServeEngine::set_exit_weights(std::vector<float> weights, std::vector<float> calib_losses) {
  const size_t n = model_.exit_layers().size();
  check_arg(weights.size() == n && calib_losses.size() == n,
            "set_exit_weights: need one weight and loss per registered exit");
  std::lock_guard<std::mutex> lk(mu_);
  exit_weights_ = std::move(weights);
  exit_losses_ = std::move(calib_losses);
}

void ServeEngine::inject_worker_faults() const {
  if (cfg_.fault == nullptr) return;
  const double stall = cfg_.fault->stall_worker_ms();
  if (stall > 0.0) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(stall));
  if (cfg_.fault->kill_worker()) throw runtime::WorkerDeathError();
}

void ServeEngine::run_decode(std::vector<nn::BatchedSeq>& seqs,
                             std::vector<uint8_t>& chunk_failed,
                             std::vector<std::string>& chunk_errors) {
  const int64_t B = static_cast<int64_t>(seqs.size());
  // One chunk = one worker's contiguous sub-batch. Any exception (injected
  // worker death, or a genuine decode failure) fails the whole chunk: its
  // caches may be mid-append, so no sequence in it can be trusted to
  // continue. Exceptions must not escape into the WorkerPool (that would
  // std::terminate the process).
  auto decode_chunk = [&](int64_t lo, int64_t hi) {
    if (lo >= hi) return;
    try {
      inject_worker_faults();
      nn::batched_decode_step(
          model_, std::span<nn::BatchedSeq>(seqs.data() + lo, static_cast<size_t>(hi - lo)),
          &weight_cache_);
      if (cfg_.fault != nullptr) {
        for (int64_t i = lo; i < hi; ++i) {
          if (seqs[static_cast<size_t>(i)].logits.empty()) continue;
          if (!cfg_.fault->poison_logits()) continue;
          for (Tensor& t : seqs[static_cast<size_t>(i)].logits) {
            std::fill(t.raw(), t.raw() + t.numel(), std::numeric_limits<float>::quiet_NaN());
          }
        }
      }
    } catch (const std::exception& e) {
      for (int64_t i = lo; i < hi; ++i) {
        chunk_failed[static_cast<size_t>(i)] = 1;
        chunk_errors[static_cast<size_t>(i)] = std::string("decode failed: ") + e.what();
      }
    }
  };
  const int64_t n_chunks = workers_ ? std::min<int64_t>(cfg_.threads, B) : 1;
  if (n_chunks <= 1) {
    decode_chunk(0, B);
    return;
  }
  const int64_t chunk = (B + n_chunks - 1) / n_chunks;
  workers_->run(n_chunks, [&](int64_t c) {
    decode_chunk(c * chunk, std::min<int64_t>(c * chunk + chunk, B));
  });
}

void ServeEngine::run_speculative(std::vector<SpecJob>& jobs) {
  if (jobs.empty()) return;
  // One job = one sequence's draft-and-verify round; caches are disjoint,
  // so jobs shard 1:1 across workers. Same failure contract as run_decode:
  // exceptions (injected death or genuine decode failure) land in the job
  // record — never in the WorkerPool — and a failed job's cache is
  // untrusted, so its sequence retires kFailed at the barrier.
  auto run_one = [&](int64_t ji) {
    SpecJob& job = jobs[static_cast<size_t>(ji)];
    try {
      inject_worker_faults();
      const obs::ScopedSpan span(job.span_name);
      job.result = nn::speculative_decode_step(model_, *job.cache, job.position, job.token,
                                               job.depth, job.k, &weight_cache_);
      // Poisoned logits fail the round just as the regular path's poisoned
      // sample does: this tick's output is discarded and the sequence
      // retires kFailed.
      if (cfg_.fault != nullptr && cfg_.fault->poison_logits()) {
        job.failed = true;
        job.error = "decode produced non-finite logits";
      }
    } catch (const std::exception& e) {
      job.failed = true;
      job.error = std::string("decode failed: ") + e.what();
    }
  };
  const int64_t n = static_cast<int64_t>(jobs.size());
  if (workers_ && n > 1) {
    workers_->run(n, run_one);
  } else {
    for (int64_t i = 0; i < n; ++i) run_one(i);
  }
}

void ServeEngine::finish_seq(size_t index, RequestStatus status) {
  sched_.active()[index]->kv_bytes_at_end = sched_.active()[index]->kv->bytes();
  // Publishing to the prefix cache is what kv_paged turns on. Failed decodes
  // never publish: the failing chunk's appends may be torn mid-layer and
  // the contents are untrusted. Every other terminal retires at a tick
  // barrier with a consistent cache.
  std::unique_ptr<SeqState> s =
      sched_.finish(index, /*reuse=*/cfg_.kv_paged && status != RequestStatus::kFailed);
  switch (status) {
    case RequestStatus::kOk: c_completed_.add(); break;
    case RequestStatus::kCancelled: c_cancelled_.add(); break;
    case RequestStatus::kTimeout: c_timed_out_.add(); break;
    case RequestStatus::kFailed: c_failed_.add(); break;
    default: break;  // kRejected/kShed/kExpired never reach finish_seq
  }
  c_tokens_.add(static_cast<int64_t>(s->out.size()));
  const double wait_ms = ms_between(s->submit_t, s->admit_t);
  h_queue_wait_.observe(wait_ms);
  h_wait_class_[std::clamp<int64_t>(s->req.priority, 0, 2)]->observe(wait_ms);
  resolve(*s, status);
}

void ServeEngine::fail_all_pending_locked(const char* why) {
  sched_.for_each_pending([&](SeqState& s) {
    if (s.resolved) return;
    c_failed_.add();
    s.error = why;
    resolve(s, RequestStatus::kFailed);
  });
}

void ServeEngine::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  std::vector<nn::BatchedSeq> seqs;
  std::vector<uint8_t> chunk_failed;
  std::vector<std::string> chunk_errors;
  while (true) {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    if (failed_) {
      // The watchdog already resolved every pending promise; reclaim the
      // caches now that no decode is in flight and stop.
      sched_.clear_failed();
      return;
    }
    if (paused_ && !stop_) {
      parked_ = true;
      cv_.notify_all();  // pause() waits for parked_
      cv_.wait(lk, [&] { return !paused_ || stop_; });
      parked_ = false;
    }
    const auto admit_now = std::chrono::steady_clock::now();
    Scheduler::AdmitResult ar =
        sched_.admit(admit_ctl_.degrade_level(pressure_locked()), ladder_, admit_now);
    // Counters before promises: a client that observes a resolved future
    // must already see the matching counts in metrics().
    if (!ar.expired.empty()) c_expired_.add(static_cast<int64_t>(ar.expired.size()));
    if (!ar.shed.empty()) c_shed_.add(static_cast<int64_t>(ar.shed.size()));
    if (ar.degraded > 0) c_degraded_.add(ar.degraded);
    if (ar.retries > 0) c_retries_.add(ar.retries);
    for (auto& e : ar.expired) {
      e->error = "deadline expired while queued";
      resolve(*e, RequestStatus::kExpired);
    }
    for (auto& e : ar.shed) {
      resolve(*e, RequestStatus::kShed);  // error set by the scheduler
    }

    auto& active = sched_.active();
    if (active.empty()) {
      if (stop_ && sched_.idle()) return;
      if (sched_.queued() > 0) {
        // The head is cooling down after a transient KV rejection (or an
        // injected admission fault): sleep until its retry is due, then
        // rescan. Without faults or backoff this branch is unreachable —
        // an empty batch always admits the head.
        const auto retry_at = sched_.next_retry_time();
        if (retry_at != std::chrono::steady_clock::time_point{}) {
          cv_.wait_until(lk, retry_at);
        } else {
          cv_.wait_for(lk, std::chrono::microseconds(500));
        }
      } else {
        cv_.wait(lk);
      }
      continue;
    }
    const auto tick_t0 = std::chrono::steady_clock::now();
    const obs::ScopedSpan tick_span("serve/tick");

    // Build this tick's per-sequence jobs from the *effective* policy (the
    // ladder may have degraded it at admission). Prompt-done speculative
    // sequences run a draft-and-verify round instead of a one-token step;
    // everything else — including speculative sequences still feeding their
    // prompt, whose last prompt token must sample in the main batch exactly
    // like kFinal's — takes the regular step. A prefilling sequence feeds
    // up to prefill_chunk prompt rows in that step (chunked prefill).
    const size_t B = active.size();
    std::vector<SpecJob> spec_jobs;
    std::vector<size_t> slot_of(B, 0);  ///< index into seqs or spec_jobs
    std::vector<uint8_t> is_spec(B, 0);
    std::vector<size_t> normal_ix;
    for (size_t i = 0; i < B; ++i) {
      SeqState& s = *active[i];
      if (s.policy == ExitPolicy::kSpeculative && s.prompt_done()) {
        SpecJob job;
        job.index = i;
        job.cache = s.kv;
        job.position = s.position;
        job.token = s.last_token;
        job.depth = s.spec_depth;
        // Clamp the verify width to the tokens this request may still emit
        // and to the context window. Both bounds keep the round's transient
        // peak (position + k cached rows) within the verified-length
        // projection min(prompt + max_new, max_seq) that admission
        // reserved, so speculation needs no extra KV headroom. Both are
        // >= 1 here: a sequence at either limit retired last barrier.
        const int64_t remaining = s.req.max_new_tokens - static_cast<int64_t>(s.out.size());
        job.k = std::min({s.spec_k, remaining, model_.config().max_seq - s.position});
        job.span_name = spec_span_names_.at(s.spec_depth).c_str();
        slot_of[i] = spec_jobs.size();
        is_spec[i] = 1;
        spec_jobs.push_back(std::move(job));
      } else {
        slot_of[i] = normal_ix.size();
        normal_ix.push_back(i);
      }
    }
    seqs.assign(normal_ix.size(), nn::BatchedSeq{});
    chunk_failed.assign(normal_ix.size(), 0);
    chunk_errors.assign(normal_ix.size(), std::string());
    for (size_t p = 0; p < normal_ix.size(); ++p) {
      SeqState& s = *active[normal_ix[p]];
      nn::BatchedSeq& j = seqs[p];
      j.cache = s.kv;
      j.position = s.position;
      j.tokens = s.next_tokens(cfg_.prefill_chunk);
      // Logits are only needed when this tick's output will be sampled
      // from: a chunk ending on the last prompt token, or any generated one.
      j.want_logits = s.prompt_fed + j.tokens.size() >= s.req.prompt.size();
      j.all_exits = s.policy == ExitPolicy::kVoted;
      j.exit_layer = s.policy == ExitPolicy::kFixedEarly ? s.exit_layer : int64_t{0};
    }
    h_batch_.observe(static_cast<double>(B));
    obs::Tracer::global().counter("serve/batch_size", static_cast<int64_t>(B));

    lk.unlock();
    {
      const obs::ScopedSpan decode_span("serve/decode");
      run_decode(seqs, chunk_failed, chunk_errors);
      run_speculative(spec_jobs);
    }
    lk.lock();
    if (failed_) {
      sched_.clear_failed();
      return;
    }

    const auto now = std::chrono::steady_clock::now();
    // Retire / advance, iterating backwards so finish_seq's erase is safe.
    for (size_t i = B; i-- > 0;) {
      SeqState& s = *active[i];
      if (is_spec[i] != 0) {
        SpecJob& job = spec_jobs[slot_of[i]];
        if (job.failed) {
          // Position is not advanced: the cache state is unknown, and the
          // cache is being released anyway (reuse=false — see finish_seq).
          s.error = job.error;
          finish_seq(i, RequestStatus::kFailed);
          continue;
        }
        const nn::SpeculativeResult& r = job.result;
        s.spec_drafted += r.drafted;
        s.spec_accepted += r.accepted_drafts;
        c_spec_accepted_.add(r.accepted_drafts);
        c_spec_rejected_.add(r.drafted - r.accepted_drafts);
        if (r.drafted > 0) {
          h_spec_accepted_.observe(static_cast<double>(r.accepted_drafts));
          h_spec_rate_.observe(static_cast<double>(r.accepted_drafts) /
                               static_cast<double>(r.drafted));
        }
        if (r.tokens.empty()) {
          // Non-finite logits on the very first verified row: nothing
          // emitted; the step rewound the cache to `position`.
          s.error = "decode produced non-finite logits";
          finish_seq(i, RequestStatus::kFailed);
          continue;
        }
        if (!s.has_first_token) {
          s.first_token_t = now;
          s.has_first_token = true;
        }
        for (int64_t tok : r.tokens) {
          s.out.push_back(tok);
          if (s.sink.on_token) s.sink.on_token(s.req.id, tok);
        }
        s.last_token = r.tokens.back();
        s.position += static_cast<int64_t>(r.tokens.size());
        if (r.nonfinite) {
          // A later verified row went non-finite: the good prefix already
          // streamed, but the sequence cannot continue.
          s.error = "decode produced non-finite logits";
          finish_seq(i, RequestStatus::kFailed);
          continue;
        }
      } else {
        const size_t p = slot_of[i];
        if (chunk_failed[p] != 0) {
          // Position is not advanced: the cache state for this chunk is
          // unknown, and the cache is being released anyway.
          s.error = chunk_errors[p];
          finish_seq(i, RequestStatus::kFailed);
          continue;
        }
        const size_t fed = seqs[p].tokens.size();
        if (!s.prompt_done()) s.prompt_fed += fed;
        s.position += static_cast<int64_t>(fed);

        if (seqs[p].want_logits) {
          Tensor logits;
          if (s.policy == ExitPolicy::kVoted) {
            logits = core::combine_exit_logits(seqs[p].logits, exit_weights_, exit_losses_,
                                               cfg_.voting)
                         .reshape({model_.config().vocab});
          } else {
            logits = std::move(seqs[p].logits.at(0));
          }
          nn::GenerateConfig g;
          g.temperature = s.req.temperature;
          g.top_k = s.req.top_k;
          const int64_t tok = nn::sample_token(logits, g, s.rng);
          if (!std::isfinite(logits[tok])) {
            s.error = "decode produced non-finite logits";
            finish_seq(i, RequestStatus::kFailed);
            continue;
          }
          if (!s.has_first_token) {
            s.first_token_t = now;
            s.has_first_token = true;
          }
          s.out.push_back(tok);
          s.last_token = tok;
          if (s.sink.on_token) s.sink.on_token(s.req.id, tok);
        }
      }

      if (!s.cancelled && cfg_.fault != nullptr && cfg_.fault->disconnect_client()) {
        s.cancelled = true;
        s.error = "fault: client disconnected";
      }

      RequestStatus status = RequestStatus::kOk;
      bool done = false;
      if (s.cancelled) {
        status = RequestStatus::kCancelled;
        done = true;
      } else if (s.req.deadline_ms > 0.0 && ms_between(s.submit_t, now) > s.req.deadline_ms) {
        status = RequestStatus::kTimeout;
        s.error = "deadline exceeded mid-decode";
        done = true;
      } else if (static_cast<int64_t>(s.out.size()) >= s.req.max_new_tokens ||
                 s.position >= model_.config().max_seq) {
        done = true;  // finished, or context window exhausted (partial ok)
      }
      if (done) finish_seq(i, status);
    }
    const double tick_ms = ms_between(tick_t0, std::chrono::steady_clock::now());
    h_tick_ms_.observe(tick_ms);
    admit_ctl_.observe_tick(tick_ms);
  }
}

void ServeEngine::watchdog() {
  std::unique_lock<std::mutex> lk(mu_);
  const auto interval =
      std::chrono::milliseconds(std::max<int64_t>(cfg_.watchdog_stall_ms / 4, 1));
  uint64_t last_hb = heartbeat_.load();
  auto last_progress = std::chrono::steady_clock::now();
  while (!stop_) {
    cv_.wait_for(lk, interval);
    if (stop_ || failed_) return;
    const auto now = std::chrono::steady_clock::now();
    const uint64_t hb = heartbeat_.load();
    // A static heartbeat only matters when the loop has work it should be
    // advancing: paused/parked and fully-idle engines are quiescent by
    // design, not wedged.
    if (hb != last_hb || paused_ || parked_ || sched_.idle()) {
      last_hb = hb;
      last_progress = now;
      continue;
    }
    if (ms_between(last_progress, now) < static_cast<double>(cfg_.watchdog_stall_ms)) continue;
    // The loop is wedged (stalled decode): fail every pending request so
    // clients get a clean kFailed instead of a future that never resolves,
    // and stop admitting. Caches are reclaimed when (if) the decode returns.
    c_watchdog_.add();
    failed_ = true;
    accepting_ = false;
    fail_all_pending_locked("watchdog: scheduler stalled");
    cv_.notify_all();
    return;
  }
}

void ServeEngine::pause() {
  std::unique_lock<std::mutex> lk(mu_);
  if (paused_ || stop_) return;
  paused_ = true;
  cv_.notify_all();
  // Wait until the loop parks so callers observe a quiescent engine; a
  // decode tick already in flight finishes first.
  cv_.wait(lk, [&] { return parked_ || stop_ || failed_; });
}

void ServeEngine::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void ServeEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    accepting_ = false;
    stop_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  if (sched_thread_.joinable()) sched_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  workers_.reset();
}

EngineMetrics ServeEngine::metrics() const {
  // Instruments are atomic and the pool guards its own state, so no engine
  // lock is needed: this is safe to poll while the scheduler runs.
  EngineMetrics m;
  m.submitted = c_submitted_.value();
  m.completed = c_completed_.value();
  m.rejected = c_rejected_.value();
  m.cancelled = c_cancelled_.value();
  m.timed_out = c_timed_out_.value();
  m.shed = c_shed_.value();
  m.expired = c_expired_.value();
  m.failed = c_failed_.value();
  m.degraded = c_degraded_.value();
  m.admission_retries = c_retries_.value();
  m.watchdog_fired = c_watchdog_.value();
  m.tokens_generated = c_tokens_.value();
  m.ticks = h_batch_.count();
  m.occupancy_sum = h_batch_.sum();
  m.kv_high_water_bytes = sched_.pool().high_water_bytes();
  m.kv_budget_bytes = cfg_.kv_byte_budget;
  return m;
}

}  // namespace edgellm::serve

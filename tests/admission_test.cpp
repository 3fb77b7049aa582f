// Admission control and graceful degradation: token-bucket quotas and
// pressure thresholds in isolation (synthetic clocks, no engine), then the
// policies wired through ServeEngine — degrade-to-early-exit determinism,
// drop-lowest-priority eviction, and per-priority-class latency metrics.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "serve/engine.hpp"
#include "test_util.hpp"

namespace edgellm::serve {
namespace {

using edgellm::testing::tiny_config;
using Clock = std::chrono::steady_clock;

std::vector<int64_t> seq_tokens(int64_t n, int64_t vocab, int64_t salt = 0) {
  std::vector<int64_t> t(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) t[static_cast<size_t>(i)] = (i * 5 + 2 + salt) % vocab;
  return t;
}

Request greedy_request(int64_t id, std::vector<int64_t> prompt, int64_t n_new) {
  Request r;
  r.id = id;
  r.prompt = std::move(prompt);
  r.max_new_tokens = n_new;
  r.temperature = 0.0f;
  return r;
}

std::vector<int64_t> reference_greedy(nn::CausalLm& model, const std::vector<int64_t>& prompt,
                                      int64_t n_new, int64_t exit_layer = 0) {
  nn::IncrementalDecoder dec(model, exit_layer);
  nn::GenerateConfig g;
  g.max_new_tokens = n_new;
  g.temperature = 0.0f;
  g.exit_layer = exit_layer;
  Rng rng(0);
  return dec.generate(prompt, g, rng);
}

// --- AdmissionController units ----------------------------------------------

TEST(AdmissionController, InertByDefault) {
  AdmissionController ctl{AdmissionConfig{}};
  Pressure heavy;
  heavy.queue_ratio = 1.0;
  heavy.kv_ratio = 1.0;
  heavy.tick_ewma_ms = 1e6;
  // All thresholds default to 0 = disabled: even saturated pressure admits.
  const auto d = ctl.on_submit("anyone", heavy, Clock::now());
  EXPECT_EQ(d.action, AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.degrade_level(heavy), 0);
}

TEST(AdmissionController, TokenBucketEnforcesPerTenantQuota) {
  AdmissionConfig cfg;
  cfg.tenant_rate = 10.0;  // 10 req/s sustained
  cfg.tenant_burst = 2.0;
  AdmissionController ctl(cfg);
  const auto t0 = Clock::now();
  const Pressure calm;

  // Burst capacity: two immediate admits, then the bucket is empty.
  EXPECT_EQ(ctl.on_submit("a", calm, t0).action, AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.on_submit("a", calm, t0).action, AdmissionController::Decision::kAdmit);
  const auto d = ctl.on_submit("a", calm, t0);
  EXPECT_EQ(d.action, AdmissionController::Decision::kShed);
  EXPECT_NE(d.reason.find("quota"), std::string::npos);
  EXPECT_NE(d.reason.find("\"a\""), std::string::npos);

  // Tenants are isolated: "b" still has its full burst.
  EXPECT_EQ(ctl.on_submit("b", calm, t0).action, AdmissionController::Decision::kAdmit);

  // Refill at tenant_rate: 100ms buys exactly one more token for "a".
  const auto t1 = t0 + std::chrono::milliseconds(100);
  EXPECT_EQ(ctl.on_submit("a", calm, t1).action, AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.on_submit("a", calm, t1).action, AdmissionController::Decision::kShed);

  // Refill is capped at the burst, not unbounded.
  const auto t2 = t1 + std::chrono::hours(1);
  EXPECT_EQ(ctl.on_submit("a", calm, t2).action, AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.on_submit("a", calm, t2).action, AdmissionController::Decision::kAdmit);
  EXPECT_EQ(ctl.on_submit("a", calm, t2).action, AdmissionController::Decision::kShed);
}

TEST(AdmissionController, ThresholdsMapPressureToDegradeLevels) {
  AdmissionConfig cfg;
  cfg.degrade_queue_ratio = 0.5;
  cfg.shed_queue_ratio = 0.9;
  cfg.degrade_tick_ms = 10.0;
  cfg.shed_tick_ms = 50.0;
  AdmissionController ctl(cfg);

  Pressure p;
  EXPECT_EQ(ctl.degrade_level(p), 0);
  p.queue_ratio = 0.5;
  EXPECT_EQ(ctl.degrade_level(p), 1);  // at the degrade threshold
  p.queue_ratio = 0.95;
  EXPECT_EQ(ctl.degrade_level(p), 2);  // past the shed threshold
  p.queue_ratio = 0.0;
  p.tick_ewma_ms = 20.0;
  EXPECT_EQ(ctl.degrade_level(p), 1);  // any tripped signal is enough
  p.tick_ewma_ms = 60.0;
  EXPECT_EQ(ctl.degrade_level(p), 2);
  // KV signal left at 0 stays disabled even when the ratio is huge.
  p.tick_ewma_ms = 0.0;
  p.kv_ratio = 1.0;
  EXPECT_EQ(ctl.degrade_level(p), 0);
}

TEST(AdmissionController, ShedPolicySelectsActionUnderOverload) {
  Pressure hot;
  hot.queue_ratio = 1.0;
  for (ShedPolicy policy : {ShedPolicy::kRejectNew, ShedPolicy::kDropLowestPriority,
                            ShedPolicy::kDegradeEarlyExit}) {
    AdmissionConfig cfg;
    cfg.shed_policy = policy;
    cfg.shed_queue_ratio = 0.9;
    AdmissionController ctl(cfg);
    const auto d = ctl.on_submit("t", hot, Clock::now());
    if (policy == ShedPolicy::kDegradeEarlyExit) {
      EXPECT_EQ(d.action, AdmissionController::Decision::kAdmitDegraded);
    } else {
      // kRejectNew and kDropLowestPriority both *report* shed here; the
      // engine decides whether a lower-priority victim absorbs it.
      EXPECT_EQ(d.action, AdmissionController::Decision::kShed);
    }
    EXPECT_NE(d.reason.find("overload"), std::string::npos);
  }
}

TEST(AdmissionController, TickEwmaSmoothsObservations) {
  AdmissionConfig cfg;
  cfg.tick_ewma_alpha = 0.5;
  AdmissionController ctl(cfg);
  EXPECT_EQ(ctl.tick_ewma_ms(), 0.0);
  ctl.observe_tick(10.0);
  EXPECT_DOUBLE_EQ(ctl.tick_ewma_ms(), 10.0);  // first sample primes
  ctl.observe_tick(20.0);
  EXPECT_DOUBLE_EQ(ctl.tick_ewma_ms(), 15.0);
  ctl.observe_tick(15.0);
  EXPECT_DOUBLE_EQ(ctl.tick_ewma_ms(), 15.0);
}

TEST(AdmissionController, ValidatesConfig) {
  AdmissionConfig bad;
  bad.shed_queue_ratio = 1.5;
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  AdmissionConfig alpha;
  alpha.tick_ewma_alpha = 0.0;
  EXPECT_THROW(AdmissionController{alpha}, std::invalid_argument);
  AdmissionConfig burst;
  burst.tenant_rate = 1.0;
  burst.tenant_burst = 0.5;
  EXPECT_THROW(AdmissionController{burst}, std::invalid_argument);
}

// --- degradation through the engine -----------------------------------------

// The paper's own knob as a survival mechanism: under overload the engine
// downgrades full-depth requests to a registered early exit. The output
// must equal a fixed-early decode at the ladder depth — degraded mode is
// deterministic, not merely "approximate".
TEST(AdmissionEngine, DegradedRequestsAreDeterministicEarlyExitOutputs) {
  const nn::ModelConfig cfg = tiny_config();  // exits {1, 2, 3}: ladder deep=2 shallow=1
  const std::vector<int64_t> prompt = seq_tokens(4, cfg.vocab);

  // Staging recomputes the degrade level from live pressure: with
  // shed_queue_ratio 0.25 and capacity 8, one queued request (ratio 0.125)
  // is calm, two (ratio 0.25) trip the survival floor.
  auto run_once = [&](uint64_t model_seed) {
    Rng rng(model_seed);
    nn::CausalLm model(cfg, rng);
    EngineConfig ecfg;
    ecfg.threads = 1;
    ecfg.queue_capacity = 8;
    ecfg.admission.shed_policy = ShedPolicy::kDegradeEarlyExit;
    ecfg.admission.shed_queue_ratio = 0.25;
    ServeEngine engine(model, ecfg);
    const Completion calm = engine.submit(greedy_request(1, prompt, 5)).get();
    engine.pause();  // build queue pressure deterministically
    auto f2 = engine.submit(greedy_request(2, prompt, 5));
    auto f3 = engine.submit(greedy_request(3, prompt, 5));
    engine.resume();
    const Completion c2 = f2.get();
    const Completion c3 = f3.get();
    engine.shutdown();
    return std::make_tuple(calm, c2, c3);
  };

  const auto [calm, c2, c3] = run_once(91);
  EXPECT_EQ(calm.status, RequestStatus::kOk);
  EXPECT_EQ(c2.status, RequestStatus::kOk);
  EXPECT_EQ(c3.status, RequestStatus::kOk);
  EXPECT_FALSE(calm.degraded);
  EXPECT_TRUE(c2.degraded);
  EXPECT_TRUE(c3.degraded);
  // Shed-level pressure lands on the survival floor: the shallowest exit.
  EXPECT_EQ(c2.exit_layer_used, 1);
  EXPECT_EQ(c3.exit_layer_used, 1);

  Rng rng(91);
  nn::CausalLm model(cfg, rng);
  EXPECT_EQ(calm.tokens, reference_greedy(model, prompt, 5));
  // Degraded mode is deterministic, not "approximate": bitwise equal to a
  // fixed-early decode at the ladder depth.
  EXPECT_EQ(c2.tokens, reference_greedy(model, prompt, 5, /*exit_layer=*/1));
  EXPECT_EQ(c3.tokens, c2.tokens);

  // Same seed, same storm -> bitwise-identical outputs on a rerun.
  const auto [calm_b, c2_b, c3_b] = run_once(91);
  EXPECT_EQ(calm_b.tokens, calm.tokens);
  EXPECT_EQ(c2_b.tokens, c2.tokens);
  EXPECT_EQ(c3_b.tokens, c3.tokens);
  EXPECT_EQ(c2_b.degraded, c2.degraded);
}

// force_degrade (set when a kDegradeEarlyExit shed decision admits during a
// storm) must stick at staging even if the pressure has subsided by then —
// degradation never upgrades.
TEST(SchedulerDegrade, ForceDegradeAppliesAtStagingEvenWhenPressureSubsides) {
  SchedulerConfig cfg{/*max_batch=*/2, /*queue_capacity=*/4, /*max_seq=*/16, /*n_layers=*/3};
  KvPoolConfig pool;
  pool.kv_dim = 16;
  Scheduler sched(cfg, pool);
  const DegradeLadder ladder{/*deep=*/2, /*shallow=*/1};

  auto forced = std::make_unique<SeqState>();
  forced->req.prompt = {1, 2};
  forced->req.max_new_tokens = 2;
  forced->policy = ExitPolicy::kFinal;
  forced->exit_layer_used = 3;
  forced->force_degrade = true;
  auto normal = std::make_unique<SeqState>();
  normal->req.prompt = {1, 2};
  normal->req.max_new_tokens = 2;
  normal->policy = ExitPolicy::kVoted;
  normal->exit_layer_used = 3;
  ASSERT_TRUE(sched.enqueue(forced));
  ASSERT_TRUE(sched.enqueue(normal));

  // Pressure gone: global level 0. Only the marked request degrades, and
  // it lands on the survival floor.
  auto r = sched.admit(/*degrade_level=*/0, ladder, std::chrono::steady_clock::now());
  EXPECT_EQ(r.admitted, 2);
  EXPECT_EQ(r.degraded, 1);
  ASSERT_EQ(sched.active().size(), 2u);
  EXPECT_TRUE(sched.active()[0]->degraded);
  EXPECT_EQ(sched.active()[0]->policy, ExitPolicy::kFixedEarly);
  EXPECT_EQ(sched.active()[0]->exit_layer, 1);
  EXPECT_EQ(sched.active()[0]->exit_layer_used, 1);
  EXPECT_FALSE(sched.active()[1]->degraded);
  EXPECT_EQ(sched.active()[1]->policy, ExitPolicy::kVoted);
}

// Level 1 degrades to the *deepest* registered early exit (mild trade);
// fixed-early requests already at or below the rung are never touched, and
// nothing is ever upgraded.
TEST(SchedulerDegrade, LadderNeverUpgradesAndLevelOneUsesDeepExit) {
  SchedulerConfig cfg{/*max_batch=*/2, /*queue_capacity=*/4, /*max_seq=*/16, /*n_layers=*/3};
  KvPoolConfig pool;
  pool.kv_dim = 16;
  Scheduler sched(cfg, pool);
  const DegradeLadder ladder{/*deep=*/2, /*shallow=*/1};

  auto final_req = std::make_unique<SeqState>();
  final_req->req.prompt = {1};
  final_req->req.max_new_tokens = 1;
  final_req->policy = ExitPolicy::kFinal;
  final_req->exit_layer_used = 3;
  auto shallow_req = std::make_unique<SeqState>();
  shallow_req->req.prompt = {1};
  shallow_req->req.max_new_tokens = 1;
  shallow_req->policy = ExitPolicy::kFixedEarly;
  shallow_req->exit_layer = 1;
  shallow_req->exit_layer_used = 1;  // already below the level-1 rung
  ASSERT_TRUE(sched.enqueue(final_req));
  ASSERT_TRUE(sched.enqueue(shallow_req));

  auto r = sched.admit(/*degrade_level=*/1, ladder, std::chrono::steady_clock::now());
  EXPECT_EQ(r.admitted, 2);
  EXPECT_EQ(r.degraded, 1);
  EXPECT_EQ(sched.active()[0]->exit_layer_used, 2);  // final -> deep exit
  EXPECT_TRUE(sched.active()[0]->degraded);
  EXPECT_EQ(sched.active()[1]->exit_layer_used, 1);  // untouched
  EXPECT_FALSE(sched.active()[1]->degraded);
}

TEST(AdmissionEngine, QuotaShedsSurfaceStructuredReason) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(92);
  nn::CausalLm model(cfg, rng);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.admission.tenant_rate = 0.001;  // effectively one request per burst
  ecfg.admission.tenant_burst = 1.0;
  ServeEngine engine(model, ecfg);

  Request a = greedy_request(1, seq_tokens(2, cfg.vocab), 2);
  a.tenant = "acme";
  Request b = greedy_request(2, seq_tokens(2, cfg.vocab), 2);
  b.tenant = "acme";
  EXPECT_EQ(engine.submit(a).get().status, RequestStatus::kOk);
  const Completion shed = engine.submit(b).get();
  EXPECT_EQ(shed.status, RequestStatus::kShed);
  EXPECT_NE(shed.error.find("quota: tenant \"acme\""), std::string::npos) << shed.error;
  EXPECT_EQ(engine.metrics().shed, 1);
}

TEST(AdmissionEngine, DropLowestPriorityEvictsQueuedVictim) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(93);
  nn::CausalLm model(cfg, rng);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.max_batch = 1;
  ecfg.queue_capacity = 3;
  ecfg.admission.shed_policy = ShedPolicy::kDropLowestPriority;
  ServeEngine engine(model, ecfg);

  engine.pause();
  // Fill the queue: normal-, low- and normal-priority waiters.
  auto f_run = engine.submit(greedy_request(1, seq_tokens(3, cfg.vocab), 3));
  Request low = greedy_request(2, seq_tokens(3, cfg.vocab, 1), 3);
  low.priority = kPriorityLow;
  Request norm = greedy_request(3, seq_tokens(3, cfg.vocab, 2), 3);
  norm.priority = kPriorityNormal;
  auto f_low = engine.submit(low);
  auto f_norm = engine.submit(norm);

  // Queue full: a high-priority arrival evicts the *lowest*-priority
  // waiter (not the normal one, not itself).
  Request high = greedy_request(4, seq_tokens(3, cfg.vocab, 3), 3);
  high.priority = kPriorityHigh;
  auto f_high = engine.submit(high);
  const Completion evicted = f_low.get();
  EXPECT_EQ(evicted.status, RequestStatus::kShed);
  EXPECT_EQ(evicted.error, "shed: evicted by higher-priority arrival");

  // A second low submit while still full: nothing strictly below kLow
  // exists, so the newcomer itself is rejected (queue full).
  Request low2 = greedy_request(5, seq_tokens(3, cfg.vocab, 4), 3);
  low2.priority = kPriorityLow;
  EXPECT_EQ(engine.submit(low2).get().status, RequestStatus::kRejected);

  engine.resume();
  EXPECT_EQ(f_run.get().status, RequestStatus::kOk);
  EXPECT_EQ(f_norm.get().status, RequestStatus::kOk);
  EXPECT_EQ(f_high.get().status, RequestStatus::kOk);
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.shed, 1);
  EXPECT_EQ(m.rejected, 1);
  EXPECT_EQ(m.completed, 3);
}

TEST(AdmissionEngine, PerPriorityClassWaitHistogramsAreRecorded) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(94);
  nn::CausalLm model(cfg, rng);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ServeEngine engine(model, ecfg);

  Request hi = greedy_request(1, seq_tokens(2, cfg.vocab), 2);
  hi.priority = kPriorityHigh;
  Request lo = greedy_request(2, seq_tokens(2, cfg.vocab, 1), 2);
  lo.priority = kPriorityLow;
  EXPECT_EQ(engine.submit(hi).get().status, RequestStatus::kOk);
  EXPECT_EQ(engine.submit(lo).get().status, RequestStatus::kOk);
  EXPECT_EQ(engine.registry().histogram("serve/queue_wait_ms_p0").count(), 1);
  EXPECT_EQ(engine.registry().histogram("serve/queue_wait_ms_p1").count(), 0);
  EXPECT_EQ(engine.registry().histogram("serve/queue_wait_ms_p2").count(), 1);
  EXPECT_EQ(engine.registry().histogram("serve/queue_wait_ms").count(), 2);
}

TEST(AdmissionEngine, RejectsOutOfRangePriority) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(95);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, EngineConfig{});
  Request r = greedy_request(1, seq_tokens(2, cfg.vocab), 2);
  r.priority = 7;
  EXPECT_THROW(engine.submit(r), std::invalid_argument);
}

}  // namespace
}  // namespace edgellm::serve

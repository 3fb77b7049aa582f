// Seeded model-based checker for the serving scheduler over the paged KV
// pool. A small simulated engine plays the real one's part — submits,
// cancels, deadlines, injected KV-admission faults, torn worker deaths,
// chunked prefill and speculative draft/rewind rounds — on a virtual
// clock, and keeps a plain model of every request next to the real
// Scheduler/PagedKvPool. After every tick it asserts:
//   1. request conservation: every submitted id is queued, active or in
//      exactly one terminal bucket, and the counts match the scheduler's;
//   2. block ownership: PagedKvPool::audit() — each allocated block has one
//      owner, each trie node's refcount equals the live sequences pinning
//      it, and the cached/pinned/committed/allocated counters agree;
//   3. committed and allocated bytes stay within the byte budget.
// It also reads back every cached row of every active sequence and checks
// it against the rows that sequence's own token history would write, so
// prefix reuse and copy-on-write can never serve another sequence's rows.
// Runs with prefix publishing (the engine's kv_paged) off and on.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "serve/scheduler.hpp"

namespace edgellm::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int64_t kLayers = 3;
constexpr int64_t kKvDim = 8;
constexpr int64_t kBlockTokens = 4;
constexpr int64_t kMaxSeq = 24;
constexpr int64_t kMaxBatch = 4;
constexpr int64_t kVocab = 50;

/// Rolling hash of a token history: row content at position p depends on
/// every token up to and including p, as real K/V rows do.
uint64_t extend(uint64_t h, int64_t tok) {
  return (h ^ static_cast<uint64_t>(tok + 1)) * 0x100000001B3ull;
}

/// The K (v=false) or V row a sequence with prefix hash `h` writes at
/// `layer`: small integers, exact in fp32.
void expected_row(uint64_t h, int64_t layer, bool v, float* out) {
  for (int64_t d = 0; d < kKvDim; ++d) {
    const uint64_t x = h + static_cast<uint64_t>(layer * 7919 + d * 104729 + (v ? 31 : 0));
    out[d] = static_cast<float>(x % 100003);
  }
}

enum class Outcome { kQueued, kActive, kCompleted, kCancelled, kTimedOut, kExpired, kShed,
                     kFailed, kRejected };
constexpr Outcome kTerminals[] = {Outcome::kCompleted, Outcome::kCancelled, Outcome::kTimedOut,
                                  Outcome::kExpired,   Outcome::kShed,      Outcome::kFailed,
                                  Outcome::kRejected};

class EngineSim {
 public:
  EngineSim(uint64_t seed, bool publish, int64_t budget_blocks)
      : publish_(publish),
        fault_([&] {
          runtime::ServeFaultPlan plan;
          plan.kv_reject_prob = 0.25;
          plan.seed = seed;
          return plan;
        }()),
        sched_(SchedulerConfig{kMaxBatch, /*queue_capacity=*/6, kMaxSeq, kLayers,
                               /*max_admission_retries=*/4, /*retry_backoff_ms=*/0.5,
                               /*degrade_budget_retries=*/2, &fault_},
               KvPoolConfig{.kv_dim = kKvDim,
                            .block_tokens = kBlockTokens,
                            .byte_budget = budget_blocks * kBlockTokens *
                                           nn::KvCache::bytes_per_position(1, kKvDim, false),
                            .registry = &reg_}),
        rng_(seed),
        now_(Clock::now()) {
    for (int64_t i = 0; i < 3; ++i) {
      std::vector<int64_t> p;
      for (int64_t t = 0; t < 9; ++t) p.push_back(rng_.uniform_int(0, kVocab - 1));
      prefixes_.push_back(p);
    }
  }

  void run(int64_t ticks) {
    for (int64_t t = 0; t < ticks; ++t) {
      submit_some();
      tick();
      check(t);
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (!sched_.idle()) {  // drain: no more arrivals
      tick();
      check(ticks);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  int64_t count(Outcome o) const {
    int64_t n = 0;
    for (const auto& [id, out] : where_) n += out == o ? 1 : 0;
    return n;
  }
  obs::Registry& registry() { return reg_; }
  const PagedKvPool& pool() const { return sched_.pool(); }

 private:
  std::vector<int64_t> make_prompt() {
    std::vector<int64_t> p;
    if (rng_.bernoulli(0.6)) {  // shared prefix (some of it) + unique tail
      const auto& pre = prefixes_[static_cast<size_t>(rng_.uniform_int(0, 2))];
      p.assign(pre.begin(), pre.begin() + rng_.uniform_int(1, 9));
    }
    const int64_t tail = rng_.uniform_int(p.empty() ? 1 : 0, 3);
    for (int64_t i = 0; i < tail; ++i) p.push_back(rng_.uniform_int(0, kVocab - 1));
    return p;
  }

  void submit_some() {
    // Mostly a trickle the batch keeps up with, with bursts that fill the
    // admission queue.
    const int64_t n = rng_.uniform_int(0, 1) + (rng_.bernoulli(0.05) ? 6 : 0);
    for (int64_t i = 0; i < n; ++i) {
      auto s = std::make_unique<SeqState>();
      s->req.id = next_id_++;
      s->req.prompt = make_prompt();
      s->req.max_new_tokens = rng_.uniform_int(1, 10);
      s->req.priority = rng_.uniform_int(kPriorityHigh, kPriorityLow);
      if (rng_.bernoulli(0.2)) s->req.deadline_ms = static_cast<double>(rng_.uniform_int(2, 20));
      const int64_t depth = rng_.uniform_int(1, kLayers);
      s->policy = depth < kLayers ? ExitPolicy::kFixedEarly
                  : rng_.bernoulli(0.3) ? ExitPolicy::kSpeculative
                                        : ExitPolicy::kFinal;
      s->exit_layer = depth < kLayers ? depth : 0;
      s->exit_layer_used = depth;
      s->submit_t = now_;
      const int64_t id = s->req.id;
      where_[id] = sched_.enqueue(s) ? Outcome::kQueued : Outcome::kRejected;
    }
    if (next_id_ > 1 && rng_.bernoulli(0.1)) {
      bool found = false;
      const int64_t id = rng_.uniform_int(1, next_id_ - 1);
      if (sched_.cancel(id, &found) != nullptr) where_[id] = Outcome::kCancelled;
    }
  }

  /// Writes one position's rows (history hash `h`) to `layers` layers.
  void write_rows(PagedKvSeq& kv, uint64_t h, int64_t layers) {
    std::vector<float> k(kKvDim), v(kKvDim);
    for (int64_t l = 0; l < layers; ++l) {
      expected_row(h, l, false, k.data());
      expected_row(h, l, true, v.data());
      kv.append(l, k.data(), v.data());
    }
  }

  static uint64_t history_hash(const SeqState& s, int64_t n) {
    uint64_t h = 0xCBF29CE484222325ull;
    const size_t np = s.req.prompt.size();
    for (int64_t i = 0; i < n; ++i) {
      const size_t ui = static_cast<size_t>(i);
      h = extend(h, ui < np ? s.req.prompt[ui] : s.out[ui - np]);
    }
    return h;
  }

  /// One sequence's share of the tick. Returns false when its (simulated)
  /// worker died mid-append, leaving some layers a position ahead.
  bool step(SeqState& s) {
    const int64_t depth = s.exit_layer_used;
    const bool torn = rng_.bernoulli(0.02);
    uint64_t h = history_hash(s, s.position);
    if (s.policy == ExitPolicy::kSpeculative && s.prompt_done()) {
      // Draft-and-verify: cache last_token plus k-1 drafts, keep the
      // accepted ones, emit a correction, and rewind the rest.
      const int64_t remaining = s.req.max_new_tokens - static_cast<int64_t>(s.out.size());
      const int64_t k = std::min<int64_t>({rng_.uniform_int(1, 3), remaining,
                                           kMaxSeq - s.position});
      std::vector<int64_t> fed = {s.last_token};
      for (int64_t i = 1; i < k; ++i) fed.push_back(rng_.uniform_int(0, kVocab - 1));
      for (size_t i = 0; i < fed.size(); ++i) {
        h = extend(h, fed[i]);
        if (torn && i == 0) {
          write_rows(*s.kv, h, rng_.uniform_int(0, depth - 1));
          return false;
        }
        write_rows(*s.kv, h, depth);
      }
      const int64_t accepted = rng_.uniform_int(0, k - 1);
      s.kv->truncate(s.position + accepted + 1);
      for (int64_t i = 1; i <= accepted; ++i) s.out.push_back(fed[static_cast<size_t>(i)]);
      s.last_token = static_cast<int64_t>((h >> 7) % kVocab);
      s.out.push_back(s.last_token);
      s.position += accepted + 1;
      return true;
    }
    const std::span<const int64_t> fed = s.next_tokens(chunk_);
    const bool sample = s.prompt_fed + fed.size() >= s.req.prompt.size();
    for (size_t i = 0; i < fed.size(); ++i) {
      h = extend(h, fed[i]);
      if (torn && i == 0) {
        write_rows(*s.kv, h, rng_.uniform_int(0, depth - 1));
        return false;
      }
      write_rows(*s.kv, h, depth);
    }
    if (!s.prompt_done()) s.prompt_fed += fed.size();
    s.position += static_cast<int64_t>(fed.size());
    if (sample) {
      s.last_token = static_cast<int64_t>((h >> 11) % kVocab);
      s.out.push_back(s.last_token);
    }
    return true;
  }

  void tick() {
    chunk_ = rng_.uniform_int(1, 4);
    const int level = static_cast<int>(rng_.uniform_int(0, 4)) - 2;  // mostly 0
    Scheduler::AdmitResult ar = sched_.admit(std::max(level, 0), DegradeLadder{2, 1}, now_);
    for (auto& e : ar.expired) where_[e->req.id] = Outcome::kExpired;
    for (auto& e : ar.shed) where_[e->req.id] = Outcome::kShed;
    auto& active = sched_.active();
    for (auto& s : active) where_[s->req.id] = Outcome::kActive;
    std::vector<uint8_t> ok(active.size(), 1);
    for (size_t i = 0; i < active.size(); ++i) ok[i] = step(*active[i]) ? 1 : 0;
    now_ += std::chrono::milliseconds(1);
    for (size_t i = active.size(); i-- > 0;) {
      SeqState& s = *active[i];
      if (ok[i] == 0) {
        where_[s.req.id] = Outcome::kFailed;
        sched_.finish(i, /*reuse=*/false);
        continue;
      }
      Outcome done = Outcome::kActive;
      if (s.cancelled) {
        done = Outcome::kCancelled;
      } else if (s.req.deadline_ms > 0.0 &&
                 std::chrono::duration<double, std::milli>(now_ - s.submit_t).count() >
                     s.req.deadline_ms) {
        done = Outcome::kTimedOut;
      } else if (static_cast<int64_t>(s.out.size()) >= s.req.max_new_tokens ||
                 s.position >= kMaxSeq) {
        done = Outcome::kCompleted;
      }
      if (done == Outcome::kActive) continue;
      where_[s.req.id] = done;
      sched_.finish(i, /*reuse=*/publish_);
    }
    // Mid-decode cancels land at the next barrier, as in the engine.
    if (!active.empty() && rng_.bernoulli(0.05)) {
      const auto pick =
          static_cast<size_t>(rng_.uniform_int(0, static_cast<int64_t>(active.size()) - 1));
      bool found = false;
      (void)sched_.cancel(active[pick]->req.id, &found);
    }
  }

  void check(int64_t t) {
    const PagedKvPool& pool = sched_.pool();
    // 1. Request conservation.
    const int64_t queued = count(Outcome::kQueued);
    const int64_t active = count(Outcome::kActive);
    ASSERT_EQ(queued, static_cast<int64_t>(sched_.queued())) << "tick " << t;
    ASSERT_EQ(active, static_cast<int64_t>(sched_.active().size())) << "tick " << t;
    ASSERT_EQ(static_cast<int64_t>(where_.size()), next_id_ - 1) << "tick " << t;
    ASSERT_EQ(pool.seqs_in_use(), active) << "tick " << t;
    const int64_t acquired = reg_.counter("kv/acquired").value();
    ASSERT_EQ(acquired - reg_.counter("kv/released").value(), active) << "tick " << t;
    // 2. Block refcount = pins + trie ownership, and the counters agree.
    ASSERT_EQ(pool.audit(), "") << "tick " << t;
    if (!publish_) {
      ASSERT_EQ(pool.cached_blocks(), 0) << "tick " << t;
    }
    ASSERT_LE(pool.cached_blocks() * pool.block_bytes(),
              pool.max_cached_blocks() * pool.block_bytes() + pool.committed_bytes())
        << "tick " << t;
    // 3. Committed (and allocated) bytes within the budget.
    if (pool.byte_budget() > 0) {
      ASSERT_LE(pool.committed_bytes(), pool.byte_budget()) << "tick " << t;
      ASSERT_LE(pool.bytes_in_use(), pool.byte_budget()) << "tick " << t;
    }
    // Every cached row is the one this sequence's own history writes.
    std::vector<float> got(kKvDim), want(kKvDim);
    for (const auto& s : sched_.active()) {
      uint64_t h = 0xCBF29CE484222325ull;
      const size_t np = s->req.prompt.size();
      for (int64_t l = 0; l < s->exit_layer_used; ++l) {
        ASSERT_EQ(s->kv->positions(l), s->position) << "tick " << t << " id " << s->req.id;
      }
      for (int64_t p = 0; p < s->position; ++p) {
        const size_t up = static_cast<size_t>(p);
        h = extend(h, up < np ? s->req.prompt[up] : s->out[up - np]);
        for (int64_t l = 0; l < s->exit_layer_used; ++l) {
          for (const bool v : {false, true}) {
            if (v) {
              s->kv->load_v(l, p, got.data());
            } else {
              s->kv->load_k(l, p, got.data());
            }
            expected_row(h, l, v, want.data());
            ASSERT_EQ(got, want) << "tick " << t << " id " << s->req.id << " pos " << p
                                 << " layer " << l;
          }
        }
      }
    }
  }

  const bool publish_;
  obs::Registry reg_;
  runtime::ServeFaultInjector fault_;
  Scheduler sched_;
  Rng rng_;
  Clock::time_point now_;
  int64_t chunk_ = 1;
  int64_t next_id_ = 1;
  std::vector<std::vector<int64_t>> prefixes_;
  std::map<int64_t, Outcome> where_;
};

class KvModelCheck : public ::testing::TestWithParam<bool> {};

TEST_P(KvModelCheck, InvariantsHoldAfterEveryTick) {
  const bool publish = GetParam();
  std::map<Outcome, int64_t> terminals;
  for (const int64_t budget_blocks : {int64_t{0}, int64_t{24}}) {
    for (const uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE("budget_blocks " + std::to_string(budget_blocks) + " seed " +
                   std::to_string(seed));
      EngineSim d(seed, publish, budget_blocks);
      d.run(/*ticks=*/1000);
      if (HasFatalFailure()) return;
      // Drained: nothing live, nothing committed, only the trie holds blocks.
      EXPECT_EQ(d.pool().seqs_in_use(), 0);
      EXPECT_EQ(d.pool().committed_bytes(), 0);
      EXPECT_EQ(d.pool().allocated_blocks(), d.pool().cached_blocks());
      EXPECT_LE(d.pool().cached_blocks(), d.pool().max_cached_blocks());
      const int64_t hits = d.registry().counter("kv/prefix_hit").value();
      if (publish) {
        EXPECT_GT(hits, 0);
      } else {
        EXPECT_EQ(hits, 0);
      }
      for (const Outcome o : kTerminals) terminals[o] += d.count(o);
    }
  }
  // The seeds exercised every terminal path somewhere.
  for (const Outcome o : kTerminals) EXPECT_GT(terminals[o], 0) << static_cast<int>(o);
}

INSTANTIATE_TEST_SUITE_P(Publishing, KvModelCheck, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "on" : "off");
                         });

}  // namespace
}  // namespace edgellm::serve

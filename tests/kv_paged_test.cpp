// Paged KV pool: block-table row addressing must be bitwise identical to
// contiguous KvCache storage, prefix reuse must never leak another
// sequence's divergent rows (copy-on-write), eviction must conserve the
// block population under budget pressure, the prefix trie must stay under
// its cap without a budget, and the serving engine must produce
// byte-identical greedy output at any thread count with prefix reuse
// (kv_paged) off or on. Plus the KV-accounting regressions: allocation-time
// high-water marks and post-degrade admission projections.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>

#include "serve/engine.hpp"
#include "test_util.hpp"

namespace edgellm::serve {
namespace {

using edgellm::testing::engine_cfg;
using edgellm::testing::feed_positions;
using edgellm::testing::fill_row;
using edgellm::testing::greedy_request;
using edgellm::testing::iota_tokens;
using edgellm::testing::paged_cfg;
using edgellm::testing::paged_engine_cfg;
using edgellm::testing::reference_greedy;
using edgellm::testing::reference_voted;
using edgellm::testing::seq_tokens;
using edgellm::testing::serve_batch;
using edgellm::testing::tiny_config;

// --- pool mechanics ---------------------------------------------------------

TEST(PagedKvPool, BlockArithmeticAndColdAdmission) {
  obs::Registry reg;
  PagedKvPool pool(paged_cfg(4, 3, 16, /*budget=*/0, &reg));
  EXPECT_EQ(pool.block_bytes(), 4 * nn::KvCache::bytes_per_position(1, 16, false));
  // 10 positions -> 3 blocks per layer, 3 layers.
  EXPECT_EQ(pool.projected_bytes(10, 3), 9 * pool.block_bytes());

  auto r = pool.acquire(iota_tokens(6), /*projected=*/10, /*n_layers=*/3);
  ASSERT_NE(r.seq, nullptr);
  EXPECT_EQ(r.prefix_tokens, 0);  // empty cache: cold miss
  EXPECT_EQ(reg.counter("kv/prefix_miss").value(), 1);
  EXPECT_EQ(pool.committed_bytes(), 9 * pool.block_bytes());
  EXPECT_EQ(pool.bytes_in_use(), 0);  // blocks allocate lazily on append

  feed_positions(*r.seq, 6, 3);
  EXPECT_EQ(r.seq->positions(0), 6);
  EXPECT_EQ(r.seq->positions(2), 6);
  // 6 positions span 2 blocks per layer; all owned (cold admission).
  EXPECT_EQ(pool.allocated_blocks(), 6);
  EXPECT_EQ(r.seq->bytes(), 6 * pool.block_bytes());

  // Clean release donates the full blocks (4 tokens -> 1 per layer); the
  // 2-position tail is recycled.
  pool.release(r.seq, iota_tokens(6), /*reuse=*/true);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.seqs_in_use(), 0);
  EXPECT_EQ(pool.cached_blocks(), 3);
  EXPECT_EQ(pool.allocated_blocks(), 3);
  EXPECT_EQ(pool.free_blocks(), 3);
  EXPECT_EQ(pool.total_blocks(), 6);  // conservation: allocated + free
  EXPECT_EQ(pool.high_water_bytes(), 6 * pool.block_bytes());
}

TEST(PagedKvPool, FailedReleaseDonatesNothing) {
  PagedKvPool pool(paged_cfg(4, 2, 8, 0));
  auto r = pool.acquire(iota_tokens(8), 8, 2);
  ASSERT_NE(r.seq, nullptr);
  feed_positions(*r.seq, 8, 2);
  pool.release(r.seq, {}, /*reuse=*/false);  // torn rows: never cached
  EXPECT_EQ(pool.cached_blocks(), 0);
  EXPECT_EQ(pool.allocated_blocks(), 0);
  EXPECT_EQ(pool.free_blocks(), 4);
  EXPECT_EQ(pool.committed_bytes(), 0);
}

TEST(PagedKvPool, RowsMatchContiguousCacheBitwise) {
  for (const bool quantize : {false, true}) {
    PagedKvPool pool(paged_cfg(4, 2, 8, 0, nullptr, quantize));
    nn::KvCache ref(2, 8, quantize);
    auto r = pool.acquire(iota_tokens(3), 11, 2);
    ASSERT_NE(r.seq, nullptr);
    std::vector<float> k, v;
    for (int64_t pos = 0; pos < 11; ++pos) {
      fill_row(pos, 8, 17, k, v);
      for (int64_t l = 0; l < 2; ++l) {
        r.seq->append(l, k.data(), v.data());
        ref.append(l, k.data(), v.data());
      }
    }
    std::vector<float> a(8), b(8);
    std::vector<const float*> pk(11), pv(11), rk(11), rv(11);
    for (int64_t l = 0; l < 2; ++l) {
      r.seq->rows(l, 11, pk.data(), pv.data());
      ref.rows(l, 11, rk.data(), rv.data());
      for (int64_t pos = 0; pos < 11; ++pos) {
        r.seq->load_k(l, pos, a.data());
        ref.load_k(l, pos, b.data());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), 8 * sizeof(float)), 0)
            << "k layer " << l << " pos " << pos << " quantize " << quantize;
        r.seq->load_v(l, pos, a.data());
        ref.load_v(l, pos, b.data());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), 8 * sizeof(float)), 0)
            << "v layer " << l << " pos " << pos << " quantize " << quantize;
        const auto p = static_cast<size_t>(pos);
        if (!quantize) {
          ASSERT_NE(pk[p], nullptr);
          EXPECT_EQ(std::memcmp(pk[p], rk[p], 8 * sizeof(float)), 0);
          EXPECT_EQ(std::memcmp(pv[p], rv[p], 8 * sizeof(float)), 0);
        } else {
          EXPECT_EQ(pk[p], nullptr);
          EXPECT_EQ(pv[p], nullptr);
        }
      }
    }
    pool.release(r.seq, iota_tokens(11), true);
  }
}

TEST(PagedKvPool, PrefixReuseServesCachedBlocksUpToLastPromptToken) {
  obs::Registry reg;
  PagedKvPool pool(paged_cfg(4, 3, 16, 0, &reg));
  // First request: 10-token prompt, decoded 2 extra positions -> 12 cached
  // positions -> 3 full blocks per layer donated on release.
  auto a = pool.acquire(iota_tokens(10), 14, 3);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 12, 3);
  pool.release(a.seq, iota_tokens(12), true);
  ASSERT_EQ(pool.cached_blocks(), 9);

  // Identical prompt: reuse is capped at prompt-1 = 9 positions (2 full
  // blocks + 1 token into the third), never the last prompt token.
  auto b = pool.acquire(iota_tokens(10), 14, 3);
  ASSERT_NE(b.seq, nullptr);
  EXPECT_EQ(b.prefix_tokens, 9);
  EXPECT_EQ(b.seq->shared_len(), 9);
  EXPECT_EQ(b.seq->positions(0), 9);
  EXPECT_EQ(reg.counter("kv/prefix_hit").value(), 1);
  EXPECT_EQ(reg.counter("kv/prefix_hit_tokens").value(), 9);
  // The shared rows read back exactly what the first sequence wrote.
  std::vector<float> got(16), want_k, want_v;
  for (int64_t pos = 0; pos < 9; ++pos) {
    fill_row(pos, 16, 0, want_k, want_v);
    b.seq->load_k(1, pos, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want_k.data(), 16 * sizeof(float)), 0) << pos;
  }
  // Owned bytes exclude the shared prefix: the request's marginal cost
  // shrinks, which is the whole point of reuse.
  feed_positions(*b.seq, 1, 3, /*salt=*/0);
  EXPECT_LT(b.seq->bytes(), pool.projected_bytes(10, 3));
  pool.release(b.seq, iota_tokens(10), true);

  // A shallower (degraded) sequence may reuse deep cached nodes, but a
  // deeper sequence must not reuse blocks cached at lower depth.
  auto c = pool.acquire(iota_tokens(10), 14, 2);
  ASSERT_NE(c.seq, nullptr);
  EXPECT_EQ(c.prefix_tokens, 9);
  pool.release(c.seq, iota_tokens(9), true);
}

TEST(PagedKvPool, CowForkIsolatesDivergingSequence) {
  obs::Registry reg;
  const int64_t kvd = 8;
  PagedKvPool pool(paged_cfg(4, 1, kvd, 0, &reg));
  // Cache 3 full blocks of rows written by sequence A (salt 0).
  auto a = pool.acquire(iota_tokens(12), 14, 1);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 12, 1, /*salt=*/0);
  pool.release(a.seq, iota_tokens(12), true);

  // B shares 9 positions (2 full blocks + 1 into the third) then appends
  // its own rows (salt 99) from position 9.
  auto b = pool.acquire(iota_tokens(10), 14, 1);
  ASSERT_NE(b.seq, nullptr);
  ASSERT_EQ(b.prefix_tokens, 9);
  feed_positions(*b.seq, 3, 1, /*salt=*/99);
  EXPECT_EQ(b.seq->cow_forks(), 1);
  EXPECT_EQ(reg.counter("kv/cow_forks").value(), 1);

  std::vector<float> got(static_cast<size_t>(kvd)), want_k, want_v;
  // B reads the copied row at position 8 (A's content) and its own at 9+.
  b.seq->load_k(0, 8, got.data());
  fill_row(8, kvd, 0, want_k, want_v);
  EXPECT_EQ(std::memcmp(got.data(), want_k.data(), sizeof(float) * kvd), 0);
  b.seq->load_k(0, 9, got.data());
  fill_row(9, kvd, 99, want_k, want_v);
  EXPECT_EQ(std::memcmp(got.data(), want_k.data(), sizeof(float) * kvd), 0);

  // The cached prefix is untouched: a third request over A's full prompt
  // still reads A's rows at positions 8..11.
  auto c = pool.acquire(iota_tokens(13), 14, 1);
  ASSERT_NE(c.seq, nullptr);
  EXPECT_EQ(c.prefix_tokens, 12);
  for (int64_t pos = 8; pos < 12; ++pos) {
    c.seq->load_k(0, pos, got.data());
    fill_row(pos, kvd, 0, want_k, want_v);
    EXPECT_EQ(std::memcmp(got.data(), want_k.data(), sizeof(float) * kvd), 0) << pos;
  }
  // B decoded two divergent tokens past its prompt: its release donates
  // under a sibling token path and must not disturb A's node.
  std::vector<int64_t> b_tokens = iota_tokens(10);
  b_tokens.push_back(20);
  b_tokens.push_back(21);
  pool.release(b.seq, b_tokens, true);
  pool.release(c.seq, iota_tokens(12), true);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.allocated_blocks(), pool.cached_blocks());
}

// Review regression: a decode that died mid-tick can leave layers with
// unequal block counts (layer 0 appended past a boundary layer 1 never
// reached). reuse=false release must recycle every owned block without
// walking out of bounds or throwing on the torn state.
TEST(PagedKvPool, TornSequenceReleaseIsSafe) {
  PagedKvPool pool(paged_cfg(4, 2, 8, 0));
  auto r = pool.acquire(iota_tokens(6), 10, 2);
  ASSERT_NE(r.seq, nullptr);
  std::vector<float> k, v;
  fill_row(0, 8, 0, k, v);
  // Layer 0 fills 6 positions (2 blocks); layer 1 only 2 (1 block).
  for (int64_t i = 0; i < 6; ++i) r.seq->append(0, k.data(), v.data());
  for (int64_t i = 0; i < 2; ++i) r.seq->append(1, k.data(), v.data());
  ASSERT_EQ(pool.allocated_blocks(), 3);
  pool.release(r.seq, {}, /*reuse=*/false);
  EXPECT_EQ(pool.allocated_blocks(), 0);
  EXPECT_EQ(pool.cached_blocks(), 0);
  EXPECT_EQ(pool.free_blocks(), pool.total_blocks());
  EXPECT_EQ(pool.committed_bytes(), 0);
}

// The evictable-leaf index must evict in true LRU order: of two cached
// prefixes, the one touched by a later prefix hit survives pressure and
// the stale one goes.
TEST(PagedKvPool, EvictionPrefersLeastRecentlyUsedPrefix) {
  obs::Registry reg;
  const int64_t bb = 4 * nn::KvCache::bytes_per_position(1, 8, false);
  PagedKvPool pool(paged_cfg(4, 1, 8, /*budget=*/2 * bb, &reg));
  const auto prompt_a = iota_tokens(5);
  const auto prompt_b = seq_tokens(5, 24, 7);

  // Cache prefix A then prefix B (one full block each).
  for (const auto& prompt : {prompt_a, prompt_b}) {
    auto r = pool.acquire(prompt, 8, 1);
    ASSERT_NE(r.seq, nullptr);
    feed_positions(*r.seq, 4, 1);
    std::vector<int64_t> cached(prompt.begin(), prompt.begin() + 4);
    pool.release(r.seq, cached, true);
  }
  ASSERT_EQ(pool.cached_blocks(), 2);

  // Touch A via a prefix hit, making B the least recently used.
  auto touch = pool.acquire(prompt_a, 5, 1);
  ASSERT_NE(touch.seq, nullptr);
  ASSERT_EQ(touch.prefix_tokens, 4);
  pool.release(touch.seq, {}, false);

  // A cold sequence needs one block over budget: B must be evicted, A kept.
  auto cold = pool.acquire(seq_tokens(4, 24, 11), 4, 1);
  ASSERT_NE(cold.seq, nullptr);
  feed_positions(*cold.seq, 1, 1);
  EXPECT_EQ(reg.counter("kv/evicted_blocks").value(), 1);
  EXPECT_EQ(pool.cached_blocks(), 1);
  pool.release(cold.seq, {}, false);

  auto check_a = pool.acquire(prompt_a, 5, 1);
  ASSERT_NE(check_a.seq, nullptr);
  EXPECT_EQ(check_a.prefix_tokens, 4);  // A survived
  pool.release(check_a.seq, {}, false);
  auto check_b = pool.acquire(prompt_b, 5, 1);
  ASSERT_NE(check_b.seq, nullptr);
  EXPECT_EQ(check_b.prefix_tokens, 0);  // B was the LRU victim
  pool.release(check_b.seq, {}, false);
}

TEST(PagedKvPool, EvictionUnderPressureConservesBlocks) {
  obs::Registry reg;
  // Budget: exactly one worst-case sequence (8 positions -> 2 blocks/layer
  // x 3 layers).
  PagedKvPool pool(paged_cfg(4, 3, 16, 6 * 4 * nn::KvCache::bytes_per_position(1, 16, false),
                             &reg));
  auto a = pool.acquire(iota_tokens(8), 8, 3);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 7, 3);
  pool.release(a.seq, iota_tokens(7), true);
  ASSERT_EQ(pool.cached_blocks(), 3);  // 1 full block per layer

  // An unrelated sequence needs the whole budget: the cached prefix must
  // be evicted to make room, and the budget is never exceeded.
  auto b = pool.acquire(seq_tokens(8, 24, 7), 8, 3);
  ASSERT_NE(b.seq, nullptr);
  EXPECT_EQ(b.prefix_tokens, 0);
  feed_positions(*b.seq, 8, 3, /*salt=*/5);
  EXPECT_EQ(reg.counter("kv/evicted_blocks").value(), 3);
  EXPECT_EQ(pool.cached_blocks(), 0);
  EXPECT_LE(pool.bytes_in_use(), pool.byte_budget());
  EXPECT_EQ(pool.allocated_blocks() + pool.free_blocks(), pool.total_blocks());
  pool.release(b.seq, seq_tokens(8, 24, 7), true);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.allocated_blocks(), pool.cached_blocks());
}

TEST(PagedKvPool, PinnedPrefixCountsAgainstAdmission) {
  // One cached+pinned prefix plus a full-size reservation exactly fills
  // the budget: a third acquire must be rejected, not stranded mid-decode.
  const int64_t bb = 4 * nn::KvCache::bytes_per_position(1, 16, false);
  PagedKvPool pool(paged_cfg(4, 1, 16, 5 * bb));
  auto a = pool.acquire(iota_tokens(8), 8, 1);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 8, 1);
  pool.release(a.seq, iota_tokens(8), true);  // 2 cached blocks

  auto b = pool.acquire(iota_tokens(6), 8, 1);  // pins 1 full shared block
  ASSERT_NE(b.seq, nullptr);
  EXPECT_EQ(b.prefix_tokens, 5);
  // committed = pinned shared (2 blocks: the node holds both) + owned
  // reservation (2 - 1 fully shared = 1... projected 8 -> 2 blocks, 1
  // shared full -> 1 owned).
  EXPECT_EQ(pool.committed_bytes(), 2 * bb + 1 * bb);
  // Remaining budget: 5 - 3 = 2 blocks. A cold 3-block ask must bounce.
  auto c = pool.acquire(seq_tokens(9, 24, 3), 12, 1);
  EXPECT_EQ(c.seq, nullptr);
  EXPECT_EQ(c.reason, KvAdmitReason::kByteBudget);
  auto d = pool.acquire(seq_tokens(8, 24, 3), 8, 1);  // 2 blocks: fits
  ASSERT_NE(d.seq, nullptr);
  pool.release(d.seq, {}, false);
  pool.release(b.seq, {}, false);
  EXPECT_EQ(pool.committed_bytes(), 0);
}

// Review regression: the scheduler must only donate a finished sequence's
// rows to the prefix cache for trusted terminals. finish(reuse=false) —
// the engine's kFailed path — recycles everything instead.
TEST(PagedScheduler, FailedFinishRecyclesInsteadOfDonating) {
  SchedulerConfig scfg;
  scfg.max_batch = 2;
  scfg.queue_capacity = 4;
  scfg.max_seq = 16;
  scfg.n_layers = 2;
  KvPoolConfig pcfg;
  pcfg.kv_dim = 8;
  pcfg.block_tokens = 4;
  Scheduler sched(scfg, pcfg);

  auto run_one = [&](bool reuse) {
    auto s = std::make_unique<SeqState>();
    s->req.id = reuse ? 1 : 2;
    s->req.prompt = iota_tokens(8);
    s->req.max_new_tokens = 4;
    s->exit_layer_used = 2;
    ASSERT_TRUE(sched.enqueue(s));
    const auto r = sched.admit(0, DegradeLadder{}, std::chrono::steady_clock::now());
    ASSERT_EQ(r.admitted, 1);
    SeqState& a = *sched.active()[0];
    feed_positions(*a.kv, 8, 2);
    a.position = 8;
    a.prompt_fed = 8;
    auto done = sched.finish(0, reuse);
    ASSERT_NE(done, nullptr);
  };

  run_one(/*reuse=*/false);  // failed decode: rows untrusted
  EXPECT_EQ(sched.pool().cached_blocks(), 0);
  EXPECT_EQ(sched.pool().committed_bytes(), 0);

  run_one(/*reuse=*/true);  // clean completion donates (8 pos = 2 blocks x 2 layers)
  EXPECT_EQ(sched.pool().cached_blocks(), 4);
  EXPECT_EQ(sched.pool().committed_bytes(), 0);
}

// --- KV accounting regressions ----------------------------------------------

// A sequence that grows and dies entirely between two tick barriers must
// still be visible: the high-water mark advances at block allocation, with
// no barrier-time refresh, and survives the release.
TEST(PagedKvPoolAccounting, HighWaterSeenWithoutSync) {
  obs::Registry reg;
  PagedKvPool pool(paged_cfg(2, 1, 16, /*budget=*/0, &reg));
  auto r = pool.acquire({1}, 4, 1);
  ASSERT_NE(r.seq, nullptr);
  feed_positions(*r.seq, 3, 1);  // 3 positions = two 2-token blocks
  const int64_t live = 2 * pool.block_bytes();
  EXPECT_EQ(pool.bytes_in_use(), live);
  EXPECT_EQ(static_cast<int64_t>(reg.gauge("kv/bytes_in_use").value()), live);
  pool.release(r.seq, {}, /*reuse=*/false);
  EXPECT_EQ(pool.bytes_in_use(), 0);  // release drops the blocks at once
  EXPECT_EQ(pool.high_water_bytes(), live);  // mark survives the release
  EXPECT_EQ(static_cast<int64_t>(reg.gauge("kv/high_water_bytes").value()), live);
}

// Without a byte budget nothing evicts at allocation time, so publishing
// releases alone must bound the prefix trie: at most one full batch of
// full-context sequences (n_slots x ceil(max_seq / block_tokens) x
// n_layers blocks), LRU-evicted once the cap is reached.
TEST(PagedKvPool, PrefixTrieStaysUnderCapWithoutBudget) {
  obs::Registry reg;
  KvPoolConfig cfg = paged_cfg(8, 6, 64, /*budget=*/0, &reg);
  cfg.n_slots = 2;
  cfg.max_seq = 64;
  PagedKvPool pool(cfg);
  const int64_t cap = 2 * (64 / 8) * 6;
  ASSERT_EQ(pool.max_cached_blocks(), cap);
  for (int64_t i = 0; i < 1000; ++i) {
    // 56 unique positions: 7 full blocks per layer, nothing shared.
    std::vector<int64_t> toks(56);
    for (int64_t p = 0; p < 56; ++p) toks[static_cast<size_t>(p)] = i * 56 + p;
    auto r = pool.acquire(toks, 56, 6);
    ASSERT_NE(r.seq, nullptr);
    ASSERT_EQ(r.prefix_tokens, 0);
    feed_positions(*r.seq, 56, 6, i);
    pool.release(r.seq, toks, /*reuse=*/true);
    ASSERT_LE(pool.cached_blocks(), cap) << "release " << i;
    ASSERT_LE(pool.bytes_in_use(), cap * pool.block_bytes()) << "release " << i;
  }
  EXPECT_GT(reg.counter("kv/evicted_blocks").value(), 0);
  // The block population is bounded too: the trie's cap plus one live
  // sequence's blocks, never one allocation per release.
  EXPECT_LE(pool.total_blocks(), cap + 7 * 6);
  EXPECT_EQ(pool.audit(), "");
}

// --- engine over the paged pool ---------------------------------------------

// The determinism contract of the tentpole: greedy completions through the
// paged pool are byte-identical to single-sequence contiguous decode, at
// any worker-thread count and any (odd) block size.
TEST(PagedEngine, GreedyByteIdenticalToContiguousAtAnyThreadCount) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(40);
  nn::CausalLm model(cfg, rng);

  std::vector<std::vector<int64_t>> prompts;
  for (int64_t i = 0; i < 6; ++i) prompts.push_back(seq_tokens(3 + (i % 4), cfg.vocab, i * 3));
  std::vector<std::vector<int64_t>> want;
  for (const auto& p : prompts) want.push_back(reference_greedy(model, p, 6));

  for (const int64_t threads : {int64_t{1}, int64_t{2}, int64_t{8}}) {
    ServeEngine engine(model, paged_engine_cfg(threads, /*block_tokens=*/5));
    std::vector<std::future<Completion>> futs;
    for (size_t i = 0; i < prompts.size(); ++i) {
      futs.push_back(engine.submit(greedy_request(static_cast<int64_t>(i), prompts[i], 6)));
    }
    for (size_t i = 0; i < futs.size(); ++i) {
      const Completion c = futs[i].get();
      EXPECT_EQ(c.status, RequestStatus::kOk);
      EXPECT_EQ(c.tokens, want[i]) << "threads " << threads << " request " << i;
    }
  }
}

// Quantized and voted paths: engines with prefix reuse off and on must
// agree exactly (the reference decoder does not cover these engine
// configs). The "slot" name is the reuse-off engine.
TEST(PagedEngine, QuantizedAndVotedMatchSlotPool) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(41);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(5, cfg.vocab, 2);

  for (const bool quantize : {false, true}) {
    EngineConfig slot_cfg;
    slot_cfg.threads = 2;
    slot_cfg.quantize_kv = quantize;
    EngineConfig paged = paged_engine_cfg(2);
    paged.quantize_kv = quantize;

    // Each engine serves the prompt twice: with reuse on, the repeat reads
    // its prefix from the (possibly int8) blocks the first one published.
    Completion a, b, b_repeat;
    {
      ServeEngine engine(model, slot_cfg);
      a = engine.submit(greedy_request(1, prompt, 5, ExitPolicy::kVoted)).get();
      EXPECT_EQ(engine.submit(greedy_request(2, prompt, 5, ExitPolicy::kVoted)).get().tokens,
                a.tokens);
      EXPECT_EQ(engine.registry().counter("kv/prefix_hit").value(), 0);
    }
    {
      ServeEngine engine(model, paged);
      b = engine.submit(greedy_request(1, prompt, 5, ExitPolicy::kVoted)).get();
      b_repeat = engine.submit(greedy_request(2, prompt, 5, ExitPolicy::kVoted)).get();
      EXPECT_EQ(engine.registry().counter("kv/prefix_hit").value(), 1);
    }
    EXPECT_EQ(a.status, RequestStatus::kOk);
    EXPECT_EQ(b.status, RequestStatus::kOk);
    EXPECT_EQ(a.tokens, b.tokens) << "quantize " << quantize;
    EXPECT_EQ(a.tokens, b_repeat.tokens) << "quantize " << quantize;
  }
}

// Chunked prefill: a prefilling sequence feeds up to prefill_chunk prompt
// rows in the tick's one batched step, next to decoding sequences. Outputs
// must equal the reference decoder's in every cell — chunk size x exit
// policy x prefix reuse (kv_paged off = "slot", on = "paged") x worker
// threads — and the tick count must show the chunking: ceil(prompt /
// chunk) prefill ticks, the last of which samples.
struct PrefillCell {
  int64_t chunk;
  ExitPolicy policy;
  bool paged;
  int64_t threads;
};

// Names each cell in the ctest listing (e.g. chunk3_voted_paged_t2); the
// default printer would dump the struct's bytes, padding included.
void PrintTo(const PrefillCell& c, std::ostream* os) {
  *os << "chunk" << c.chunk << "_" << to_string(c.policy) << (c.paged ? "_paged" : "_slot")
      << "_t" << c.threads;
}

class ChunkedPrefillEngine : public ::testing::TestWithParam<PrefillCell> {};

TEST_P(ChunkedPrefillEngine, KeepsOutputsIdentical) {
  const PrefillCell cell = GetParam();
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(42);
  nn::CausalLm model(cfg, rng);
  const int64_t n_new = 5;
  const int64_t fixed_exit = 1;
  const std::vector<std::vector<int64_t>> prompts = {
      seq_tokens(8, cfg.vocab, 1), seq_tokens(3, cfg.vocab, 6), seq_tokens(11, cfg.vocab, 9)};

  EngineConfig ecfg = cell.paged ? paged_engine_cfg(cell.threads) : engine_cfg(cell.threads);
  ecfg.prefill_chunk = cell.chunk;
  ServeEngine engine(model, ecfg);
  std::vector<Request> reqs;
  for (size_t i = 0; i < prompts.size(); ++i) {
    reqs.push_back(greedy_request(static_cast<int64_t>(i), prompts[i], n_new, cell.policy,
                                  cell.policy == ExitPolicy::kFixedEarly ? fixed_exit : 0));
  }
  const std::vector<Completion> got = serve_batch(engine, std::move(reqs));
  int64_t want_ticks = 0;
  for (size_t i = 0; i < prompts.size(); ++i) {
    const std::vector<int64_t> want =
        cell.policy == ExitPolicy::kVoted ? reference_voted(model, prompts[i], n_new)
        : cell.policy == ExitPolicy::kFixedEarly
            ? reference_greedy(model, prompts[i], n_new, fixed_exit)
            : reference_greedy(model, prompts[i], n_new);  // speculative == final
    EXPECT_EQ(got[i].status, RequestStatus::kOk);
    EXPECT_EQ(got[i].tokens, want) << "request " << i;
    const int64_t p = static_cast<int64_t>(prompts[i].size());
    want_ticks = std::max(want_ticks, (p + cell.chunk - 1) / cell.chunk + n_new - 1);
  }
  engine.shutdown();
  // Speculative rounds emit a variable number of tokens per tick.
  if (cell.policy != ExitPolicy::kSpeculative) EXPECT_EQ(engine.metrics().ticks, want_ticks);
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(),
            engine.registry().counter("kv/released").value());
}

std::vector<PrefillCell> prefill_cells() {
  std::vector<PrefillCell> cells;
  for (const int64_t chunk : {1, 3, 16}) {  // 16 >= every prompt: one prefill tick
    for (const ExitPolicy policy : {ExitPolicy::kFinal, ExitPolicy::kFixedEarly,
                                    ExitPolicy::kVoted, ExitPolicy::kSpeculative}) {
      for (const bool paged : {false, true}) {
        for (const int64_t threads : {1, 2}) cells.push_back({chunk, policy, paged, threads});
      }
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(AllCells, ChunkedPrefillEngine, ::testing::ValuesIn(prefill_cells()));

// Cross-request reuse end to end: a repeated prompt hits the prefix cache,
// skips its prefill, and still produces byte-identical greedy output.
TEST(PagedEngine, RepeatedPromptHitsPrefixCacheWithIdenticalOutput) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(43);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(10, cfg.vocab, 4);
  const auto want = reference_greedy(model, prompt, 4);

  ServeEngine engine(model, paged_engine_cfg(1));
  const Completion first = engine.submit(greedy_request(1, prompt, 4)).get();
  EXPECT_EQ(first.tokens, want);
  EXPECT_EQ(engine.registry().counter("kv/prefix_hit").value(), 0);

  const Completion second = engine.submit(greedy_request(2, prompt, 4)).get();
  EXPECT_EQ(second.status, RequestStatus::kOk);
  EXPECT_EQ(second.tokens, want);
  EXPECT_EQ(engine.registry().counter("kv/prefix_hit").value(), 1);
  // Reuse cap: prompt-1 = 9 positions were served from cache (2 full
  // 4-token blocks + 1 into the third).
  EXPECT_EQ(engine.registry().counter("kv/prefix_hit_tokens").value(), 9);
  engine.shutdown();
  // Drain invariant: nothing committed, everything either cached or free.
  EXPECT_EQ(engine.registry().gauge("kv/committed_bytes").value(), 0);
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(),
            engine.registry().counter("kv/released").value());
}

// Satellite regression: a request that only fits the budget *after* the
// admission ladder degrades it must be queued and served degraded, not
// rejected up front on its full-depth projection.
TEST(PagedEngine, DegradedRequestAdmitsWhereFullDepthWouldBeRejected) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(44);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(4, cfg.vocab, 0);

  const int64_t per_pos_1 = nn::KvCache::bytes_per_position(1, cfg.kv_dim(), false);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.queue_capacity = 8;
  // Budget fits two depth-1 sequences of 8 positions (two 4-token blocks
  // each); a full-depth (3 layer) projection of the same request is 3x and
  // can never fit.
  ecfg.kv_block_tokens = 4;
  ecfg.kv_byte_budget = 2 * 8 * per_pos_1;
  ecfg.admission.shed_policy = ShedPolicy::kDegradeEarlyExit;
  ecfg.admission.shed_queue_ratio = 0.05;  // second queued request trips it
  ServeEngine engine(model, ecfg);
  ASSERT_GT(ecfg.kv_byte_budget, 0);

  engine.pause();
  // Filler occupies the queue so the victim submits under pressure and is
  // marked force-degrade; it asks for depth 1 outright so it always fits.
  auto filler = engine.submit(greedy_request(1, prompt, 4, ExitPolicy::kFixedEarly, 1));
  auto victim = engine.submit(greedy_request(2, prompt, 4));  // full-depth ask
  engine.resume();

  const Completion f = filler.get();
  EXPECT_EQ(f.status, RequestStatus::kOk);
  const Completion v = victim.get();
  EXPECT_EQ(v.status, RequestStatus::kOk) << v.error;
  EXPECT_TRUE(v.degraded);
  EXPECT_EQ(v.exit_layer_used, 1);
  EXPECT_EQ(v.tokens, reference_greedy(model, prompt, 4, /*exit_layer=*/1));
}

// Review regression (end to end): a request that fails mid-decode must not
// donate its rows to the prefix cache — poisoned logits fail the request
// after its whole prompt was appended, which the old reuse-always release
// would have cached for the next identical prompt.
TEST(PagedEngine, FailedDecodeDoesNotDonateToPrefixCache) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(45);
  nn::CausalLm model(cfg, rng);

  runtime::ServeFaultPlan plan;
  plan.poison_logits_prob = 1.0;
  runtime::ServeFaultInjector fault(plan);
  EngineConfig ecfg = paged_engine_cfg(1);
  ecfg.fault = &fault;
  ServeEngine engine(model, ecfg);

  const Completion c = engine.submit(greedy_request(1, seq_tokens(8, cfg.vocab, 2), 4)).get();
  EXPECT_EQ(c.status, RequestStatus::kFailed);
  engine.shutdown();
  EXPECT_EQ(engine.registry().gauge("kv/blocks_cached").value(), 0);
  EXPECT_EQ(engine.registry().gauge("kv/committed_bytes").value(), 0);
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(),
            engine.registry().counter("kv/released").value());
}

// Review regression: a request that only fits the budget at the ladder
// floor, arriving under LOW pressure (no threshold tripped at submit), is
// admitted on the floor-depth projection. Admission must then degrade the
// stuck head after degrade_budget_retries byte-budget rejections — with
// the old code it retried at full depth forever and wedged the queue.
TEST(PagedEngine, BudgetStuckHeadDegradesInsteadOfWedging) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(46);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(4, cfg.vocab, 0);
  const auto want = reference_greedy(model, prompt, 4, /*exit_layer=*/1);

  const int64_t per_pos_1 = nn::KvCache::bytes_per_position(1, cfg.kv_dim(), false);
  for (const bool paged : {false, true}) {
    EngineConfig ecfg;
    ecfg.threads = 1;
    ecfg.kv_paged = paged;
    ecfg.kv_block_tokens = 4;
    // 8 projected positions: fits at the depth-1 floor (8 blocks-worth),
    // never at the full 3-layer depth (24) — with prefix reuse off or on.
    ecfg.kv_byte_budget = 16 * per_pos_1;
    // A degrade mechanism is configured but its threshold never trips for
    // this lone request, so submit-time pressure cannot save it.
    ecfg.admission.degrade_queue_ratio = 0.95;
    ServeEngine engine(model, ecfg);

    const Completion c = engine.submit(greedy_request(1, prompt, 4)).get();
    EXPECT_EQ(c.status, RequestStatus::kOk) << "paged=" << paged << " " << c.error;
    EXPECT_TRUE(c.degraded) << "paged=" << paged;
    EXPECT_EQ(c.exit_layer_used, 1) << "paged=" << paged;
    EXPECT_EQ(c.tokens, want) << "paged=" << paged;
    EXPECT_EQ(engine.metrics().degraded, 1) << "paged=" << paged;
  }
}

}  // namespace
}  // namespace edgellm::serve

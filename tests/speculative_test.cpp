// Self-speculative decoding: an early-exit head drafts tokens that one
// stacked full-depth pass verifies, with rejected rows rewound out of the
// KV cache (KvSequenceView::truncate). The load-bearing contract, pinned
// differentially throughout: speculative greedy output is BYTE-IDENTICAL
// to non-speculative full-depth greedy decode — with prefix reuse off and
// on, any thread count, fp32 and int8 KV, any draft depth and verify width.
// Alongside: adversarial truncate tests for both cache types (mid-block,
// block boundary, across a COW fork, after a prefix-trie hit) and the
// engine-level regression that speculative requests reserve KV at the
// verified-length bound, not prompt + max_new + draft_k.
#include <gtest/gtest.h>

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
using edgellm::testing::seq_tokens;
using edgellm::testing::serve_batch;
using edgellm::testing::tiny_config;

int64_t argmax_of(const Tensor& t) {
  int64_t best = 0;
  for (int64_t i = 1; i < t.numel(); ++i) {
    if (t.raw()[i] > t.raw()[best]) best = i;
  }
  return best;
}

Request spec_request(int64_t id, std::vector<int64_t> prompt, int64_t n_new, int64_t depth,
                     int64_t k) {
  Request r = greedy_request(id, std::move(prompt), n_new, ExitPolicy::kSpeculative);
  r.draft_depth = depth;
  r.draft_k = k;
  return r;
}

/// Greedy reference with a quantized KV cache (the shared reference_greedy
/// is fp32-only).
std::vector<int64_t> reference_greedy_kv(nn::CausalLm& model, const std::vector<int64_t>& prompt,
                                         int64_t n_new, bool quantize_kv) {
  nn::IncrementalDecoder dec(model, /*exit_layer=*/0, quantize_kv);
  nn::GenerateConfig g;
  g.max_new_tokens = n_new;
  g.temperature = 0.0f;
  Rng rng(0);
  return dec.generate(prompt, g, rng);
}

// --- KvCache::truncate (contiguous) -----------------------------------------

TEST(KvTruncate, ContiguousDropsTailBitExactFp32AndInt8) {
  for (const bool quantize : {false, true}) {
    nn::KvCache a(2, 8, quantize);
    nn::KvCache b(2, 8, quantize);
    feed_positions(a, 10, 2);
    feed_positions(b, 6, 2);
    a.truncate(6);
    EXPECT_EQ(a.positions(0), 6);
    EXPECT_EQ(a.positions(1), 6);
    EXPECT_EQ(a.bytes(), b.bytes()) << "quantize=" << quantize;
    std::vector<float> ra(8), rb(8);
    for (int64_t l = 0; l < 2; ++l) {
      for (int64_t p = 0; p < 6; ++p) {
        a.load_k(l, p, ra.data());
        b.load_k(l, p, rb.data());
        EXPECT_EQ(std::memcmp(ra.data(), rb.data(), 8 * sizeof(float)), 0) << l << "/" << p;
        a.load_v(l, p, ra.data());
        b.load_v(l, p, rb.data());
        EXPECT_EQ(std::memcmp(ra.data(), rb.data(), 8 * sizeof(float)), 0) << l << "/" << p;
      }
    }
    // Appends after the rewind land at position 6 and stay bit-identical to
    // a cache that never speculated.
    feed_positions(a, 2, 2, /*salt=*/9);
    feed_positions(b, 2, 2, /*salt=*/9);
    for (int64_t p = 6; p < 8; ++p) {
      a.load_k(0, p, ra.data());
      b.load_k(0, p, rb.data());
      EXPECT_EQ(std::memcmp(ra.data(), rb.data(), 8 * sizeof(float)), 0) << p;
    }
    a.truncate(100);  // beyond the tail: no-op
    EXPECT_EQ(a.positions(0), 8);
    a.truncate(0);
    EXPECT_EQ(a.positions(0), 0);
    EXPECT_EQ(a.bytes(), 0);
    EXPECT_THROW(a.truncate(-1), std::invalid_argument);
  }
}

// --- PagedKvSeq::truncate (paged, adversarial) ------------------------------

TEST(PagedTruncate, MidBlockAndBlockBoundaryConserveBlocksAndBytes) {
  obs::Registry reg;
  PagedKvPool pool(paged_cfg(4, 2, 8, /*budget=*/0, &reg));
  auto r = pool.acquire(iota_tokens(10), /*projected=*/12, /*n_layers=*/2);
  ASSERT_NE(r.seq, nullptr);
  feed_positions(*r.seq, 10, 2);
  ASSERT_EQ(pool.allocated_blocks(), 6);  // ceil(10/4)=3 blocks x 2 layers
  EXPECT_EQ(reg.gauge("kv/blocks_in_use").value(), 6);

  // Mid-block rewind: 10 -> 6 keeps ceil(6/4)=2 blocks per layer and frees
  // the rest back to the pool.
  r.seq->truncate(6);
  EXPECT_EQ(r.seq->positions(0), 6);
  EXPECT_EQ(r.seq->positions(1), 6);
  EXPECT_EQ(pool.allocated_blocks(), 4);
  EXPECT_EQ(pool.free_blocks(), 2);
  EXPECT_EQ(pool.total_blocks(), 6);  // conservation: allocated + free
  EXPECT_EQ(reg.gauge("kv/blocks_in_use").value(), 4);
  EXPECT_EQ(r.seq->bytes(), 4 * pool.block_bytes());

  // Surviving rows are bit-identical to a contiguous cache fed identically.
  nn::KvCache ref(2, 8, false);
  feed_positions(ref, 6, 2);
  std::vector<float> got(8), want(8);
  for (int64_t l = 0; l < 2; ++l) {
    for (int64_t p = 0; p < 6; ++p) {
      r.seq->load_k(l, p, got.data());
      ref.load_k(l, p, want.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), 8 * sizeof(float)), 0) << l << "/" << p;
    }
  }

  // The partially-filled tail block accepts appends again without a fresh
  // allocation (positions 6 and 7 refill block 1).
  feed_positions(*r.seq, 2, 2, /*salt=*/9);
  EXPECT_EQ(r.seq->positions(0), 8);
  EXPECT_EQ(pool.allocated_blocks(), 4);

  // Exact block-boundary rewinds: 8 -> 8 is a no-op; 8 -> 4 frees exactly
  // one block per layer.
  r.seq->truncate(8);
  EXPECT_EQ(r.seq->positions(0), 8);
  EXPECT_EQ(pool.allocated_blocks(), 4);
  r.seq->truncate(4);
  EXPECT_EQ(r.seq->positions(0), 4);
  EXPECT_EQ(pool.allocated_blocks(), 2);
  EXPECT_EQ(pool.free_blocks(), 4);
  EXPECT_EQ(pool.total_blocks(), 6);

  // Release conserves the byte accounting (reservation was never touched by
  // the truncates) and donates the surviving full blocks.
  pool.release(r.seq, iota_tokens(4), /*reuse=*/true);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.seqs_in_use(), 0);
  EXPECT_EQ(pool.cached_blocks(), 2);
  EXPECT_EQ(pool.total_blocks(), 6);
  EXPECT_EQ(pool.allocated_blocks() + pool.free_blocks(), pool.total_blocks());
}

TEST(PagedTruncate, AcrossCowForkPointNeverScribblesOnTrieBlocks) {
  obs::Registry reg;
  PagedKvPool pool(paged_cfg(4, 1, 8, /*budget=*/0, &reg));
  // Seed the prefix trie: 8 positions -> 2 full donated blocks.
  auto a = pool.acquire(iota_tokens(8), 8, 1);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 8, 1, /*salt=*/0);
  pool.release(a.seq, iota_tokens(8), /*reuse=*/true);
  ASSERT_EQ(pool.cached_blocks(), 2);

  // B rides the cached prefix (shared blocks 0 and 1), then extends.
  auto b = pool.acquire(iota_tokens(12), 12, 1);
  ASSERT_NE(b.seq, nullptr);
  ASSERT_EQ(b.prefix_tokens, 8);
  ASSERT_EQ(b.seq->shared_len(), 8);
  feed_positions(*b.seq, 4, 1, /*salt=*/0);  // positions 8..11, owned block 2
  ASSERT_EQ(pool.allocated_blocks(), 3);

  // Truncate BELOW the shared prefix, across what will become a fork point:
  // the owned tail block is recycled, the shared column is dropped from the
  // table (the trie still owns it — cached count unchanged), and the pool
  // must remember that block 0 is still shared.
  b.seq->truncate(3);
  EXPECT_EQ(b.seq->positions(0), 3);
  EXPECT_EQ(pool.allocated_blocks(), 2);  // both cached; owned tail freed
  EXPECT_EQ(pool.cached_blocks(), 2);
  EXPECT_EQ(pool.free_blocks(), 1);

  // Re-appending inside the shared region must COW-fork, not write in place
  // into the trie's block.
  feed_positions(*b.seq, 5, 1, /*salt=*/99);  // positions 3..7
  EXPECT_EQ(b.seq->cow_forks(), 1);
  EXPECT_EQ(pool.cached_blocks(), 2);  // trie population untouched
  pool.release(b.seq, {}, /*reuse=*/false);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.allocated_blocks(), 2);  // only the trie's blocks remain live
  EXPECT_EQ(pool.allocated_blocks() + pool.free_blocks(), pool.total_blocks());

  // The cached prefix still serves the ORIGINAL rows: a new reader's prefix
  // hit must see salt-0 content, not B's post-truncate salt-99 rows.
  auto c = pool.acquire(iota_tokens(8), 8, 1);
  ASSERT_NE(c.seq, nullptr);
  ASSERT_GT(c.prefix_tokens, 0);
  nn::KvCache ref(1, 8, false);
  feed_positions(ref, 8, 1, /*salt=*/0);
  std::vector<float> got(8), want(8);
  for (int64_t p = 0; p < c.prefix_tokens; ++p) {
    c.seq->load_k(0, p, got.data());
    ref.load_k(0, p, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), 8 * sizeof(float)), 0) << p;
    c.seq->load_v(0, p, got.data());
    ref.load_v(0, p, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), 8 * sizeof(float)), 0) << p;
  }
  pool.release(c.seq, {}, /*reuse=*/false);
  EXPECT_EQ(pool.committed_bytes(), 0);
}

TEST(PagedTruncate, AfterPrefixTrieHitKeepsPinsAndRefcountsConserved) {
  obs::Registry reg;
  PagedKvPool pool(paged_cfg(4, 2, 8, /*budget=*/0, &reg));
  auto a = pool.acquire(iota_tokens(8), 8, 2);
  feed_positions(*a.seq, 8, 2);
  pool.release(a.seq, iota_tokens(8), /*reuse=*/true);
  ASSERT_EQ(pool.cached_blocks(), 4);  // 2 blocks x 2 layers

  // Fresh hit, then an immediate rewind below the shared length — before
  // any append. Shared columns drop out of the table but the trie's blocks
  // (and this sequence's pins on them) are untouched.
  auto b = pool.acquire(iota_tokens(12), 12, 2);
  ASSERT_EQ(b.prefix_tokens, 8);
  b.seq->truncate(2);
  EXPECT_EQ(b.seq->positions(0), 2);
  EXPECT_EQ(b.seq->positions(1), 2);
  EXPECT_EQ(pool.cached_blocks(), 4);
  EXPECT_EQ(pool.allocated_blocks(), 4);
  // Pinned prefix blocks still count against committed bytes until release.
  EXPECT_GT(pool.committed_bytes(), 0);

  // Release unpins cleanly even though the table no longer references the
  // shared columns: refcounts came from the pin list, not the table.
  pool.release(b.seq, {}, /*reuse=*/false);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.seqs_in_use(), 0);
  EXPECT_EQ(pool.cached_blocks(), 4);
  EXPECT_EQ(pool.allocated_blocks() + pool.free_blocks(), pool.total_blocks());

  // The trie is still fully usable: another full-prefix hit succeeds.
  auto c = pool.acquire(iota_tokens(12), 12, 2);
  EXPECT_EQ(c.prefix_tokens, 8);
  pool.release(c.seq, {}, /*reuse=*/false);
  EXPECT_EQ(reg.counter("kv/acquired").value(), reg.counter("kv/released").value());
}

// --- nn::speculative_decode_step --------------------------------------------

TEST(SpeculativeDecode, MatchesSequentialGreedyAtEveryDepthAndK) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(40);
  nn::CausalLm model(cfg, rng);
  model.set_eval();
  for (const bool quantize : {false, true}) {
    for (const int64_t depth : {1, 2}) {
      for (const int64_t k : {1, 2, 4, 8}) {
        const auto prompt = seq_tokens(5, cfg.vocab, depth * 10 + k);
        const int64_t n_new = 8;
        const auto want = reference_greedy_kv(model, prompt, n_new, quantize);

        nn::KvCache cache(cfg.n_layers, cfg.kv_dim(), quantize);
        Tensor logits;
        for (size_t i = 0; i < prompt.size(); ++i) {
          logits = nn::decode_step(model, cache, static_cast<int64_t>(i), prompt[i], 0);
        }
        std::vector<int64_t> out;
        out.push_back(argmax_of(logits));
        while (static_cast<int64_t>(out.size()) < n_new) {
          const int64_t position =
              static_cast<int64_t>(prompt.size()) + static_cast<int64_t>(out.size()) - 1;
          const int64_t k_eff = std::min<int64_t>(
              {k, n_new - static_cast<int64_t>(out.size()), cfg.max_seq - position});
          ASSERT_GE(k_eff, 1);
          const nn::SpeculativeResult r =
              nn::speculative_decode_step(model, cache, position, out.back(), depth, k_eff);
          ASSERT_FALSE(r.nonfinite);
          ASSERT_GE(static_cast<int64_t>(r.tokens.size()), 1);
          ASSERT_LE(static_cast<int64_t>(r.tokens.size()), k_eff);
          EXPECT_EQ(r.drafted, k_eff - 1);
          EXPECT_LE(r.accepted_drafts, r.drafted);
          EXPECT_EQ(static_cast<int64_t>(r.tokens.size()), r.accepted_drafts + 1);
          out.insert(out.end(), r.tokens.begin(), r.tokens.end());
          // Post-state contract: the last emitted token is not yet fed.
          EXPECT_EQ(cache.positions(0), position + static_cast<int64_t>(r.tokens.size()));
        }
        EXPECT_EQ(out, want) << "quantize=" << quantize << " depth=" << depth << " k=" << k;
      }
    }
  }
}

TEST(SpeculativeDecode, ValidatesArguments) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(7);
  nn::CausalLm model(cfg, rng);
  model.set_eval();
  nn::KvCache cache(cfg.n_layers, cfg.kv_dim(), false);
  EXPECT_THROW(nn::speculative_decode_step(model, cache, 0, 1, /*draft_depth=*/1, /*k=*/0),
               std::invalid_argument);
  EXPECT_THROW(nn::speculative_decode_step(model, cache, 0, 1, /*draft_depth=*/5, 2),
               std::invalid_argument);  // unregistered exit
  EXPECT_THROW(nn::speculative_decode_step(model, cache, 1, 1, 1, 2),
               std::invalid_argument);  // position != cached rows
  EXPECT_THROW(nn::speculative_decode_step(model, cache, 0, 1, 1, cfg.max_seq + 1),
               std::invalid_argument);  // would overrun the context window
}

// --- engine end to end: the differential sweep ------------------------------

TEST(SpeculativeEngine, GreedyByteIdenticalAcrossPoolsThreadsKvAndKnobs) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(40);
  nn::CausalLm model(cfg, rng);

  // Sweep cells: draft depth {shallow, deep} x k {1, 4, 8}, plus a prompt
  // shorter than k and max_tokens hit mid-draft.
  struct Cell {
    std::vector<int64_t> prompt;
    int64_t n_new;
    int64_t depth;
    int64_t k;
  };
  std::vector<Cell> cells;
  int64_t salt = 0;
  for (const int64_t depth : {1, 2}) {
    for (const int64_t k : {1, 4, 8}) {
      cells.push_back({seq_tokens(4 + salt % 3, cfg.vocab, salt), 6, depth, k});
      ++salt;
    }
  }
  cells.push_back({seq_tokens(2, cfg.vocab, 17), 8, 2, 8});  // prompt shorter than k
  cells.push_back({seq_tokens(5, cfg.vocab, 23), 3, 1, 8});  // max_tokens mid-draft

  for (const bool paged : {false, true}) {
    for (const int64_t threads : {1, 2, 8}) {
      for (const bool quantize : {false, true}) {
        EngineConfig ecfg = paged ? paged_engine_cfg(threads, /*block_tokens=*/5)
                                  : engine_cfg(threads);
        ecfg.quantize_kv = quantize;
        ServeEngine engine(model, ecfg);
        // One speculative and one plain full-depth request per cell, same
        // prompt: the pair must produce byte-identical token streams.
        std::vector<Request> reqs;
        for (size_t c = 0; c < cells.size(); ++c) {
          reqs.push_back(spec_request(static_cast<int64_t>(2 * c), cells[c].prompt,
                                      cells[c].n_new, cells[c].depth, cells[c].k));
          reqs.push_back(greedy_request(static_cast<int64_t>(2 * c + 1), cells[c].prompt,
                                        cells[c].n_new));
        }
        const auto done = serve_batch(engine, std::move(reqs));
        for (size_t c = 0; c < cells.size(); ++c) {
          const Completion& spec = done[2 * c];
          const Completion& full = done[2 * c + 1];
          ASSERT_EQ(spec.status, RequestStatus::kOk)
              << "paged=" << paged << " threads=" << threads << " quantize=" << quantize
              << " cell=" << c << " err=" << spec.error;
          ASSERT_EQ(full.status, RequestStatus::kOk);
          EXPECT_EQ(spec.tokens, full.tokens)
              << "paged=" << paged << " threads=" << threads << " quantize=" << quantize
              << " depth=" << cells[c].depth << " k=" << cells[c].k;
          if (!quantize) {
            EXPECT_EQ(spec.tokens, reference_greedy(model, cells[c].prompt, cells[c].n_new));
          }
          EXPECT_EQ(spec.metrics.output_tokens, cells[c].n_new);
          if (cells[c].k > 1) {
            EXPECT_GT(spec.metrics.spec_drafted, 0);
          }
          EXPECT_GE(spec.metrics.spec_drafted, spec.metrics.spec_accepted);
          EXPECT_EQ(full.metrics.spec_drafted, 0);
        }
        const EngineMetrics m = engine.metrics();
        EXPECT_EQ(m.submitted, m.completed);  // conservation: nothing lost
      }
    }
  }
}

TEST(SpeculativeEngine, SubmitValidatesSpeculativeRequests) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(4);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1));
  // Greedy-only determinism contract.
  Request sampled = spec_request(1, seq_tokens(4, cfg.vocab), 4, 2, 4);
  sampled.temperature = 0.5f;
  EXPECT_THROW(engine.submit(std::move(sampled)), std::invalid_argument);
  // Draft depth must be a registered exit strictly below the final layer.
  EXPECT_THROW(engine.submit(spec_request(2, seq_tokens(4, cfg.vocab), 4, cfg.n_layers, 4)),
               std::invalid_argument);
  EXPECT_THROW(engine.submit(spec_request(3, seq_tokens(4, cfg.vocab), 4, 5, 4)),
               std::invalid_argument);
  EXPECT_THROW(engine.submit(spec_request(4, seq_tokens(4, cfg.vocab), 4, -1, 4)),
               std::invalid_argument);
  EXPECT_THROW(engine.submit(spec_request(5, seq_tokens(4, cfg.vocab), 4, 2, -1)),
               std::invalid_argument);
  // Defaults resolve: depth 0 -> deepest registered early exit, k 0 -> the
  // engine default; the request decodes byte-identically to full depth.
  auto fut = engine.submit(spec_request(6, seq_tokens(4, cfg.vocab), 5, 0, 0));
  const Completion c = fut.get();
  ASSERT_EQ(c.status, RequestStatus::kOk);
  EXPECT_EQ(c.tokens, reference_greedy(model, seq_tokens(4, cfg.vocab), 5));
}

TEST(SpeculativeEngine, RequiresARegisteredEarlyExit) {
  nn::ModelConfig cfg = tiny_config();
  cfg.exit_layers = {cfg.n_layers};  // final exit only: nothing to draft from
  Rng rng(4);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1));
  EXPECT_THROW(engine.submit(spec_request(1, seq_tokens(4, cfg.vocab), 4, 0, 4)),
               std::invalid_argument);
}

// Satellite regression: speculative requests must reserve KV at the
// verified-length bound min(prompt + max_new, max_seq) — NOT at
// prompt + max_new + draft_k. A budget sized exactly for the verified
// bound admits the request; a draft-inflated projection would reject it.
TEST(SpeculativeEngine, ProjectionAdmitsRequestThatOnlyFitsAtVerifiedBound) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(40);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(4, cfg.vocab);
  const int64_t n_new = 6;
  const int64_t projected = static_cast<int64_t>(prompt.size()) + n_new;  // 10 < max_seq
  ASSERT_LT(projected, cfg.max_seq);
  const int64_t bpp = nn::KvCache::bytes_per_position(cfg.n_layers, cfg.kv_dim(), false);

  for (const bool paged : {false, true}) {
    EngineConfig ecfg = paged ? paged_engine_cfg(1) : engine_cfg(1);
    ecfg.kv_block_tokens = 1;  // position-exact reservations
    // Exactly the verified bound. With draft_k = 8, a projection of
    // prompt + max_new + k (14 positions, 16 clamped to max_seq) would
    // exceed this budget and reject the request outright.
    ecfg.kv_byte_budget = projected * bpp;
    ServeEngine engine(model, ecfg);
    auto fut = engine.submit(spec_request(1, prompt, n_new, 2, /*k=*/8));
    const Completion c = fut.get();
    ASSERT_EQ(c.status, RequestStatus::kOk) << "paged=" << paged << " err=" << c.error;
    EXPECT_EQ(c.tokens, reference_greedy(model, prompt, n_new)) << "paged=" << paged;
    EXPECT_GT(c.metrics.spec_drafted, 0);
  }
}

TEST(SpeculativeEngine, MetricsCountersAndHistogramsExported) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(40);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1));
  const Completion c = engine.submit(spec_request(1, seq_tokens(4, cfg.vocab), 8, 2, 4)).get();
  ASSERT_EQ(c.status, RequestStatus::kOk);
  ASSERT_GT(c.metrics.spec_drafted, 0);
  EXPECT_GE(c.metrics.spec_drafted, c.metrics.spec_accepted);

  const obs::MetricsSnapshot snap = engine.registry().snapshot();
  // Per-engine counters reconcile exactly with the per-request metrics
  // (this engine served exactly one request).
  EXPECT_EQ(snap.counter("spec/accepted_tokens"), c.metrics.spec_accepted);
  EXPECT_EQ(snap.counter("spec/accepted_tokens") + snap.counter("spec/rejected_tokens"),
            c.metrics.spec_drafted);
  const obs::HistogramSnapshot* rounds = snap.histogram("spec/accepted_per_round");
  ASSERT_NE(rounds, nullptr);
  EXPECT_GT(rounds->count, 0);
  const obs::HistogramSnapshot* rate = snap.histogram("spec/acceptance_rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_GT(rate->count, 0);
  // Rate samples live in [0, 1]: nothing may land in the overflow bucket.
  EXPECT_EQ(rate->counts.back(), 0);
}

// --- wire format ------------------------------------------------------------

TEST(SpeculativeRequestJson, ParsesPolicyAndKnobs) {
  const Request r = parse_request_json(
      "{\"id\": 9, \"prompt\": [1,2,3], \"exit\": \"speculative\", "
      "\"draft_depth\": 2, \"draft_k\": 4}");
  EXPECT_EQ(r.id, 9);
  EXPECT_EQ(r.exit_policy, ExitPolicy::kSpeculative);
  EXPECT_EQ(r.draft_depth, 2);
  EXPECT_EQ(r.draft_k, 4);
  EXPECT_STREQ(to_string(ExitPolicy::kSpeculative), "speculative");
  EXPECT_THROW(parse_request_json("{\"prompt\": [1], \"draft_depth\": -1}"),
               std::invalid_argument);
  EXPECT_THROW(parse_request_json("{\"prompt\": [1], \"draft_k\": -2}"),
               std::invalid_argument);
  // The unknown-string error must advertise the new policy.
  try {
    parse_request_json("{\"prompt\": [1], \"exit\": \"bogus\"}");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("speculative"), std::string::npos);
  }
}

TEST(SpeculativeRequestJson, CompletionCarriesSpecMetrics) {
  Completion c;
  c.id = 3;
  c.tokens = {1, 2};
  c.metrics.spec_drafted = 10;
  c.metrics.spec_accepted = 7;
  const std::string line = completion_to_json(c);
  EXPECT_NE(line.find("\"spec_drafted\": 10"), std::string::npos) << line;
  EXPECT_NE(line.find("\"spec_accepted\": 7"), std::string::npos) << line;
  // Non-speculative completions stay wire-compatible: no spec fields.
  Completion plain;
  plain.id = 4;
  EXPECT_EQ(completion_to_json(plain).find("spec_drafted"), std::string::npos);
}

}  // namespace
}  // namespace edgellm::serve

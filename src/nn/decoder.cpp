#include "nn/decoder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "obs/trace.hpp"
#include "quant/packed.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace edgellm::nn {

namespace {

// Gathers `rows` of `src` ([B, width]) into a compact [rows.size(), width].
Tensor gather_rows(const Tensor& src, const std::vector<int64_t>& rows, int64_t width) {
  Tensor out({static_cast<int64_t>(rows.size()), width});
  for (size_t j = 0; j < rows.size(); ++j) {
    std::memcpy(out.raw() + static_cast<int64_t>(j) * width, src.raw() + rows[j] * width,
                static_cast<size_t>(width) * sizeof(float));
  }
  return out;
}

void scatter_rows(const Tensor& src, const std::vector<int64_t>& rows, Tensor& dst,
                  int64_t width) {
  for (size_t j = 0; j < rows.size(); ++j) {
    std::memcpy(dst.raw() + rows[j] * width, src.raw() + static_cast<int64_t>(j) * width,
                static_cast<size_t>(width) * sizeof(float));
  }
}

// Causal attention for one sequence's new token: `q` is this token's query
// row [d_model]; keys/values come from the cache (t cached positions
// including this token's). Writes the merged heads into `ctx` [d_model].
void attend_one(const ModelConfig& cfg, const KvSequenceView& cache, int64_t layer, int64_t t,
                const float* q, float* ctx, std::vector<float>& row,
                std::vector<float>& scores) {
  const int64_t n_heads = cfg.n_heads;
  const int64_t dh = cfg.d_model / n_heads;
  const int64_t group = n_heads / cfg.kv_heads();
  const float alpha = 1.0f / std::sqrt(static_cast<float>(dh));

  const bool qz = cache.quantized();
  row.resize(static_cast<size_t>(cache.kv_dim()));
  scores.resize(static_cast<size_t>(n_heads * t));  // fully overwritten below
  // Pass 1: scores — each cached K row is dequantised once (or, for fp32
  // caches, read in place) and shared by all query heads (GQA groups map
  // onto the same KV head).
  for (int64_t p = 0; p < t; ++p) {
    const float* kr;
    if (qz) {
      cache.load_k(layer, p, row.data());
      kr = row.data();
    } else {
      kr = cache.k_row(layer, p);
    }
    for (int64_t head = 0; head < n_heads; ++head) {
      const int64_t off = head * dh;
      const int64_t kv_off = (head / group) * dh;
      float s = 0.0f;
      for (int64_t d = 0; d < dh; ++d) s += q[off + d] * kr[kv_off + d];
      scores[static_cast<size_t>(head * t + p)] = s * alpha;
    }
  }
  // Per-head softmax over cached positions.
  for (int64_t head = 0; head < n_heads; ++head) {
    float* s = scores.data() + head * t;
    float mx = -1e30f;
    for (int64_t p = 0; p < t; ++p) mx = std::max(mx, s[p]);
    float denom = 0.0f;
    for (int64_t p = 0; p < t; ++p) {
      s[p] = std::exp(s[p] - mx);
      denom += s[p];
    }
    const float inv = 1.0f / denom;
    for (int64_t p = 0; p < t; ++p) s[p] *= inv;
  }
  // Pass 2: weighted V accumulation, again one row per position.
  for (int64_t p = 0; p < t; ++p) {
    const float* vr;
    if (qz) {
      cache.load_v(layer, p, row.data());
      vr = row.data();
    } else {
      vr = cache.v_row(layer, p);
    }
    for (int64_t head = 0; head < n_heads; ++head) {
      const int64_t off = head * dh;
      const int64_t kv_off = (head / group) * dh;
      const float w = scores[static_cast<size_t>(head * t + p)];
      for (int64_t d = 0; d < dh; ++d) ctx[off + d] += w * vr[kv_off + d];
    }
  }
}

// Linear::forward against a cached effective weight: the same kernels in
// the same order (matmul_nt then add_bias), so outputs are bitwise
// identical. Falls back to lin.forward when the cache has no entry for this
// layer (no cache supplied, or a LoRA-enabled Linear).
Tensor cached_linear(Linear& lin, const Tensor& x, const DecodeWeightCache* wc) {
  const quant::PackedMatrix* pw = wc != nullptr ? wc->find_packed(&lin) : nullptr;
  const Tensor* w = wc != nullptr ? wc->find(&lin) : nullptr;
  if (pw == nullptr && w == nullptr) return lin.forward(x);
  const int64_t in = lin.in_features();
  check_arg(x.dim(-1) == in, "cached_linear: input feature mismatch");
  const int64_t rows = x.numel() / in;
  // reshape() copies; decode activations are already [rows, in], so skip it.
  Tensor y = pw != nullptr
                 ? (x.ndim() == 2 ? quant::packed_matmul_nt(x, *pw)
                                  : quant::packed_matmul_nt(x.reshape({rows, in}), *pw))
                 : (x.ndim() == 2 ? ops::matmul_nt(x, *w)
                                  : ops::matmul_nt(x.reshape({rows, in}), *w));
  if (lin.has_bias()) y = ops::add_bias(y, lin.bias().value);
  if (x.ndim() == 2) return y;
  Shape out_shape = x.shape();
  out_shape.back() = lin.out_features();
  return y.reshape(std::move(out_shape));
}

// Mlp::forward's eval path with cached weights (see cached_linear).
Tensor cached_mlp(Mlp& mlp, const Tensor& x, const DecodeWeightCache* wc) {
  if (wc == nullptr) return mlp.forward(x);
  if (mlp.kind() == MlpKind::kGelu) {
    return cached_linear(mlp.fc2(), ops::gelu(cached_linear(mlp.fc1(), x, wc)), wc);
  }
  const Tensor g = cached_linear(mlp.fc1(), x, wc);
  const Tensor u = cached_linear(mlp.fc3(), x, wc);
  return cached_linear(mlp.fc2(), ops::swiglu(g, u), wc);
}

}  // namespace

void DecodeWeightCache::build(CausalLm& model, bool pack_compressed) {
  weights_.clear();
  packed_.clear();
  const auto snapshot = [&](Linear* lin) {
    if (lin->lora_enabled()) return;
    if (weights_.count(lin) != 0 || packed_.count(lin) != 0) return;  // tied heads dedup
    if (pack_compressed && lin->packable()) {
      packed_.emplace(lin, lin->packed_weight());
    } else {
      weights_.emplace(lin, lin->effective_weight());
    }
  };
  for (TransformerBlock* b : model.blocks()) {
    for (Linear* lin : b->linears()) snapshot(lin);
  }
  const int64_t n_exits = static_cast<int64_t>(model.exit_layers().size());
  for (int64_t e = 0; e < n_exits; ++e) snapshot(&model.exit_head(e));
}

const Tensor* DecodeWeightCache::find(const Linear* lin) const {
  const auto it = weights_.find(lin);
  return it == weights_.end() ? nullptr : &it->second;
}

const quant::PackedMatrix* DecodeWeightCache::find_packed(const Linear* lin) const {
  const auto it = packed_.find(lin);
  return it == packed_.end() ? nullptr : &it->second;
}

int64_t DecodeWeightCache::bytes() const {
  int64_t total = 0;
  for (const auto& [lin, w] : weights_) total += tensor_bytes(w);
  for (const auto& [lin, p] : packed_) total += p.storage_bytes();
  return total;
}

void validate_generate_config(const GenerateConfig& cfg, const CausalLm& model) {
  check_arg(cfg.max_new_tokens > 0, "GenerateConfig: max_new_tokens must be positive, got " +
                                        std::to_string(cfg.max_new_tokens));
  check_arg(cfg.top_k >= 0 && cfg.top_k <= model.config().vocab,
            "GenerateConfig: top_k must be in [0, vocab=" +
                std::to_string(model.config().vocab) + "], got " + std::to_string(cfg.top_k));
  check_arg(std::isfinite(cfg.temperature), "GenerateConfig: temperature must be finite");
  check_arg(cfg.n_threads >= 0, "GenerateConfig: n_threads must be >= 0 (0 = global setting)");
  if (cfg.exit_layer != 0) (void)model.exit_index(cfg.exit_layer);  // throws if unregistered
}

void batched_decode_step(CausalLm& model, std::span<BatchedSeq> seqs,
                         const DecodeWeightCache* weights) {
  if (seqs.empty()) return;
  const obs::ScopedSpan span("decode/step");
  const ModelConfig& cfg = model.config();
  const int64_t c = cfg.d_model;
  const int64_t kvd = cfg.kv_dim();
  const int64_t B = static_cast<int64_t>(seqs.size());

  check_arg(!model.token_embedding().grad_enabled(),
            "batched_decode_step: call model.set_eval() first");

  std::vector<int64_t> depth(static_cast<size_t>(B));
  std::vector<int64_t> tokens(static_cast<size_t>(B));
  int64_t max_depth = 0;
  for (int64_t b = 0; b < B; ++b) {
    BatchedSeq& s = seqs[static_cast<size_t>(b)];
    check_arg(s.cache != nullptr, "batched_decode_step: null cache");
    const int64_t d = s.all_exits || s.exit_layer == 0 ? cfg.n_layers : s.exit_layer;
    (void)model.exit_index(d);  // validates the exit is registered
    check_arg(s.cache->n_layers() >= d, "batched_decode_step: cache has too few layers");
    check_arg(s.cache->kv_dim() == kvd, "batched_decode_step: cache kv_dim mismatch");
    check_arg(s.position < cfg.max_seq, "batched_decode_step: context window exhausted");
    check_arg(s.position == s.cache->positions(0),
              "batched_decode_step: position does not match cache");
    check_arg(s.token >= 0 && s.token < cfg.vocab, "batched_decode_step: token out of range");
    depth[static_cast<size_t>(b)] = d;
    max_depth = std::max(max_depth, d);
    tokens[static_cast<size_t>(b)] = s.token;
    s.logits.clear();
  }

  // Embed the whole batch in one call, then add each row's own position.
  Tensor x = model.token_embedding().forward(tokens);  // [B, c]
  const Param& pos = model.positional_embedding();
  for (int64_t b = 0; b < B; ++b) {
    const int64_t p = seqs[static_cast<size_t>(b)].position;
    for (int64_t d = 0; d < c; ++d) x[b * c + d] += pos.value[p * c + d];
  }

  auto blocks = model.blocks();
  for (int64_t li = 0; li < max_depth; ++li) {
    // Rows whose exit depth still needs this layer.
    std::vector<int64_t> alive;
    for (int64_t b = 0; b < B; ++b) {
      if (depth[static_cast<size_t>(b)] > li) alive.push_back(b);
    }
    TransformerBlock& block = *blocks[static_cast<size_t>(li)];
    MultiHeadAttention& attn = block.attention();

    // All alive rows share one pass through the layer's norms/projections:
    // the effective-weight materialisation and tensor allocations are paid
    // once for the batch instead of once per sequence. When every row is
    // alive (uniform exit depths — the common case) the layer operates on
    // `x` directly instead of paying a gather/scatter round trip.
    const bool all_alive = static_cast<int64_t>(alive.size()) == B;
    Tensor xa = all_alive ? std::move(x) : gather_rows(x, alive, c);
    const Tensor h = block.norm1().forward(xa);
    const Tensor q = cached_linear(attn.q_proj(), h, weights);  // [Ba, c]
    const Tensor k = cached_linear(attn.k_proj(), h, weights);  // [Ba, kvd]
    const Tensor v = cached_linear(attn.v_proj(), h, weights);

    // Per-sequence attention parallelises across the batch: every row owns
    // its own cache and its own ctx row, and each sequence's computation is
    // independent of the others, so any partition is bitwise identical to
    // the serial loop. Scratch is per-chunk (attend_one reuses it across a
    // chunk's sequences but never shares it between threads).
    const int64_t n_alive = static_cast<int64_t>(alive.size());
    Tensor ctx({n_alive, c});
    parallel::parallel_for(0, n_alive, 1, [&](int64_t lo, int64_t hi) {
      std::vector<float> row_scratch, score_scratch;
      for (int64_t j = lo; j < hi; ++j) {
        BatchedSeq& s = seqs[static_cast<size_t>(alive[static_cast<size_t>(j)])];
        s.cache->append(li, k.raw() + j * kvd, v.raw() + j * kvd);
        attend_one(cfg, *s.cache, li, s.position + 1, q.raw() + j * c, ctx.raw() + j * c,
                   row_scratch, score_scratch);
      }
    });
    const Tensor attn_out = cached_linear(attn.out_proj(), ctx, weights);
    ops::add_inplace(xa, attn_out);
    const Tensor h2 = block.norm2().forward(xa);
    ops::add_inplace(xa, cached_mlp(block.mlp(), h2, weights));
    if (all_alive) {
      x = std::move(xa);
    } else {
      scatter_rows(xa, alive, x, c);
    }

    // Exit heads owned by depth li+1: rows exiting here, plus every
    // all-exits (voting) row.
    const int64_t d = li + 1;
    const auto& exits = cfg.exit_layers;
    if (std::find(exits.begin(), exits.end(), d) == exits.end()) continue;
    const int64_t eidx = model.exit_index(d);
    std::vector<int64_t> need;
    for (int64_t b = 0; b < B; ++b) {
      const BatchedSeq& s = seqs[static_cast<size_t>(b)];
      if (!s.want_logits) continue;
      if (s.all_exits || depth[static_cast<size_t>(b)] == d) need.push_back(b);
    }
    if (need.empty()) continue;
    Tensor gathered;
    const Tensor* e = &x;
    if (static_cast<int64_t>(need.size()) != B) {
      gathered = gather_rows(x, need, c);
      e = &gathered;
    }
    const Tensor logits = cached_linear(model.exit_head(eidx), model.exit_norm(eidx).forward(*e),
                                        weights);  // [Bn, vocab]
    for (size_t j = 0; j < need.size(); ++j) {
      Tensor out({cfg.vocab});
      std::memcpy(out.raw(), logits.raw() + static_cast<int64_t>(j) * cfg.vocab,
                  static_cast<size_t>(cfg.vocab) * sizeof(float));
      seqs[static_cast<size_t>(need[j])].logits.push_back(std::move(out));
    }
  }
}

Tensor decode_step(CausalLm& model, KvCache& cache, int64_t position, int64_t token,
                   int64_t exit_layer, const DecodeWeightCache* weights) {
  BatchedSeq s;
  s.cache = &cache;
  s.position = position;
  s.token = token;
  s.exit_layer = exit_layer;
  batched_decode_step(model, std::span<BatchedSeq>(&s, 1), weights);
  return std::move(s.logits.at(0));
}

std::vector<Tensor> decode_step_all_exits(CausalLm& model, KvCache& cache, int64_t position,
                                          int64_t token) {
  BatchedSeq s;
  s.cache = &cache;
  s.position = position;
  s.token = token;
  s.all_exits = true;
  batched_decode_step(model, std::span<BatchedSeq>(&s, 1));
  return std::move(s.logits);
}

SpeculativeResult speculative_decode_step(CausalLm& model, KvSequenceView& cache,
                                          int64_t position, int64_t token, int64_t draft_depth,
                                          int64_t k, const DecodeWeightCache* weights) {
  const obs::ScopedSpan span("decode/speculative");
  const ModelConfig& cfg = model.config();
  const int64_t c = cfg.d_model;
  const int64_t kvd = cfg.kv_dim();
  check_arg(!model.token_embedding().grad_enabled(),
            "speculative_decode_step: call model.set_eval() first");
  check_arg(k >= 1, "speculative_decode_step: k must be >= 1");
  (void)model.exit_index(draft_depth);  // draft head must be a registered exit
  check_arg(cache.n_layers() >= cfg.n_layers,
            "speculative_decode_step: cache has too few layers for full-depth verify");
  check_arg(cache.kv_dim() == kvd, "speculative_decode_step: cache kv_dim mismatch");
  check_arg(position + k <= cfg.max_seq,
            "speculative_decode_step: draft window exceeds the context");
  check_arg(position == cache.positions(0),
            "speculative_decode_step: position does not match cache");

  SpeculativeResult res;

  // Draft phase: k-1 greedy continuations from the shallow exit. Each draft
  // row runs layers [0, draft_depth) ONCE, through the same kernels the
  // verify pass uses, appending its shallow KV rows and keeping its hidden
  // state (the input to layer draft_depth). The verify pass reuses both —
  // recomputing them would be bit-identical, so skipping the recompute
  // preserves the equivalence contract while making a full-acceptance round
  // cost the same layer-rows as k sequential full-depth steps.
  std::vector<int64_t> fed;
  fed.reserve(static_cast<size_t>(k));
  fed.push_back(token);
  auto blocks = model.blocks();
  const Param& pos = model.positional_embedding();

  // Layers [0, draft_depth) for one token row: appends shallow KV, returns
  // the hidden row [1, c] that both the draft exit head and layer
  // draft_depth consume.
  const auto shallow_row = [&](int64_t p, int64_t tok) {
    Tensor x = model.token_embedding().forward(std::vector<int64_t>{tok});  // [1, c]
    for (int64_t d = 0; d < c; ++d) x[d] += pos.value[p * c + d];
    std::vector<float> row_scratch, score_scratch;
    for (int64_t li = 0; li < draft_depth; ++li) {
      TransformerBlock& block = *blocks[static_cast<size_t>(li)];
      MultiHeadAttention& attn = block.attention();
      const Tensor h = block.norm1().forward(x);
      const Tensor q = cached_linear(attn.q_proj(), h, weights);
      const Tensor kp = cached_linear(attn.k_proj(), h, weights);
      const Tensor vp = cached_linear(attn.v_proj(), h, weights);
      Tensor ctx({int64_t{1}, c});
      cache.append(li, kp.raw(), vp.raw());
      attend_one(cfg, cache, li, p + 1, q.raw(), ctx.raw(), row_scratch, score_scratch);
      const Tensor attn_out = cached_linear(attn.out_proj(), ctx, weights);
      ops::add_inplace(x, attn_out);
      const Tensor h2 = block.norm2().forward(x);
      ops::add_inplace(x, cached_mlp(block.mlp(), h2, weights));
    }
    return x;
  };

  std::vector<Tensor> hidden;  // per fed row, the input to layer draft_depth
  hidden.reserve(static_cast<size_t>(k));
  {
    const obs::ScopedSpan draft_span("spec/draft");
    const int64_t didx = model.exit_index(draft_depth);
    for (int64_t j = 0; j + 1 < k; ++j) {
      hidden.push_back(shallow_row(position + j, fed[static_cast<size_t>(j)]));
      const Tensor lg = cached_linear(model.exit_head(didx),
                                      model.exit_norm(didx).forward(hidden.back()), weights);
      fed.push_back(ops::argmax_lastdim(lg)[0]);
      ++res.drafted;
    }
  }

  // Verify phase: one stacked pass over all k fed rows through layers
  // [draft_depth, n_layers). The last fed row was never drafted from, so its
  // shallow layers run here first (it attends over every drafted row, in
  // sequence order). Everything except attention is row-independent (the
  // same kernels batched_decode_step uses), and attention appends then
  // attends per row in sequence order, so row j sees exactly the
  // position+j+1 cached rows a sequential decode would — the source of the
  // bitwise-identity contract.
  const obs::ScopedSpan verify_span("spec/verify");
  hidden.push_back(shallow_row(position + k - 1, fed.back()));
  Tensor x({k, c});
  for (int64_t j = 0; j < k; ++j) {
    std::memcpy(x.raw() + j * c, hidden[static_cast<size_t>(j)].raw(),
                static_cast<size_t>(c) * sizeof(float));
  }
  hidden.clear();
  for (int64_t li = draft_depth; li < cfg.n_layers; ++li) {
    TransformerBlock& block = *blocks[static_cast<size_t>(li)];
    MultiHeadAttention& attn = block.attention();
    const Tensor h = block.norm1().forward(x);
    const Tensor q = cached_linear(attn.q_proj(), h, weights);   // [k, c]
    const Tensor kp = cached_linear(attn.k_proj(), h, weights);  // [k, kvd]
    const Tensor vp = cached_linear(attn.v_proj(), h, weights);
    Tensor ctx({k, c});
    std::vector<float> row_scratch, score_scratch;
    for (int64_t j = 0; j < k; ++j) {
      cache.append(li, kp.raw() + j * kvd, vp.raw() + j * kvd);
      attend_one(cfg, cache, li, position + j + 1, q.raw() + j * c, ctx.raw() + j * c,
                 row_scratch, score_scratch);
    }
    const Tensor attn_out = cached_linear(attn.out_proj(), ctx, weights);
    ops::add_inplace(x, attn_out);
    const Tensor h2 = block.norm2().forward(x);
    ops::add_inplace(x, cached_mlp(block.mlp(), h2, weights));
  }
  const int64_t eidx = model.exit_index(cfg.n_layers);
  const Tensor logits = cached_linear(model.exit_head(eidx), model.exit_norm(eidx).forward(x),
                                      weights);  // [k, vocab]
  const std::vector<int64_t> verified = ops::argmax_lastdim(logits);

  // Accept the longest agreeing prefix. Row 0 verifies the caller's token,
  // so verified[0] is always emitted (every round advances); row j's token
  // is emitted while draft j agreed with verification row j-1. A non-finite
  // verified row stops emission there — the caller fails the sequence the
  // same way the non-speculative path does on poisoned logits.
  const auto row_finite = [&](int64_t j) {
    return std::isfinite(logits.raw()[j * cfg.vocab + verified[static_cast<size_t>(j)]]);
  };
  int64_t m = 0;
  while (m < k) {
    if (m > 0 && fed[static_cast<size_t>(m)] != verified[static_cast<size_t>(m - 1)]) break;
    if (!row_finite(m)) {
      res.nonfinite = true;
      break;
    }
    res.tokens.push_back(verified[static_cast<size_t>(m)]);
    ++m;
  }
  res.accepted_drafts = std::max<int64_t>(0, m - 1);
  cache.truncate(position + m);  // rewind rejected rows in every layer
  return res;
}

IncrementalDecoder::IncrementalDecoder(CausalLm& model, int64_t exit_layer, bool quantize_kv)
    : model_(model), exit_layer_(exit_layer > 0 ? exit_layer : model.config().n_layers) {
  (void)model_.exit_index(exit_layer_);  // validates
  cache_.configure(exit_layer_, model_.config().kv_dim(), quantize_kv);
  model_.set_eval();
}

void IncrementalDecoder::reset() {
  cache_.clear();
  weights_ = DecodeWeightCache();
  position_ = 0;
  logits_ = Tensor();
}

void IncrementalDecoder::prime(const std::vector<int64_t>& prompt) {
  check_arg(!prompt.empty(), "IncrementalDecoder: empty prompt");
  reset();
  model_.set_eval();  // training may have re-enabled caching since the ctor
  // One effective-weight rebuild (prune + fake-quant) per prime instead of
  // one per layer per token.
  weights_.build(model_);
  for (int64_t t : prompt) {
    logits_ = decode_step(model_, cache_, position_, t, exit_layer_, &weights_);
    ++position_;
  }
}

void IncrementalDecoder::step(int64_t token) {
  check_arg(position_ > 0, "IncrementalDecoder: call prime() first");
  logits_ = decode_step(model_, cache_, position_, token, exit_layer_, &weights_);
  ++position_;
}

int64_t sample_token(const Tensor& logits, const GenerateConfig& cfg, Rng& rng) {
  check_arg(logits.ndim() == 1 && logits.numel() > 0, "sample_token: logits must be 1-d");
  const int64_t vocab = logits.numel();
  if (cfg.temperature <= 0.0f) {
    return ops::argmax_lastdim(logits.reshape({int64_t{1}, vocab}))[0];
  }
  Tensor scaled = ops::scale(logits, 1.0f / cfg.temperature);
  if (cfg.top_k > 0 && cfg.top_k < vocab) {
    // Mask everything below the k-th largest logit.
    std::vector<float> sorted(scaled.raw(), scaled.raw() + vocab);
    std::nth_element(sorted.begin(), sorted.begin() + (cfg.top_k - 1), sorted.end(),
                     std::greater<float>());
    const float cutoff = sorted[static_cast<size_t>(cfg.top_k - 1)];
    for (int64_t i = 0; i < vocab; ++i) {
      if (scaled[i] < cutoff) scaled[i] = -1e30f;
    }
  }
  const Tensor probs = ops::softmax_lastdim(scaled.reshape({int64_t{1}, vocab}));
  return rng.categorical(probs.data());
}

std::vector<int64_t> IncrementalDecoder::generate(const std::vector<int64_t>& prompt,
                                                  const GenerateConfig& cfg, Rng& rng) {
  validate_generate_config(cfg, model_);
  // Scoped: the prior global thread count is restored when generate()
  // returns, so a per-call config never leaks into other pool users.
  parallel::NumThreadsScope threads_scope(cfg.n_threads);
  check_arg(cfg.exit_layer == 0 || cfg.exit_layer == exit_layer_,
            "generate: config exit_layer " + std::to_string(cfg.exit_layer) +
                " does not match this decoder's exit " + std::to_string(exit_layer_));
  prime(prompt);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(cfg.max_new_tokens));
  for (int64_t i = 0; i < cfg.max_new_tokens; ++i) {
    if (position_ >= model_.config().max_seq) break;  // window exhausted
    const int64_t tok = sample_token(logits_, cfg, rng);
    out.push_back(tok);
    if (position_ < model_.config().max_seq) step(tok);
  }
  return out;
}

}  // namespace edgellm::nn

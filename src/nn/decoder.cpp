#include "nn/decoder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.hpp"
#include "quant/packed.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

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

// Per-thread decode attention scratch: grown on demand (never past what
// max_seq needs) and reused across layers, sequences and steps, so a step
// allocates nothing per layer per sequence.
struct AttnScratch {
  // Cached K rows [0, t) transposed into kNr-position panels, [kv_dim][kNr]
  // per panel (the gemm_tile B layout), lanes past t zero.
  std::vector<float, simd::PanelAllocator<float>> panels;
  std::vector<float> scores;        // [kMr rows][n_heads][t_pad]
  std::vector<const float*> k, v;   // K and V row pointer per cached position
  std::vector<float> k_rows, v_rows;  // int8 caches: dequantised rows [t][kv_dim]
};

AttnScratch& attn_scratch() {
  thread_local AttnScratch scratch;
  return scratch;
}

template <typename Vec>
void grow(Vec& v, int64_t n) {
  if (static_cast<int64_t>(v.size()) < n) v.resize(static_cast<size_t>(n));
}

}  // namespace

void attend_sequence(const ModelConfig& cfg, const KvSequenceView& cache, int64_t layer,
                     int64_t first_position, int64_t m, const float* q, float* ctx) {
  constexpr int64_t kMr = ops::gemm::kMr;
  constexpr int64_t kNr = ops::gemm::kNr;
  const int64_t c = cfg.d_model;
  const int64_t n_heads = cfg.n_heads;
  const int64_t dh = c / n_heads;
  const int64_t group = n_heads / cfg.kv_heads();
  const int64_t kvd = cache.kv_dim();
  const float alpha = 1.0f / std::sqrt(static_cast<float>(dh));
  const int64_t t_all = first_position + m;  // cached rows the last row reads
  const int64_t t_pad = (t_all + kNr - 1) / kNr * kNr;
  check_arg(m >= 1 && cache.positions(layer) >= t_all,
            "attend_sequence: rows must be appended before they attend");
  AttnScratch& s = attn_scratch();
  const bool qz = cache.quantized();

  // One gather per sequence and layer, shared by all of its rows: row
  // pointers (int8 rows dequantised once), then K transposed into panels.
  const simd::KernelTable& kt = simd::kernels();
  grow(s.panels, t_pad * kvd);
  grow(s.k, t_all);
  grow(s.v, t_all);
  if (qz) {
    grow(s.k_rows, t_all * kvd);
    grow(s.v_rows, t_all * kvd);
  }
  if (qz) {
    for (int64_t p = 0; p < t_all; ++p) {
      float* kr = s.k_rows.data() + p * kvd;
      float* vr = s.v_rows.data() + p * kvd;
      cache.load_k(layer, p, kr);
      cache.load_v(layer, p, vr);
      s.k[static_cast<size_t>(p)] = kr;
      s.v[static_cast<size_t>(p)] = vr;
    }
  } else {
    cache.rows(layer, t_all, s.k.data(), s.v.data());
  }
  float* panels = s.panels.data();
  for (int64_t p0 = 0; p0 < t_all; p0 += kNr) {
    kt.pack_kpanel(s.k.data() + p0, std::min(kNr, t_all - p0), kvd, panels + p0 * kvd);
  }

  // Rows in strips of kMr share each panel through one gemm_tile call.
  // Every score is the reference chain 0 + q[0]*k[0] + ... over ascending
  // d, then * alpha; a row reads only its own first position+1 lanes.
  const int64_t ldc = n_heads * t_pad;
  grow(s.scores, kMr * ldc);
  for (int64_t r0 = 0; r0 < m; r0 += kMr) {
    const int64_t mr = std::min(kMr, m - r0);
    const int64_t t_strip = first_position + r0 + mr;
    float* scores = s.scores.data();
    std::fill(scores, scores + mr * ldc, 0.0f);
    for (int64_t head = 0; head < n_heads; ++head) {
      const float* a = q + r0 * c + head * dh;
      const float* strip = panels + (head / group) * dh * kNr;
      for (int64_t p0 = 0; p0 < t_strip; p0 += kNr) {
        kt.gemm_tile(a, c, strip + p0 * kvd, dh, scores + head * t_pad + p0, ldc, mr,
                     std::min(kNr, t_strip - p0));
      }
    }
    for (int64_t r = 0; r < mr; ++r) {
      const int64_t t = first_position + r0 + r + 1;
      float* w = scores + r * ldc;
      // Softmax per head over the row's positions: scalar max, shared exp,
      // scalar ascending denominator.
      for (int64_t head = 0; head < n_heads; ++head) {
        float* sh = w + head * t_pad;
        kt.scale_inplace(sh, alpha, t);
        float mx = -1e30f;
        for (int64_t p = 0; p < t; ++p) mx = std::max(mx, sh[p]);
        kt.exp_sub(sh, mx, sh, t);
        float denom = 0.0f;
        for (int64_t p = 0; p < t; ++p) denom += sh[p];
        kt.scale_inplace(sh, 1.0f / denom, t);
      }
      float* out = ctx + (r0 + r) * c;
      std::fill(out, out + c, 0.0f);
      kt.attn_pv(w, t_pad, s.v.data(), t, n_heads, dh, group, out);
    }
  }
}

namespace {

// Linear::forward against a cached weight: matmul_nt_prepacked (the same
// per-output chains as matmul_nt) then add_bias, so fp32 outputs are bitwise
// identical. Falls back to lin.forward when the cache has no entry for this
// layer (no cache supplied, or a LoRA-enabled Linear). Decode activations
// are always stacked rows [rows, in].
Tensor cached_linear(Linear& lin, const Tensor& x, const DecodeWeightCache* wc) {
  const DecodeWeightCache::Entry* w = wc != nullptr ? wc->find(&lin) : nullptr;
  if (w == nullptr) return lin.forward(x);
  check_arg(x.ndim() == 2 && x.dim(1) == lin.in_features(),
            "cached_linear: input must be [rows, in_features]");
  const auto* packed = std::get_if<quant::PackedMatrix>(w);
  Tensor y = packed != nullptr ? quant::packed_matmul_nt(x, *packed)
                               : ops::matmul_nt_prepacked(x, std::get<ops::gemm::NtPanels>(*w));
  if (lin.has_bias()) y = ops::add_bias(y, lin.bias().value);
  return y;
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

// Exit head `eidx` over stacked hidden rows: [rows, vocab].
Tensor exit_logits(CausalLm& model, int64_t eidx, const Tensor& x, const DecodeWeightCache* wc) {
  return cached_linear(model.exit_head(eidx), model.exit_norm(eidx).forward(x), wc);
}

// One stacked row of a forward step: the token at `position` of the
// sequence cached in `cache`, which runs the layers below `depth`.
struct StepRow {
  KvSequenceView* cache;
  int64_t position;
  int64_t depth;
};

// Token plus positional embedding of every row: [rows.size(), d_model].
Tensor embed_rows(CausalLm& model, const std::vector<int64_t>& tokens,
                  std::span<const StepRow> rows) {
  const int64_t c = model.config().d_model;
  Tensor x = model.token_embedding().forward(tokens);
  const Param& pos = model.positional_embedding();
  for (size_t r = 0; r < rows.size(); ++r) {
    const int64_t b = static_cast<int64_t>(r);
    for (int64_t d = 0; d < c; ++d) x[b * c + d] += pos.value[rows[r].position * c + d];
  }
  return x;
}

// The one transformer forward step behind every decode path (one-token
// decode, chunked prefill, speculative draft and verify): runs layers
// [lo, hi) over the stacked hidden rows `x` [rows.size(), d_model] in place.
// A row skips every layer at or past its depth. Rows of one sequence are
// contiguous and at consecutive positions; at each layer they append their
// K/V in that order, then attend together (attend_sequence) with the row at
// position p reading exactly the first p+1 cached rows, so every row sees
// the cache a token-at-a-time decode would — the source of every
// bitwise-identity contract in this file. Everything else is
// row-independent and runs stacked, so the effective-weight lookups and
// tensor allocations are paid once per layer for all rows. Opens no span:
// callers name the work.
void forward_rows(CausalLm& model, Tensor& x, std::span<const StepRow> rows, int64_t lo,
                  int64_t hi, const DecodeWeightCache* weights) {
  const ModelConfig& cfg = model.config();
  const int64_t c = cfg.d_model;
  const int64_t kvd = cfg.kv_dim();
  const int64_t n_rows = static_cast<int64_t>(rows.size());
  std::vector<int64_t> alive;   // rows whose depth still needs this layer
  std::vector<int64_t> starts;  // index into `alive` where each sequence begins
  for (int64_t li = lo; li < hi; ++li) {
    alive.clear();
    starts.clear();
    for (int64_t r = 0; r < n_rows; ++r) {
      const StepRow& row = rows[static_cast<size_t>(r)];
      if (row.depth <= li) continue;
      if (alive.empty() || rows[static_cast<size_t>(alive.back())].cache != row.cache) {
        starts.push_back(static_cast<int64_t>(alive.size()));
      }
      alive.push_back(r);
    }
    const int64_t n = static_cast<int64_t>(alive.size());
    if (n == 0) return;  // depths only shrink the live set
    starts.push_back(n);
    TransformerBlock& block = model.block(li);
    MultiHeadAttention& attn = block.attention();

    // When every row is alive (uniform exit depths — the common case) the
    // layer operates on `x` directly instead of paying a gather/scatter
    // round trip.
    const bool all_alive = n == n_rows;
    Tensor xa = all_alive ? std::move(x) : gather_rows(x, alive, c);
    const Tensor h = block.norm1().forward(xa);
    const Tensor q = cached_linear(attn.q_proj(), h, weights);  // [n, c]
    const Tensor k = cached_linear(attn.k_proj(), h, weights);  // [n, kvd]
    const Tensor v = cached_linear(attn.v_proj(), h, weights);

    // Attention fans out per sequence: each owns its cache and its ctx
    // rows, and sequences are independent of one another, so any partition
    // is bitwise identical to the serial loop. A sequence appends all of its
    // rows first, then attends them together against one gather of its
    // cache (scratch is per thread, never shared).
    Tensor ctx({n, c});
    const int64_t n_seqs = static_cast<int64_t>(starts.size()) - 1;
    parallel::parallel_for(0, n_seqs, 1, [&](int64_t s_lo, int64_t s_hi) {
      for (int64_t sq = s_lo; sq < s_hi; ++sq) {
        const int64_t j0 = starts[static_cast<size_t>(sq)];
        const int64_t j1 = starts[static_cast<size_t>(sq) + 1];
        const StepRow& first = rows[static_cast<size_t>(alive[static_cast<size_t>(j0)])];
        for (int64_t j = j0; j < j1; ++j) {
          check_arg(rows[static_cast<size_t>(alive[static_cast<size_t>(j)])].position ==
                        first.position + (j - j0),
                    "forward_rows: a sequence's rows must have consecutive positions");
          first.cache->append(li, k.raw() + j * kvd, v.raw() + j * kvd);
        }
        attend_sequence(cfg, *first.cache, li, first.position, j1 - j0, q.raw() + j0 * c,
                        ctx.raw() + j0 * c);
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
  }
}

}  // namespace

void DecodeWeightCache::build(CausalLm& model, bool pack_compressed) {
  entries_.clear();
  const auto add = [&](Linear* lin) {
    if (lin->lora_enabled()) return;
    if (entries_.count(lin) != 0) return;  // tied heads dedup
    if (pack_compressed && lin->packable()) {
      entries_.emplace(lin, lin->packed_weight());
    } else if (lin->prune_mask() || lin->quant_spec()) {
      entries_.emplace(lin, ops::gemm::NtPanels(lin->effective_weight()));
    } else {
      // Uncompressed: pack straight from the weight (effective_weight()
      // would copy it first).
      entries_.emplace(lin, ops::gemm::NtPanels(lin->weight().value));
    }
  };
  for (TransformerBlock* b : model.blocks()) {
    for (Linear* lin : b->linears()) add(lin);
  }
  const int64_t n_exits = static_cast<int64_t>(model.exit_layers().size());
  for (int64_t e = 0; e < n_exits; ++e) add(&model.exit_head(e));
}

const DecodeWeightCache::Entry* DecodeWeightCache::find(const Linear* lin) const {
  const auto it = entries_.find(lin);
  return it == entries_.end() ? nullptr : &it->second;
}

int64_t DecodeWeightCache::bytes() const {
  int64_t total = 0;
  for (const auto& [lin, w] : entries_) {
    const auto* packed = std::get_if<quant::PackedMatrix>(&w);
    total += packed != nullptr ? packed->storage_bytes()
                               : std::get<ops::gemm::NtPanels>(w).bytes();
  }
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

  check_arg(!model.token_embedding().grad_enabled(),
            "batched_decode_step: call model.set_eval() first");

  // One stacked row per fed token, each sequence's rows contiguous.
  std::vector<StepRow> rows;
  std::vector<int64_t> tokens;
  std::vector<int64_t> last_row(seqs.size());  // each sequence's last row
  int64_t max_depth = 0;
  for (size_t i = 0; i < seqs.size(); ++i) {
    BatchedSeq& s = seqs[i];
    check_arg(s.cache != nullptr, "batched_decode_step: null cache");
    const int64_t d = s.all_exits || s.exit_layer == 0 ? cfg.n_layers : s.exit_layer;
    (void)model.exit_index(d);  // validates the exit is registered
    check_arg(s.cache->n_layers() >= d, "batched_decode_step: cache has too few layers");
    check_arg(s.cache->kv_dim() == cfg.kv_dim(), "batched_decode_step: cache kv_dim mismatch");
    check_arg(!s.tokens.empty(), "batched_decode_step: no tokens to feed");
    check_arg(s.position + static_cast<int64_t>(s.tokens.size()) <= cfg.max_seq,
              "batched_decode_step: context window exhausted");
    check_arg(s.position == s.cache->positions(0),
              "batched_decode_step: position does not match cache");
    for (size_t j = 0; j < s.tokens.size(); ++j) {
      check_arg(s.tokens[j] >= 0 && s.tokens[j] < cfg.vocab,
                "batched_decode_step: token out of range");
      tokens.push_back(s.tokens[j]);
      rows.push_back({s.cache, s.position + static_cast<int64_t>(j), d});
    }
    last_row[i] = static_cast<int64_t>(rows.size()) - 1;
    max_depth = std::max(max_depth, d);
    s.logits.clear();
  }

  // Each segment between registered exits runs stacked, then the heads owned
  // by its end depth: sequences exiting there, plus every all-exits (voting)
  // sequence, each read from its last row.
  Tensor x = embed_rows(model, tokens, rows);
  int64_t lo = 0;
  for (const int64_t d : cfg.exit_layers) {
    if (d > max_depth) break;
    forward_rows(model, x, rows, lo, d, weights);
    lo = d;
    std::vector<size_t> need;
    std::vector<int64_t> need_rows;
    for (size_t i = 0; i < seqs.size(); ++i) {
      const int64_t r = last_row[i];
      if (!seqs[i].want_logits) continue;
      if (seqs[i].all_exits || rows[static_cast<size_t>(r)].depth == d) {
        need.push_back(i);
        need_rows.push_back(r);
      }
    }
    if (need.empty()) continue;
    Tensor gathered;
    const Tensor* e = &x;
    if (need_rows.size() != rows.size()) {
      gathered = gather_rows(x, need_rows, c);
      e = &gathered;
    }
    const Tensor logits = exit_logits(model, model.exit_index(d), *e, weights);  // [Bn, vocab]
    for (size_t j = 0; j < need.size(); ++j) {
      Tensor out({cfg.vocab});
      std::memcpy(out.raw(), logits.raw() + static_cast<int64_t>(j) * cfg.vocab,
                  static_cast<size_t>(cfg.vocab) * sizeof(float));
      seqs[need[j]].logits.push_back(std::move(out));
    }
  }
}

Tensor decode_step(CausalLm& model, KvCache& cache, int64_t position, int64_t token,
                   int64_t exit_layer, const DecodeWeightCache* weights) {
  BatchedSeq s;
  s.cache = &cache;
  s.position = position;
  s.tokens = std::span<const int64_t>(&token, 1);
  s.exit_layer = exit_layer;
  batched_decode_step(model, std::span<BatchedSeq>(&s, 1), weights);
  return std::move(s.logits.at(0));
}

SpeculativeResult speculative_decode_step(CausalLm& model, KvSequenceView& cache,
                                          int64_t position, int64_t token, int64_t draft_depth,
                                          int64_t k, const DecodeWeightCache* weights) {
  const obs::ScopedSpan span("decode/speculative");
  const ModelConfig& cfg = model.config();
  const int64_t c = cfg.d_model;
  check_arg(!model.token_embedding().grad_enabled(),
            "speculative_decode_step: call model.set_eval() first");
  check_arg(k >= 1, "speculative_decode_step: k must be >= 1");
  (void)model.exit_index(draft_depth);  // draft head must be a registered exit
  check_arg(cache.n_layers() >= cfg.n_layers,
            "speculative_decode_step: cache has too few layers for full-depth verify");
  check_arg(cache.kv_dim() == cfg.kv_dim(), "speculative_decode_step: cache kv_dim mismatch");
  check_arg(position + k <= cfg.max_seq,
            "speculative_decode_step: draft window exceeds the context");
  check_arg(position == cache.positions(0),
            "speculative_decode_step: position does not match cache");

  SpeculativeResult res;

  // Draft phase: k-1 greedy continuations from the shallow exit. Each draft
  // row runs layers [0, draft_depth) ONCE, through the same forward step the
  // verify pass uses, appending its shallow KV rows and keeping its hidden
  // state (the input to layer draft_depth) as its row of `x`. The verify
  // pass reuses both — recomputing them would be bit-identical, so skipping
  // the recompute preserves the equivalence contract while making a
  // full-acceptance round cost the same layer-rows as k sequential
  // full-depth steps.
  std::vector<int64_t> fed;
  fed.reserve(static_cast<size_t>(k));
  fed.push_back(token);
  std::vector<StepRow> rows;
  for (int64_t j = 0; j < k; ++j) rows.push_back({&cache, position + j, cfg.n_layers});
  Tensor x({k, c});

  // Layers [0, draft_depth) for fed row j: returns its hidden row [1, c],
  // which both the draft exit head and (via `x`) layer draft_depth consume.
  const auto shallow_row = [&](int64_t j) {
    const std::span<const StepRow> row(&rows[static_cast<size_t>(j)], 1);
    Tensor h = embed_rows(model, {fed[static_cast<size_t>(j)]}, row);
    forward_rows(model, h, row, 0, draft_depth, weights);
    std::memcpy(x.raw() + j * c, h.raw(), static_cast<size_t>(c) * sizeof(float));
    return h;
  };
  {
    const obs::ScopedSpan draft_span("spec/draft");
    const int64_t didx = model.exit_index(draft_depth);
    for (int64_t j = 0; j + 1 < k; ++j) {
      const Tensor lg = exit_logits(model, didx, shallow_row(j), weights);
      fed.push_back(ops::argmax_lastdim(lg)[0]);
      ++res.drafted;
    }
  }

  // Verify phase: one stacked pass over all k fed rows through layers
  // [draft_depth, n_layers). The last fed row was never drafted from, so its
  // shallow layers run here first (it attends over every drafted row, in
  // sequence order).
  const obs::ScopedSpan verify_span("spec/verify");
  shallow_row(k - 1);
  forward_rows(model, x, rows, draft_depth, cfg.n_layers, weights);
  const Tensor logits =
      exit_logits(model, model.exit_index(cfg.n_layers), x, weights);  // [k, vocab]
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
  // One effective-weight rebuild (prune + fake-quant) and panel pack per
  // prime instead of one rebuild per layer per token.
  weights_.build(model_);
  BatchedSeq s;  // the whole prompt in one stacked call
  s.cache = &cache_;
  s.tokens = prompt;
  s.exit_layer = exit_layer_;
  batched_decode_step(model_, std::span<BatchedSeq>(&s, 1), &weights_);
  logits_ = std::move(s.logits.at(0));
  position_ = static_cast<int64_t>(prompt.size());
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

// Incremental (KV-cached) decoding and sampling — the inference path an
// edge deployment runs after adaptation. Eval-only: reuses the model's own
// (possibly compressed) Linear/RMSNorm modules for projections, with a
// per-layer key/value cache so each new token costs O(T) attention instead
// of O(T^2) recompute.
//
// Every entry point runs the transformer layers through one internal
// multi-row forward step (decoder.cpp): rows of many sequences are stacked
// through each layer's norms/projections/MLP, so the weight
// materialisation and per-call tensor allocations are paid once per layer,
// and attention runs per sequence against its own cache.
//   - batched_decode_step(): advances many sequences by one or more tokens
//     in a single call — the serving engine's (src/serve) continuous-
//     batching tick, decode and chunked prefill alike.
//   - speculative_decode_step(): shallow drafts, then one stacked verify.
//   - IncrementalDecoder: the single-sequence convenience wrapper.
#pragma once

#include <span>
#include <unordered_map>
#include <variant>
#include <vector>

#include "nn/kv_cache.hpp"
#include "nn/model.hpp"
#include "tensor/gemm.hpp"

namespace edgellm::nn {

/// Kernel-ready weights for decoding against a frozen (eval-mode) model.
/// Linear::forward rebuilds its effective weight on every call — a full
/// copy, plus prune/fake-quant work when compression is set — and then
/// ops::matmul_nt either packs it into panels again (fc1/fc2) or, at decode
/// row counts, runs the scalar naive loop (q/k/v/o, exit heads). Across
/// thousands of decode ticks over weights that never change, both are pure
/// overhead. build() packs every block projection's and exit head's
/// effective weight once into the micro-kernel's full-depth panel layout
/// (ops::gemm::NtPanels); batched_decode_step then multiplies against the
/// panels with ops::matmul_nt_prepacked, whose per-output ascending-k chain
/// keeps outputs bitwise identical to the uncached path at every row count.
/// The panels replace the weight: no fp32 Tensor snapshot is kept beside
/// them.
///
/// The cache is read-only and does NOT track the model: rebuild after any
/// weight update or compression-policy change. LoRA-enabled Linears are
/// skipped (their rows fall back to Linear::forward).
///
/// With `pack_compressed`, packable layers (per-row symmetric int4/int8,
/// no LoRA — see Linear::packable) are held as PackedMatrix instead of
/// fp32 panels, and decode multiplies against the packed integers
/// (quant::packed_matmul_nt). That is the deployed-kernel numerics —
/// activations times raw integers, one scale per output — so it is close
/// to, but NOT bitwise equal to, the fp32 effective-weight path; it is
/// therefore opt-in. Default build() stays bitwise identical to the
/// uncached path. Non-packable layers keep fp32 panels either way.
class DecodeWeightCache {
 public:
  /// One cached Linear's weight: fp32 panels or packed integers.
  using Entry = std::variant<ops::gemm::NtPanels, quant::PackedMatrix>;

  DecodeWeightCache() = default;
  explicit DecodeWeightCache(CausalLm& model, bool pack_compressed = false) {
    build(model, pack_compressed);
  }

  /// Packs the effective weight of every block projection and exit head
  /// (tied heads are stored once). Clears any previous entries. With
  /// `pack_compressed`, packable layers are stored packed (see class doc).
  void build(CausalLm& model, bool pack_compressed = false);

  bool built() const { return !entries_.empty(); }

  /// The cached weight for `lin`, or nullptr when uncached (LoRA layer, or
  /// a Linear not part of build()'s model).
  const Entry* find(const Linear* lin) const;

  /// Bytes held by the cache (what it costs an edge deployment): panel
  /// floats with their zero padding, packed payloads for packed entries.
  int64_t bytes() const;

 private:
  std::unordered_map<const Linear*, Entry> entries_;
};

/// Sampling controls for generate().
struct GenerateConfig {
  int64_t max_new_tokens = 32;
  float temperature = 1.0f;  ///< <= 0 means greedy decoding
  int64_t top_k = 0;         ///< 0 disables top-k filtering
  int64_t exit_layer = 0;    ///< 0 means the final exit
  /// Compute threads for the deterministic tensor backend
  /// (tensor/parallel.hpp). 0 leaves the process-global setting alone;
  /// > 0 overrides it for the duration of this generate() call only
  /// (the prior count is restored on return). Outputs are bitwise
  /// identical at any value.
  int64_t n_threads = 0;
};

/// Throws std::invalid_argument unless cfg is sane for `model`:
/// max_new_tokens > 0, 0 <= top_k <= vocab, finite temperature,
/// n_threads >= 0, and exit_layer either 0 or a registered exit depth.
void validate_generate_config(const GenerateConfig& cfg, const CausalLm& model);

/// One sequence's slice of a batched decode tick.
struct BatchedSeq {
  /// This sequence's cache (disjoint across seqs). Row-addressed view, so
  /// contiguous (KvCache) and paged (serve::PagedKvPool) storage decode
  /// bitwise identically.
  KvSequenceView* cache = nullptr;
  int64_t position = 0;  ///< tokens already cached
  /// Tokens to feed this tick (>= 1), at positions position, position+1, ...
  /// More than one row is prompt prefill. Must outlive the call.
  std::span<const int64_t> tokens;
  int64_t exit_layer = 0;    ///< 0 means the final exit
  bool all_exits = false;    ///< collect logits at every registered exit (voting)
  bool want_logits = true;   ///< false skips the exit head (prompt prefill)
  /// Output: [vocab] logits of the LAST fed row per requested exit — one
  /// entry, or one per registered exit in exit_layers() order when
  /// all_exits is set; empty when want_logits is false.
  std::vector<Tensor> logits;
};

/// Advances every sequence by its tokens in one call. Rows are stacked
/// through each layer's norm/projection/MLP so per-layer overheads amortise
/// across the batch; attention runs per sequence against its own cache, each
/// sequence's rows appending then attending in position order. Results are
/// bitwise identical to feeding every token alone.
///
/// `weights`, when non-null, supplies pre-packed effective weights (see
/// DecodeWeightCache) so projections skip the per-call weight rebuild;
/// the caller must have built it against this model in its current state.
///
/// Requires model.set_eval() to have been called (asserted); the model is
/// only read, so concurrent calls on disjoint caches are safe (a shared
/// DecodeWeightCache is read-only too).
void batched_decode_step(CausalLm& model, std::span<BatchedSeq> seqs,
                         const DecodeWeightCache* weights = nullptr);

/// Causal attention of `m` rows of one sequence, at consecutive positions
/// first_position .. first_position + m - 1, whose K/V rows `cache` already
/// holds in `layer`: row j attends over cached positions
/// [0, first_position + j]. `q` and `ctx` are [m, d_model] row-major; ctx
/// is overwritten with the merged heads. This is the forward step's
/// attention (exposed for the kernel bench): K is gathered once into
/// transposed kNr-position panels that all m rows share, scores run on
/// the dispatched gemm_tile, softmax uses the shared exp_sub (the same exp
/// as training's softmax), and P·V runs on the dispatched attn_pv. Results
/// are bitwise identical at every dispatch choice.
void attend_sequence(const ModelConfig& cfg, const KvSequenceView& cache, int64_t layer,
                     int64_t first_position, int64_t m, const float* q, float* ctx);

/// Single-sequence convenience wrapper over batched_decode_step: feeds
/// `token` at `position`, returns logits at `exit_layer` (0 = final).
/// `weights` as for batched_decode_step.
Tensor decode_step(CausalLm& model, KvCache& cache, int64_t position, int64_t token,
                   int64_t exit_layer, const DecodeWeightCache* weights = nullptr);

/// Result of one self-speculative draft-and-verify round.
struct SpeculativeResult {
  /// Verified tokens emitted this round, in order (1..k of them; empty only
  /// when the first verified row was non-finite).
  std::vector<int64_t> tokens;
  int64_t drafted = 0;          ///< shallow draft tokens proposed (k - 1)
  int64_t accepted_drafts = 0;  ///< drafts the full-depth pass confirmed
  bool nonfinite = false;       ///< a verified row's logits were non-finite
};

/// One self-speculative decode round (EDGE-LLM's early-exit heads double as
/// a free draft model): feed `token` at `position`, draft k-1 continuation
/// tokens greedily from the registered exit at `draft_depth`, then verify
/// all k fed tokens in ONE stacked pass through the remaining layers and
/// emit the longest prefix on which draft and full depth agree — plus the
/// first verified token, which is always emitted, so every round advances.
/// Drafted rows' shallow KV and hidden states are reused by the verify pass
/// (recomputing them would be bit-identical), so a full-acceptance round
/// costs the same layer-rows as k sequential full-depth steps; only
/// rejected rows are wasted work.
///
/// Greedy-determinism contract: the emitted stream is bitwise identical to
/// non-speculative full-depth greedy decode. Draft and verify run the same
/// multi-row forward step as batched_decode_step, so each verified row sees
/// exactly the cache a sequential decode would; rejected rows are truncated
/// before they are ever read.
///
/// On return the cache holds position + tokens.size() full-depth rows (the
/// last emitted token is not yet fed — same contract as decode_step).
/// `draft_depth` must be a registered exit; `k >= 1` (k == 1 drafts
/// nothing and degenerates to one plain full-depth step); the caller must
/// ensure position + k <= max_seq. With `nonfinite`, emission stopped at
/// the bad row and the cache was rewound to the emitted length.
SpeculativeResult speculative_decode_step(CausalLm& model, KvSequenceView& cache,
                                          int64_t position, int64_t token, int64_t draft_depth,
                                          int64_t k, const DecodeWeightCache* weights = nullptr);

/// Single-sequence incremental decoder over a CausalLm.
///
/// Usage: prime(prompt) once, then step(token) per generated token; logits()
/// after each call gives next-token logits. Or just call generate().
/// reset() returns the decoder to its initial state so one decoder can
/// serve successive prompts.
///
/// With `quantize_kv`, cached keys/values are stored as per-position int8
/// (symmetric, one scale per cached vector) — 4x less cache memory for a
/// small numeric perturbation; the edge-standard KV compression.
///
/// prime() packs the model's effective weights into a DecodeWeightCache
/// once, feeds the whole prompt in one stacked call, and every step()
/// decodes against those panels (bitwise identical to the uncached,
/// token-at-a-time decode_step). Contract: re-prime
/// after any weight update or compression change — step() keeps decoding
/// against the weights as they were at the last prime().
class IncrementalDecoder {
 public:
  explicit IncrementalDecoder(CausalLm& model, int64_t exit_layer = 0,
                              bool quantize_kv = false);

  /// Resets the cache, packs the current weights, and runs the prompt
  /// through the model.
  void prime(const std::vector<int64_t>& prompt);

  /// Appends one token and updates the cache.
  void step(int64_t token);

  /// Drops all cached state (KV and weight panels); the decoder is ready
  /// for a fresh prime().
  void reset();

  /// Next-token logits [vocab] after the last prime()/step().
  const Tensor& logits() const { return logits_; }

  /// Tokens currently in the cache.
  int64_t position() const { return position_; }

  /// Bytes held by the KV cache right now (the memory cost of incremental
  /// decoding that edge deployments budget for).
  int64_t kv_cache_bytes() const { return cache_.bytes(); }

  /// Samples a continuation of the prompt. Returns only the new tokens.
  std::vector<int64_t> generate(const std::vector<int64_t>& prompt, const GenerateConfig& cfg,
                                Rng& rng);

  bool quantized_kv() const { return cache_.quantized(); }

 private:
  CausalLm& model_;
  int64_t exit_layer_;
  int64_t position_ = 0;
  KvCache cache_;
  DecodeWeightCache weights_;  ///< effective weights as of the last prime()
  Tensor logits_;
};

/// Samples one token id from logits under the config (greedy / temperature
/// / top-k).
int64_t sample_token(const Tensor& logits, const GenerateConfig& cfg, Rng& rng);

}  // namespace edgellm::nn

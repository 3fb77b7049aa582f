// Decoder-only causal language model with multiple early-exit heads and
// depth-limited backpropagation — the substrate Edge-LLM's adaptive layer
// tuning & voting (paper component 2) operates on.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "nn/block.hpp"
#include "nn/embedding.hpp"

namespace edgellm::nn {

/// Static architecture description.
struct ModelConfig {
  int64_t vocab = 128;
  int64_t d_model = 64;
  int64_t n_layers = 6;
  int64_t n_heads = 4;
  int64_t n_kv_heads = 0;  ///< 0 means n_heads; < n_heads enables GQA
  int64_t d_ff = 0;     ///< 0 means 4 * d_model
  int64_t max_seq = 64;
  /// Depths (1-based block counts) that own an exit head. Must be sorted
  /// ascending; empty means {n_layers}. The full depth is always added.
  std::vector<int64_t> exit_layers;
  /// Share one LM head across exits (per-exit norms stay separate).
  bool tie_exit_heads = true;
  /// LLaMA-style SwiGLU feed-forward (3 matrices) instead of GELU (2).
  bool swiglu = false;

  int64_t ff_dim() const { return d_ff > 0 ? d_ff : 4 * d_model; }
  int64_t kv_heads() const { return n_kv_heads > 0 ? n_kv_heads : n_heads; }
  /// Feature width of the K/V projections.
  int64_t kv_dim() const { return kv_heads() * (d_model / n_heads); }
};

/// How far to run and how deep to backpropagate in one training step.
struct ForwardPlan {
  int64_t exit_layer = 0;      ///< run blocks [0, exit_layer); must be a registered exit
  int64_t backprop_depth = 0;  ///< topmost blocks [exit-depth, exit) cache + train
  bool update_embeddings = false;  ///< requires backprop_depth == exit_layer
  /// Gradient checkpointing (the classic memory baseline Edge-LLM is
  /// compared against): forward stores only each block's input; backward
  /// re-runs one block's forward at a time to rebuild its caches. Requires
  /// backprop_depth == exit_layer. Trades ~one extra forward pass of
  /// compute for O(1)-blocks of activation memory.
  bool checkpoint = false;

  /// Vanilla full tuning through all `n_layers` blocks.
  static ForwardPlan full(int64_t n_layers) {
    return {n_layers, n_layers, true, false};
  }

  /// Full tuning with gradient checkpointing.
  static ForwardPlan full_checkpointed(int64_t n_layers) {
    return {n_layers, n_layers, true, true};
  }
};

/// GPT-style causal LM: token + learned positional embeddings, pre-norm
/// blocks, per-exit RMSNorm heads.
class CausalLm final : public Module {
 public:
  CausalLm(ModelConfig cfg, Rng& rng);

  const ModelConfig& config() const { return cfg_; }
  const std::vector<int64_t>& exit_layers() const { return cfg_.exit_layers; }

  // --- training path -------------------------------------------------------

  /// Runs tokens ([batch * seq] ids, row-major) through blocks [0, exit) and
  /// the exit head; returns logits [batch * seq, vocab]. Blocks below the
  /// backprop window run without activation caching.
  Tensor forward(const std::vector<int64_t>& tokens, int64_t batch, int64_t seq,
                 const ForwardPlan& plan);

  /// Backward for the last forward(); accumulates grads in the window.
  void backward(const Tensor& grad_logits);

  /// Params the plan's backward touches (optimizer scope for this step).
  std::vector<Param*> params_for_plan(const ForwardPlan& plan);

  // --- eval paths ----------------------------------------------------------

  /// Logits [batch * seq, vocab] at the given exit, no caching.
  Tensor forward_eval(const std::vector<int64_t>& tokens, int64_t batch, int64_t seq,
                      int64_t exit_layer);

  /// Logits at every registered exit from a single pass, no caching.
  /// Returned in `exit_layers()` order.
  std::vector<Tensor> forward_all_exits(const std::vector<int64_t>& tokens, int64_t batch,
                                        int64_t seq);

  /// Puts every module (recursively) into inference mode: grad — and thus
  /// activation caching — disabled, cached activations dropped. The decode
  /// paths (nn/decoder) require this because they drive child modules
  /// directly and must not mutate shared model state: the serving engine
  /// (src/serve) decodes from several threads against one model. The next
  /// training forward() re-enables whatever its plan needs.
  void set_eval();

  // --- module plumbing -----------------------------------------------------

  void collect_params(std::vector<Param*>& out) override;
  int64_t cached_activation_bytes() const override;
  void clear_cache() override;

  std::vector<TransformerBlock*> blocks();
  TransformerBlock& block(int64_t i) { return *blocks_.at(static_cast<size_t>(i)); }
  Embedding& token_embedding() { return *tok_emb_; }
  Param& positional_embedding() { return pos_emb_; }

  /// Exit-head components by exit index (see exit_index()).
  RmsNorm& exit_norm(int64_t exit_idx) { return *exit_norms_.at(static_cast<size_t>(exit_idx)); }
  Linear& exit_head(int64_t exit_idx) { return head_for_exit(exit_idx); }

  /// Validates an exit depth and returns its index into exit_layers().
  int64_t exit_index(int64_t exit_layer) const;

  /// Copies of all parameter tensors keyed by name.
  std::map<std::string, Tensor> state_dict();

  /// Restores parameters (shape-checked by name; missing names throw).
  void load_state_dict(const std::map<std::string, Tensor>& state);

  /// Total weight storage bytes under current compression policies
  /// (fp16 baseline for uncompressed tensors).
  double weight_storage_bytes();

 private:
  ModelConfig cfg_;
  std::unique_ptr<Embedding> tok_emb_;
  Param pos_emb_;  ///< [max_seq, d_model]
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  std::vector<std::unique_ptr<RmsNorm>> exit_norms_;   ///< one per exit
  std::vector<std::unique_ptr<Linear>> exit_heads_;    ///< one, or one per exit

  // Forward state for backward().
  bool has_plan_ = false;
  ForwardPlan plan_;
  int64_t cached_batch_ = 0, cached_seq_ = 0;
  bool embeddings_trained_ = false;
  std::vector<Tensor> checkpoint_inputs_;  ///< per-block inputs when checkpointing
  int64_t peak_backward_cache_bytes_ = 0;  ///< transient block cache during ckpt bwd

 public:
  /// Largest transient activation cache observed during the last
  /// checkpointed backward (0 otherwise).
  int64_t peak_backward_cache_bytes() const { return peak_backward_cache_bytes_; }

 private:

  Linear& head_for_exit(int64_t exit_idx);
  Tensor embed(const std::vector<int64_t>& tokens, int64_t batch, int64_t seq,
               bool cache_for_grad);
};

}  // namespace edgellm::nn

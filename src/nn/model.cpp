#include "nn/model.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace edgellm::nn {

namespace {

std::vector<int64_t> normalize_exits(std::vector<int64_t> exits, int64_t n_layers) {
  if (std::find(exits.begin(), exits.end(), n_layers) == exits.end()) {
    exits.push_back(n_layers);
  }
  std::sort(exits.begin(), exits.end());
  exits.erase(std::unique(exits.begin(), exits.end()), exits.end());
  check_arg(exits.front() >= 1 && exits.back() <= n_layers,
            "exit layers must be within [1, n_layers]");
  return exits;
}

}  // namespace

CausalLm::CausalLm(ModelConfig cfg, Rng& rng) : cfg_(std::move(cfg)) {
  check_arg(cfg_.vocab > 0 && cfg_.d_model > 0 && cfg_.n_layers > 0 && cfg_.max_seq > 0,
            "CausalLm: config dims must be positive");
  cfg_.exit_layers = normalize_exits(cfg_.exit_layers, cfg_.n_layers);

  tok_emb_ = std::make_unique<Embedding>("tok_emb", cfg_.vocab, cfg_.d_model, rng);
  pos_emb_ = Param("pos_emb", randn({cfg_.max_seq, cfg_.d_model}, rng, 0.0f, 0.02f));

  blocks_.reserve(static_cast<size_t>(cfg_.n_layers));
  for (int64_t i = 0; i < cfg_.n_layers; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        "block" + std::to_string(i), cfg_.d_model, cfg_.n_heads, cfg_.ff_dim(), rng,
        cfg_.kv_heads(), cfg_.swiglu ? MlpKind::kSwiGlu : MlpKind::kGelu));
  }

  const size_t n_exits = cfg_.exit_layers.size();
  for (size_t e = 0; e < n_exits; ++e) {
    const std::string tag = "exit" + std::to_string(cfg_.exit_layers[e]);
    exit_norms_.push_back(std::make_unique<RmsNorm>(tag + ".norm", cfg_.d_model));
  }
  const size_t n_heads = cfg_.tie_exit_heads ? 1 : n_exits;
  for (size_t e = 0; e < n_heads; ++e) {
    const std::string tag = cfg_.tie_exit_heads ? std::string("lm_head")
                                                : "exit" + std::to_string(cfg_.exit_layers[e]) +
                                                      ".head";
    exit_heads_.push_back(
        std::make_unique<Linear>(tag, cfg_.d_model, cfg_.vocab, /*bias=*/false, rng));
  }
}

int64_t CausalLm::exit_index(int64_t exit_layer) const {
  const auto it = std::find(cfg_.exit_layers.begin(), cfg_.exit_layers.end(), exit_layer);
  if (it == cfg_.exit_layers.end()) {
    throw std::invalid_argument("exit layer " + std::to_string(exit_layer) + " is not registered");
  }
  return it - cfg_.exit_layers.begin();
}

Linear& CausalLm::head_for_exit(int64_t exit_idx) {
  return cfg_.tie_exit_heads ? *exit_heads_[0] : *exit_heads_[static_cast<size_t>(exit_idx)];
}

Tensor CausalLm::embed(const std::vector<int64_t>& tokens, int64_t batch, int64_t seq,
                       bool cache_for_grad) {
  check_arg(batch > 0 && seq > 0, "CausalLm: batch and seq must be positive");
  check_arg(static_cast<int64_t>(tokens.size()) == batch * seq,
            "CausalLm: token count must equal batch * seq");
  check_arg(seq <= cfg_.max_seq, "CausalLm: sequence longer than max_seq");

  tok_emb_->set_grad_enabled(cache_for_grad);
  Tensor x = tok_emb_->forward(tokens).reshape({batch, seq, cfg_.d_model});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = 0; t < seq; ++t) {
      for (int64_t d = 0; d < cfg_.d_model; ++d) {
        x[(b * seq + t) * cfg_.d_model + d] += pos_emb_.value[t * cfg_.d_model + d];
      }
    }
  }
  return x;
}

Tensor CausalLm::forward(const std::vector<int64_t>& tokens, int64_t batch, int64_t seq,
                         const ForwardPlan& plan) {
  const int64_t exit_idx = exit_index(plan.exit_layer);
  check_arg(plan.backprop_depth >= 0 && plan.backprop_depth <= plan.exit_layer,
            "backprop_depth must be in [0, exit_layer]");
  check_arg(!plan.update_embeddings || plan.backprop_depth == plan.exit_layer,
            "update_embeddings requires backprop through every executed block");
  check_arg(!plan.checkpoint || plan.backprop_depth == plan.exit_layer,
            "checkpointing requires backprop through every executed block");

  embeddings_trained_ = plan.update_embeddings && plan.backprop_depth == plan.exit_layer;
  Tensor x = embed(tokens, batch, seq, embeddings_trained_);

  checkpoint_inputs_.clear();
  peak_backward_cache_bytes_ = 0;
  const int64_t window_start = plan.exit_layer - plan.backprop_depth;
  for (int64_t i = 0; i < plan.exit_layer; ++i) {
    if (plan.checkpoint) {
      // Store only the block's input; caches are rebuilt during backward.
      checkpoint_inputs_.push_back(x);
      blocks_[static_cast<size_t>(i)]->set_grad_enabled(false);
    } else {
      blocks_[static_cast<size_t>(i)]->set_grad_enabled(i >= window_start);
    }
    x = blocks_[static_cast<size_t>(i)]->forward(x);
  }

  RmsNorm& norm = *exit_norms_[static_cast<size_t>(exit_idx)];
  Linear& head = head_for_exit(exit_idx);
  norm.set_grad_enabled(true);
  head.set_grad_enabled(true);
  Tensor logits = head.forward(norm.forward(x));

  plan_ = plan;
  cached_batch_ = batch;
  cached_seq_ = seq;
  has_plan_ = true;
  return logits.reshape({batch * seq, cfg_.vocab});
}

void CausalLm::backward(const Tensor& grad_logits) {
  check_arg(has_plan_, "CausalLm: backward without forward");
  check_arg(grad_logits.ndim() == 2 && grad_logits.dim(0) == cached_batch_ * cached_seq_ &&
                grad_logits.dim(1) == cfg_.vocab,
            "CausalLm: grad_logits shape mismatch");

  const int64_t exit_idx = exit_index(plan_.exit_layer);
  const Tensor g3 = grad_logits.reshape({cached_batch_, cached_seq_, cfg_.vocab});
  Tensor g = exit_norms_[static_cast<size_t>(exit_idx)]->backward(
      head_for_exit(exit_idx).backward(g3));

  const int64_t window_start = plan_.exit_layer - plan_.backprop_depth;
  for (int64_t i = plan_.exit_layer - 1; i >= window_start; --i) {
    TransformerBlock& block = *blocks_[static_cast<size_t>(i)];
    if (plan_.checkpoint) {
      // Rebuild this block's caches from its stashed input, then backward.
      block.set_grad_enabled(true);
      (void)block.forward(checkpoint_inputs_[static_cast<size_t>(i)]);
      peak_backward_cache_bytes_ =
          std::max(peak_backward_cache_bytes_, block.cached_activation_bytes());
      g = block.backward(g);
      block.clear_cache();
    } else {
      g = block.backward(g);
    }
  }

  if (embeddings_trained_) {
    // Positional grads: sum over the batch dimension.
    Tensor& pg = pos_emb_.grad_buffer();
    for (int64_t b = 0; b < cached_batch_; ++b) {
      for (int64_t t = 0; t < cached_seq_; ++t) {
        for (int64_t d = 0; d < cfg_.d_model; ++d) {
          pg[t * cfg_.d_model + d] +=
              g[(b * cached_seq_ + t) * cfg_.d_model + d];
        }
      }
    }
    tok_emb_->backward(g.reshape({cached_batch_ * cached_seq_, cfg_.d_model}));
  }
  has_plan_ = false;
}

std::vector<Param*> CausalLm::params_for_plan(const ForwardPlan& plan) {
  const int64_t exit_idx = exit_index(plan.exit_layer);
  std::vector<Param*> out;
  if (plan.update_embeddings && plan.backprop_depth == plan.exit_layer) {
    tok_emb_->collect_params(out);
    out.push_back(&pos_emb_);
  }
  const int64_t window_start = plan.exit_layer - plan.backprop_depth;
  for (int64_t i = window_start; i < plan.exit_layer; ++i) {
    blocks_[static_cast<size_t>(i)]->collect_params(out);
  }
  exit_norms_[static_cast<size_t>(exit_idx)]->collect_params(out);
  head_for_exit(exit_idx).collect_params(out);
  return out;
}

Tensor CausalLm::forward_eval(const std::vector<int64_t>& tokens, int64_t batch, int64_t seq,
                              int64_t exit_layer) {
  const int64_t exit_idx = exit_index(exit_layer);
  Tensor x = embed(tokens, batch, seq, /*cache_for_grad=*/false);
  for (int64_t i = 0; i < exit_layer; ++i) {
    blocks_[static_cast<size_t>(i)]->set_grad_enabled(false);
    x = blocks_[static_cast<size_t>(i)]->forward(x);
  }
  RmsNorm& norm = *exit_norms_[static_cast<size_t>(exit_idx)];
  Linear& head = head_for_exit(exit_idx);
  norm.set_grad_enabled(false);
  head.set_grad_enabled(false);
  return head.forward(norm.forward(x)).reshape({batch * seq, cfg_.vocab});
}

std::vector<Tensor> CausalLm::forward_all_exits(const std::vector<int64_t>& tokens,
                                                int64_t batch, int64_t seq) {
  Tensor x = embed(tokens, batch, seq, /*cache_for_grad=*/false);
  std::vector<Tensor> out;
  out.reserve(cfg_.exit_layers.size());
  size_t next_exit = 0;
  for (int64_t i = 0; i < cfg_.n_layers && next_exit < cfg_.exit_layers.size(); ++i) {
    blocks_[static_cast<size_t>(i)]->set_grad_enabled(false);
    x = blocks_[static_cast<size_t>(i)]->forward(x);
    if (cfg_.exit_layers[next_exit] == i + 1) {
      RmsNorm& norm = *exit_norms_[next_exit];
      Linear& head = head_for_exit(static_cast<int64_t>(next_exit));
      norm.set_grad_enabled(false);
      head.set_grad_enabled(false);
      out.push_back(head.forward(norm.forward(x)).reshape({batch * seq, cfg_.vocab}));
      ++next_exit;
    }
  }
  return out;
}

void CausalLm::set_eval() {
  tok_emb_->set_grad_enabled(false);
  for (auto& b : blocks_) {
    b->set_grad_enabled(false);
    // The decode paths call child modules directly (bypassing
    // TransformerBlock::forward's flag propagation), so the children need
    // their own flags cleared too.
    b->norm1().set_grad_enabled(false);
    b->norm2().set_grad_enabled(false);
    b->attention().set_grad_enabled(false);
    b->mlp().set_grad_enabled(false);
    for (Linear* lin : b->linears()) lin->set_grad_enabled(false);
  }
  for (auto& n : exit_norms_) n->set_grad_enabled(false);
  for (auto& h : exit_heads_) h->set_grad_enabled(false);
  clear_cache();
}

void CausalLm::collect_params(std::vector<Param*>& out) {
  tok_emb_->collect_params(out);
  out.push_back(&pos_emb_);
  for (auto& b : blocks_) b->collect_params(out);
  for (auto& n : exit_norms_) n->collect_params(out);
  for (auto& h : exit_heads_) h->collect_params(out);
}

int64_t CausalLm::cached_activation_bytes() const {
  int64_t bytes = tok_emb_->cached_activation_bytes();
  for (const auto& b : blocks_) bytes += b->cached_activation_bytes();
  for (const auto& n : exit_norms_) bytes += n->cached_activation_bytes();
  for (const auto& h : exit_heads_) bytes += h->cached_activation_bytes();
  for (const Tensor& t : checkpoint_inputs_) bytes += tensor_bytes(t);
  return bytes;
}

void CausalLm::clear_cache() {
  tok_emb_->clear_cache();
  for (auto& b : blocks_) b->clear_cache();
  for (auto& n : exit_norms_) n->clear_cache();
  for (auto& h : exit_heads_) h->clear_cache();
  checkpoint_inputs_.clear();
  has_plan_ = false;
}

std::vector<TransformerBlock*> CausalLm::blocks() {
  std::vector<TransformerBlock*> out;
  out.reserve(blocks_.size());
  for (auto& b : blocks_) out.push_back(b.get());
  return out;
}

std::map<std::string, Tensor> CausalLm::state_dict() {
  std::map<std::string, Tensor> state;
  for (Param* p : params()) {
    check_arg(!state.contains(p->name), "duplicate param name: " + p->name);
    state.emplace(p->name, p->value);
  }
  return state;
}

void CausalLm::load_state_dict(const std::map<std::string, Tensor>& state) {
  for (Param* p : params()) {
    const auto it = state.find(p->name);
    check_arg(it != state.end(), "state dict missing param: " + p->name);
    check_arg(it->second.shape() == p->value.shape(),
              "state dict shape mismatch for " + p->name);
    p->value = it->second;
  }
  // Prune masks were derived from old weights; recompute them.
  for (TransformerBlock* b : blocks()) {
    for (Linear* lin : b->linears()) {
      if (lin->prune_spec()) lin->set_prune(*lin->prune_spec());
    }
  }
}

double CausalLm::weight_storage_bytes() {
  double bytes = quant::fp16_storage_bytes(tok_emb_->weight().value) +
                 quant::fp16_storage_bytes(pos_emb_.value);
  for (TransformerBlock* b : blocks()) {
    for (Linear* lin : b->linears()) bytes += lin->weight_storage_bytes();
    bytes += quant::fp16_storage_bytes(b->norm1().gain().value) +
             quant::fp16_storage_bytes(b->norm2().gain().value);
    for (Linear* lin : b->linears()) {
      if (lin->has_bias()) bytes += quant::fp16_storage_bytes(lin->bias().value);
    }
  }
  for (auto& n : exit_norms_) bytes += quant::fp16_storage_bytes(n->gain().value);
  for (auto& h : exit_heads_) bytes += quant::fp16_storage_bytes(h->weight().value);
  return bytes;
}

}  // namespace edgellm::nn

#include "serve/kv_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/tensor.hpp"

namespace edgellm::serve {

const char* to_string(KvAdmitReason r) {
  switch (r) {
    case KvAdmitReason::kOk: return "ok";
    case KvAdmitReason::kByteBudget: return "kv: byte budget exceeded";
  }
  return "unknown";
}

/// One cached prefix block-chunk. A node at depth d (d = blocks.size()
/// layers) caches block_tokens positions of K/V for the token chunk
/// `tokens`, continuing its parent's prefix. refs counts live sequences
/// reading through this node; refs == 0 leaves are LRU-evictable.
struct PagedKvPool::TrieNode {
  TrieNode* parent = nullptr;
  std::vector<int64_t> tokens;   ///< this block's token ids (key in parent->children)
  std::vector<KvBlock*> blocks;  ///< one per layer
  int64_t refs = 0;
  uint64_t last_use = 0;
  bool evictable = false;  ///< currently indexed in evictable_ at last_use
  std::map<std::vector<int64_t>, std::unique_ptr<TrieNode>> children;
};

namespace {

/// Identical arithmetic to KvCache::append_quantized — the bitwise
/// determinism contract between paged and contiguous storage depends on it.
void quantize_row(const float* row, int64_t kv_dim, int8_t* out, float* scale_out) {
  float maxabs = 0.0f;
  for (int64_t d = 0; d < kv_dim; ++d) maxabs = std::max(maxabs, std::fabs(row[d]));
  const float scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  *scale_out = scale;
  for (int64_t d = 0; d < kv_dim; ++d) {
    out[d] = static_cast<int8_t>(std::clamp(std::round(row[d] / scale), -127.0f, 127.0f));
  }
}

void dequantize_row(const int8_t* row, float scale, int64_t kv_dim, float* out) {
  for (int64_t d = 0; d < kv_dim; ++d) out[d] = static_cast<float>(row[d]) * scale;
}

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

// --- PagedKvSeq -------------------------------------------------------------

void PagedKvSeq::append(int64_t layer, const float* k, const float* v) {
  check_arg(layer >= 0 && layer < depth_, "PagedKvSeq::append: layer out of range");
  const size_t li = static_cast<size_t>(layer);
  const int64_t pos = len_[li];
  const int64_t bi = pos / block_tokens_;
  const int64_t off = pos % block_tokens_;
  auto& row = table_[li];
  if (bi < owned_from_[li]) {
    // Appending into a partially-consumed shared block: fork it. The shared
    // block stays read-only for its other readers; rows [0, off) are copied
    // (quantized payload and scales verbatim, so dequantisation stays
    // bitwise identical) into a private block that takes its table entry.
    KvBlock* shared = row[static_cast<size_t>(bi)];
    KvBlock* own = pool_->allocate_block();
    if (quantize_) {
      std::memcpy(own->kq.data(), shared->kq.data(), static_cast<size_t>(off * kv_dim_));
      std::memcpy(own->vq.data(), shared->vq.data(), static_cast<size_t>(off * kv_dim_));
      std::memcpy(own->k_scales.data(), shared->k_scales.data(),
                  static_cast<size_t>(off) * sizeof(float));
      std::memcpy(own->v_scales.data(), shared->v_scales.data(),
                  static_cast<size_t>(off) * sizeof(float));
    } else {
      std::memcpy(own->k.data(), shared->k.data(),
                  static_cast<size_t>(off * kv_dim_) * sizeof(float));
      std::memcpy(own->v.data(), shared->v.data(),
                  static_cast<size_t>(off * kv_dim_) * sizeof(float));
    }
    row[static_cast<size_t>(bi)] = own;
    owned_from_[li] = bi;
    ++cow_forks_;
    pool_->count_cow_fork();
  } else if (bi == static_cast<int64_t>(row.size())) {
    row.push_back(pool_->allocate_block());
  }
  KvBlock* blk = row[static_cast<size_t>(bi)];
  if (quantize_) {
    quantize_row(k, kv_dim_, blk->kq.data() + off * kv_dim_,
                 blk->k_scales.data() + off);
    quantize_row(v, kv_dim_, blk->vq.data() + off * kv_dim_,
                 blk->v_scales.data() + off);
  } else {
    std::memcpy(blk->k.data() + off * kv_dim_, k,
                static_cast<size_t>(kv_dim_) * sizeof(float));
    std::memcpy(blk->v.data() + off * kv_dim_, v,
                static_cast<size_t>(kv_dim_) * sizeof(float));
  }
  ++len_[li];
}

void PagedKvSeq::load_k(int64_t layer, int64_t pos, float* out) const {
  const size_t li = static_cast<size_t>(layer);
  const KvBlock* blk = table_[li][static_cast<size_t>(pos / block_tokens_)];
  const int64_t off = pos % block_tokens_;
  if (quantize_) {
    dequantize_row(blk->kq.data() + off * kv_dim_, blk->k_scales[static_cast<size_t>(off)],
                   kv_dim_, out);
  } else {
    std::memcpy(out, blk->k.data() + off * kv_dim_,
                static_cast<size_t>(kv_dim_) * sizeof(float));
  }
}

void PagedKvSeq::load_v(int64_t layer, int64_t pos, float* out) const {
  const size_t li = static_cast<size_t>(layer);
  const KvBlock* blk = table_[li][static_cast<size_t>(pos / block_tokens_)];
  const int64_t off = pos % block_tokens_;
  if (quantize_) {
    dequantize_row(blk->vq.data() + off * kv_dim_, blk->v_scales[static_cast<size_t>(off)],
                   kv_dim_, out);
  } else {
    std::memcpy(out, blk->v.data() + off * kv_dim_,
                static_cast<size_t>(kv_dim_) * sizeof(float));
  }
}

void PagedKvSeq::rows(int64_t layer, int64_t n, const float** k, const float** v) const {
  const auto& row = table_[static_cast<size_t>(layer)];
  for (int64_t p0 = 0; p0 < n; p0 += block_tokens_) {
    const KvBlock* blk = row[static_cast<size_t>(p0 / block_tokens_)];
    const int64_t m = std::min(block_tokens_, n - p0);
    for (int64_t i = 0; i < m; ++i) {
      k[p0 + i] = quantize_ ? nullptr : blk->k.data() + i * kv_dim_;
      v[p0 + i] = quantize_ ? nullptr : blk->v.data() + i * kv_dim_;
    }
  }
}

void PagedKvSeq::truncate(int64_t n) {
  check_arg(n >= 0, "PagedKvSeq::truncate: n must be >= 0");
  pool_->truncate_seq(this, n);
}

int64_t PagedKvSeq::positions(int64_t layer) const {
  check_arg(layer >= 0 && layer < depth_, "PagedKvSeq::positions: layer out of range");
  return len_[static_cast<size_t>(layer)];
}

int64_t PagedKvSeq::bytes() const {
  int64_t owned = 0;
  for (size_t l = 0; l < table_.size(); ++l) {
    owned += static_cast<int64_t>(table_[l].size()) - owned_from_[l];
  }
  return owned * pool_->block_bytes();
}

// --- PagedKvPool ------------------------------------------------------------

PagedKvPool::PagedKvPool(KvPoolConfig cfg) : cfg_(cfg) {
  check_arg(cfg_.n_slots > 0, "PagedKvPool: n_slots must be positive");
  check_arg(cfg_.max_seq > 0, "PagedKvPool: max_seq must be positive");
  check_arg(cfg_.block_tokens > 0, "PagedKvPool: block_tokens must be positive");
  check_arg(cfg_.n_layers > 0, "PagedKvPool: n_layers must be positive");
  check_arg(cfg_.kv_dim > 0, "PagedKvPool: kv_dim must be positive");
  check_arg(cfg_.byte_budget >= 0, "PagedKvPool: byte_budget must be >= 0");
  // One full batch of full-context sequences: with no byte budget this is
  // all that bounds the prefix trie, and it is never less than what the
  // live batch itself could publish in one round of releases.
  max_cached_blocks_ =
      cfg_.n_slots * ceil_div(cfg_.max_seq, cfg_.block_tokens) * cfg_.n_layers;
  root_ = std::make_unique<TrieNode>();
  if (cfg_.registry != nullptr) {
    c_acquired_ = &cfg_.registry->counter("kv/acquired");
    c_rejected_ = &cfg_.registry->counter("kv/rejected");
    c_released_ = &cfg_.registry->counter("kv/released");
    c_prefix_hit_ = &cfg_.registry->counter("kv/prefix_hit");
    c_prefix_miss_ = &cfg_.registry->counter("kv/prefix_miss");
    c_prefix_hit_tokens_ = &cfg_.registry->counter("kv/prefix_hit_tokens");
    c_evicted_blocks_ = &cfg_.registry->counter("kv/evicted_blocks");
    c_cow_forks_ = &cfg_.registry->counter("kv/cow_forks");
    g_bytes_ = &cfg_.registry->gauge("kv/bytes_in_use");
    g_committed_ = &cfg_.registry->gauge("kv/committed_bytes");
    g_high_water_ = &cfg_.registry->gauge("kv/high_water_bytes");
    g_blocks_ = &cfg_.registry->gauge("kv/blocks_in_use");
    g_blocks_cached_ = &cfg_.registry->gauge("kv/blocks_cached");
  }
}

PagedKvPool::~PagedKvPool() = default;

int64_t PagedKvPool::block_bytes() const {
  return cfg_.block_tokens * nn::KvCache::bytes_per_position(1, cfg_.kv_dim, cfg_.quantize);
}

int64_t PagedKvPool::projected_bytes(int64_t positions, int64_t n_layers) const {
  return ceil_div(positions, cfg_.block_tokens) * n_layers * block_bytes();
}

void PagedKvPool::count_cow_fork() {
  if (c_cow_forks_ != nullptr) c_cow_forks_->add();
}

int64_t PagedKvPool::node_bytes_locked(const TrieNode& n) const {
  return static_cast<int64_t>(n.blocks.size()) * block_bytes();
}

void PagedKvPool::touch_locked(TrieNode* n) {
  if (n->evictable) evictable_.erase(n->last_use);
  n->last_use = ++lru_clock_;
  if (n->evictable) evictable_.emplace(n->last_use, n);
}

void PagedKvPool::sync_evictable_locked(TrieNode* n) {
  const bool want = n != root_.get() && n->children.empty() && n->refs == 0;
  if (want == n->evictable) return;
  if (want) {
    evictable_.emplace(n->last_use, n);
  } else {
    evictable_.erase(n->last_use);
  }
  n->evictable = want;
}

PagedKvPool::TrieNode* PagedKvPool::pin_locked(TrieNode* n) {
  if (n->refs++ == 0) {
    pinned_bytes_ += node_bytes_locked(*n);
    sync_evictable_locked(n);
  }
  touch_locked(n);
  return n;
}

void PagedKvPool::unpin_locked(TrieNode* n) {
  if (--n->refs == 0) {
    pinned_bytes_ -= node_bytes_locked(*n);
    sync_evictable_locked(n);
  }
}

void PagedKvPool::recycle_block_locked(KvBlock* b) {
  free_.push_back(b);
  --allocated_blocks_;
}

bool PagedKvPool::evict_one_locked() {
  // LRU leaf with no live readers — the head of the evictable index, so
  // eviction never re-walks the trie while workers wait on the pool mutex.
  // Interior nodes join the index as their last child goes, so repeated
  // calls peel a dead subtree bottom-up; a node whose descendant is pinned
  // is never a leaf and survives.
  if (evictable_.empty()) return false;
  TrieNode* best = evictable_.begin()->second;
  evictable_.erase(evictable_.begin());
  best->evictable = false;
  const int64_t d = static_cast<int64_t>(best->blocks.size());
  for (KvBlock* b : best->blocks) recycle_block_locked(b);
  cached_blocks_ -= d;
  if (c_evicted_blocks_ != nullptr) c_evicted_blocks_->add(d);
  TrieNode* parent = best->parent;
  parent->children.erase(best->tokens);  // destroys best
  sync_evictable_locked(parent);
  return true;
}

KvBlock* PagedKvPool::allocate_block_locked() {
  const int64_t bb = block_bytes();
  if (cfg_.byte_budget > 0) {
    while ((allocated_blocks_ + 1) * bb > cfg_.byte_budget && evict_one_locked()) {
    }
    // Admission reserved every live sequence's worst-case incremental blocks
    // and counted pinned shared blocks, so once the evictable cache is gone
    // the budget must fit — anything else is an accounting bug, not a
    // recoverable condition.
    check_arg((allocated_blocks_ + 1) * bb <= cfg_.byte_budget,
              "PagedKvPool: block allocation exceeded the byte budget (reservation bug)");
  }
  KvBlock* b = nullptr;
  if (!free_.empty()) {
    b = free_.back();
    free_.pop_back();
  } else {
    auto fresh = std::make_unique<KvBlock>();
    const size_t payload = static_cast<size_t>(cfg_.block_tokens * cfg_.kv_dim);
    const size_t rows = static_cast<size_t>(cfg_.block_tokens);
    if (cfg_.quantize) {
      fresh->kq.resize(payload);
      fresh->vq.resize(payload);
      fresh->k_scales.resize(rows);
      fresh->v_scales.resize(rows);
    } else {
      fresh->k.resize(payload);
      fresh->v.resize(payload);
    }
    b = fresh.get();
    blocks_.push_back(std::move(fresh));
  }
  ++allocated_blocks_;
  high_water_ = std::max(high_water_, allocated_blocks_ * bb);
  return b;
}

KvBlock* PagedKvPool::allocate_block() {
  std::lock_guard<std::mutex> lk(mu_);
  KvBlock* b = allocate_block_locked();
  update_gauges_locked();
  return b;
}

void PagedKvPool::truncate_seq(PagedKvSeq* seq, int64_t n) {
  const int64_t bt = cfg_.block_tokens;
  std::lock_guard<std::mutex> lk(mu_);
  bool changed = false;
  for (size_t li = 0; li < seq->table_.size(); ++li) {
    const int64_t new_len = std::min(seq->len_[li], n);
    seq->len_[li] = new_len;
    const int64_t keep = ceil_div(new_len, bt);
    auto& row = seq->table_[li];
    for (int64_t bi = keep; bi < static_cast<int64_t>(row.size()); ++bi) {
      // Owned blocks past the new tail go back to the free list. Shared
      // columns are the trie's, not ours (this sequence holds pins, not
      // ownership): their pointers are simply dropped from the table, and
      // the pins keep the nodes resident until release. A later append
      // into the shared region copy-on-write forks exactly like a partial
      // prefix match — clamping owned_from_ below keeps every entry
      // < owned_from_ shared, so the fork can never scribble on a trie
      // block. Note: truncating below shared_len() may let the sequence
      // re-append those positions as owned blocks beyond its incremental
      // reservation; the engine never does (it only rewinds drafted
      // positions, always past the prompt), so only budget-unlimited
      // callers may cross it.
      if (bi >= seq->owned_from_[li]) {
        recycle_block_locked(row[static_cast<size_t>(bi)]);
        changed = true;
      }
    }
    if (static_cast<int64_t>(row.size()) > keep) {
      row.resize(static_cast<size_t>(keep));
      changed = true;
    }
    seq->owned_from_[li] = std::min(seq->owned_from_[li], keep);
  }
  if (changed) update_gauges_locked();
}

PagedKvPool::AcquireResult PagedKvPool::acquire(const std::vector<int64_t>& prompt,
                                                int64_t projected_positions,
                                                int64_t n_layers) {
  check_arg(projected_positions > 0 && n_layers > 0 && n_layers <= cfg_.n_layers,
            "PagedKvPool::acquire: bad positions/layers");
  check_arg(static_cast<int64_t>(prompt.size()) <= projected_positions,
            "PagedKvPool::acquire: projection smaller than the prompt");
  AcquireResult res;
  const int64_t bt = cfg_.block_tokens;
  const int64_t bb = block_bytes();
  std::lock_guard<std::mutex> lk(mu_);

  // Prefix match. Full-block descent first, then the longest in-block
  // agreement among the next children (served up to the divergence point,
  // copy-on-write on first append). Reuse never covers the last prompt
  // token — it must decode so the request's first sampled logits exist —
  // and only nodes at least n_layers deep can serve this sequence.
  const int64_t usable = static_cast<int64_t>(prompt.size()) - 1;
  std::vector<TrieNode*> path;
  TrieNode* node = root_.get();
  int64_t matched = 0;
  while (matched + bt <= usable) {
    std::vector<int64_t> chunk(prompt.begin() + matched, prompt.begin() + matched + bt);
    auto it = node->children.find(chunk);
    if (it == node->children.end()) break;
    if (static_cast<int64_t>(it->second->blocks.size()) < n_layers) break;
    node = it->second.get();
    path.push_back(node);
    matched += bt;
  }
  TrieNode* partial = nullptr;
  int64_t partial_len = 0;
  for (auto& [key, child] : node->children) {
    if (static_cast<int64_t>(child->blocks.size()) < n_layers) continue;
    int64_t agree = 0;
    while (agree < bt && matched + agree < usable &&
           key[static_cast<size_t>(agree)] == prompt[static_cast<size_t>(matched + agree)]) {
      ++agree;
    }
    if (agree > partial_len) {
      partial_len = agree;
      partial = child.get();
    }
  }
  const int64_t prefix_tokens = matched + partial_len;

  // Admission: reserve worst-case *incremental* blocks (total projected
  // minus fully shared — a partially shared block still needs an owned
  // copy-on-write replacement), and account shared blocks this request
  // newly pins so a later admission cannot strand an allocation.
  int64_t pin_delta = 0;
  for (TrieNode* p : path) {
    if (p->refs == 0) pin_delta += node_bytes_locked(*p);
  }
  if (partial != nullptr && partial->refs == 0) pin_delta += node_bytes_locked(*partial);
  const int64_t owned_per_layer = ceil_div(projected_positions, bt) -
                                  static_cast<int64_t>(path.size());
  const int64_t reserve = owned_per_layer * n_layers * bb;
  if (cfg_.byte_budget > 0 &&
      committed_ + pinned_bytes_ + pin_delta + reserve > cfg_.byte_budget) {
    if (c_rejected_ != nullptr) c_rejected_->add();
    res.reason = KvAdmitReason::kByteBudget;
    return res;
  }

  auto seq = std::unique_ptr<PagedKvSeq>(new PagedKvSeq());
  seq->pool_ = this;
  seq->depth_ = n_layers;
  seq->kv_dim_ = cfg_.kv_dim;
  seq->block_tokens_ = bt;
  seq->quantize_ = cfg_.quantize;
  seq->shared_len_ = prefix_tokens;
  seq->reserved_bytes_ = reserve;
  const int64_t shared_entries = static_cast<int64_t>(path.size()) + (partial != nullptr ? 1 : 0);
  seq->table_.resize(static_cast<size_t>(n_layers));
  seq->owned_from_.assign(static_cast<size_t>(n_layers), shared_entries);
  seq->len_.assign(static_cast<size_t>(n_layers), prefix_tokens);
  for (int64_t l = 0; l < n_layers; ++l) {
    auto& row = seq->table_[static_cast<size_t>(l)];
    for (TrieNode* p : path) row.push_back(p->blocks[static_cast<size_t>(l)]);
    if (partial != nullptr) row.push_back(partial->blocks[static_cast<size_t>(l)]);
  }
  for (TrieNode* p : path) seq->pins_.push_back(pin_locked(p));
  if (partial != nullptr) seq->pins_.push_back(pin_locked(partial));
  committed_ += reserve;

  if (c_acquired_ != nullptr) c_acquired_->add();
  if (prefix_tokens > 0) {
    if (c_prefix_hit_ != nullptr) c_prefix_hit_->add();
    if (c_prefix_hit_tokens_ != nullptr) c_prefix_hit_tokens_->add(prefix_tokens);
  } else if (c_prefix_miss_ != nullptr) {
    c_prefix_miss_->add();
  }
  update_gauges_locked();

  res.seq = seq.get();
  res.prefix_tokens = prefix_tokens;
  live_[res.seq] = std::move(seq);
  return res;
}

void PagedKvPool::release(PagedKvSeq* seq, const std::vector<int64_t>& tokens, bool reuse) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = live_.find(seq);
  check_arg(it != live_.end(), "PagedKvPool::release: not a live sequence");
  for (void* p : seq->pins_) unpin_locked(static_cast<TrieNode*>(p));
  seq->pins_.clear();
  committed_ -= seq->reserved_bytes_;

  const int64_t bt = cfg_.block_tokens;
  const int64_t depth = seq->depth_;
  const int64_t cached_pos = seq->len_.empty() ? 0 : seq->len_[0];
  check_arg(!reuse || static_cast<int64_t>(tokens.size()) >= cached_pos,
            "PagedKvPool::release: token list shorter than cached positions");
  const int64_t n_full = reuse ? cached_pos / bt : 0;
  // Column count: the max across layers, not layer 0's. A failed decode
  // (reuse=false) may have torn mid-tick, leaving some layers a block
  // ahead of others — every owned block must still be recycled.
  int64_t cols = 0;
  for (const auto& row : seq->table_) {
    cols = std::max<int64_t>(cols, static_cast<int64_t>(row.size()));
  }

  // Walk the sequence's block columns left to right. Full columns are
  // donated to the trie (transfer ownership) or, when the trie already has
  // that prefix, recycled as duplicates; a deeper column replaces an
  // unreferenced shallower cached node so depth coverage only grows. The
  // partial tail — and everything when the decode failed (reuse=false:
  // contents untrusted) — is recycled.
  TrieNode* cursor = root_.get();
  bool inserting = reuse;
  for (int64_t bi = 0; bi < cols; ++bi) {
    bool owned_all = true;
    for (size_t l = 0; l < seq->table_.size(); ++l) {
      owned_all = owned_all && bi >= seq->owned_from_[l];
    }
    if (inserting && bi < n_full) {
      std::vector<int64_t> chunk(tokens.begin() + bi * bt, tokens.begin() + (bi + 1) * bt);
      auto cit = cursor->children.find(chunk);
      if (cit != cursor->children.end()) {
        TrieNode* child = cit->second.get();
        if (owned_all && static_cast<int64_t>(child->blocks.size()) < depth &&
            child->refs == 0) {
          cached_blocks_ -= static_cast<int64_t>(child->blocks.size());
          for (KvBlock* b : child->blocks) recycle_block_locked(b);
          child->blocks.clear();
          for (int64_t l = 0; l < depth; ++l) {
            child->blocks.push_back(seq->table_[static_cast<size_t>(l)][static_cast<size_t>(bi)]);
          }
          cached_blocks_ += depth;
        } else if (owned_all) {
          for (int64_t l = 0; l < depth; ++l) {
            recycle_block_locked(seq->table_[static_cast<size_t>(l)][static_cast<size_t>(bi)]);
          }
        }
        touch_locked(child);
        cursor = child;
      } else if (owned_all) {
        auto fresh = std::make_unique<TrieNode>();
        fresh->parent = cursor;
        fresh->tokens = chunk;
        for (int64_t l = 0; l < depth; ++l) {
          fresh->blocks.push_back(seq->table_[static_cast<size_t>(l)][static_cast<size_t>(bi)]);
        }
        fresh->last_use = ++lru_clock_;
        cached_blocks_ += depth;
        TrieNode* raw = fresh.get();
        cursor->children[chunk] = std::move(fresh);
        sync_evictable_locked(cursor);  // gained a child: no longer a leaf
        cursor = raw;
        sync_evictable_locked(raw);  // unreferenced leaf until pinned/extended
      } else {
        // A shared column absent from the trie cannot happen (shared nodes
        // stay resident while we hold them); stop donating defensively.
        inserting = false;
      }
    } else {
      for (size_t l = 0; l < seq->table_.size(); ++l) {
        if (bi >= seq->owned_from_[l] &&
            bi < static_cast<int64_t>(seq->table_[l].size())) {
          recycle_block_locked(seq->table_[l][static_cast<size_t>(bi)]);
        }
      }
      inserting = false;
    }
  }

  // Bound the trie: without a byte budget nothing else would ever evict, and
  // every published release would keep its blocks forever.
  while (cached_blocks_ > max_cached_blocks_ && evict_one_locked()) {
  }

  if (c_released_ != nullptr) c_released_->add();
  live_.erase(it);
  update_gauges_locked();
}

void PagedKvPool::update_gauges_locked() {
  if (g_bytes_ != nullptr) g_bytes_->set(allocated_blocks_ * block_bytes());
  if (g_committed_ != nullptr) g_committed_->set(committed_ + pinned_bytes_);
  if (g_high_water_ != nullptr) g_high_water_->set(high_water_);
  if (g_blocks_ != nullptr) g_blocks_->set(allocated_blocks_);
  if (g_blocks_cached_ != nullptr) g_blocks_cached_->set(cached_blocks_);
}

int64_t PagedKvPool::committed_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return committed_ + pinned_bytes_;
}

int64_t PagedKvPool::bytes_in_use() const {
  std::lock_guard<std::mutex> lk(mu_);
  return allocated_blocks_ * block_bytes();
}

int64_t PagedKvPool::high_water_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return high_water_;
}

int64_t PagedKvPool::seqs_in_use() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int64_t>(live_.size());
}

int64_t PagedKvPool::allocated_blocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return allocated_blocks_;
}

int64_t PagedKvPool::cached_blocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cached_blocks_;
}

int64_t PagedKvPool::free_blocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int64_t>(free_.size());
}

int64_t PagedKvPool::total_blocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int64_t>(blocks_.size());
}

std::string PagedKvPool::audit() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<const KvBlock*, int64_t> owners;
  std::unordered_map<const TrieNode*, int64_t> pins;
  int64_t cached = 0;
  int64_t pinned = 0;
  std::vector<const TrieNode*> stack = {root_.get()};
  while (!stack.empty()) {
    const TrieNode* n = stack.back();
    stack.pop_back();
    for (const auto& [key, child] : n->children) stack.push_back(child.get());
    if (n == root_.get()) continue;
    cached += static_cast<int64_t>(n->blocks.size());
    if (n->refs > 0) pinned += node_bytes_locked(*n);
    for (const KvBlock* b : n->blocks) ++owners[b];
    const bool leaf_unreferenced = n->children.empty() && n->refs == 0;
    const auto ev = evictable_.find(n->last_use);
    const bool indexed = ev != evictable_.end() && ev->second == n;
    if (leaf_unreferenced != n->evictable || n->evictable != indexed) {
      return "trie node's eviction index entry disagrees with its refs/children";
    }
    pins[n] = 0;
  }
  int64_t reserved = 0;
  for (const auto& [key, seq] : live_) {
    reserved += seq->reserved_bytes_;
    for (void* p : seq->pins_) {
      auto pit = pins.find(static_cast<const TrieNode*>(p));
      if (pit == pins.end()) return "live sequence pins a node that is not in the trie";
      ++pit->second;
    }
    for (size_t l = 0; l < seq->table_.size(); ++l) {
      const auto& row = seq->table_[l];
      for (size_t bi = 0; bi < row.size(); ++bi) {
        const bool shared = static_cast<int64_t>(bi) < seq->owned_from_[l];
        if (!shared) {
          ++owners[row[bi]];
        } else if (owners.count(row[bi]) == 0) {
          return "shared table entry does not point at a trie block";
        }
      }
    }
  }
  for (const auto& [node, n] : pins) {
    if (node->refs != n) return "trie node refcount != live sequences pinning it";
  }
  for (const auto& [block, n] : owners) {
    if (n != 1) return "block owned more than once";
  }
  for (const KvBlock* b : free_) {
    if (owners.count(b) != 0) return "free-listed block is still owned";
  }
  if (static_cast<int64_t>(owners.size()) != allocated_blocks_) {
    return "allocated_blocks != blocks owned by live sequences and the trie";
  }
  if (allocated_blocks_ + static_cast<int64_t>(free_.size()) !=
      static_cast<int64_t>(blocks_.size())) {
    return "allocated + free != blocks ever constructed";
  }
  if (cached != cached_blocks_) return "cached_blocks != blocks held by trie nodes";
  if (pinned != pinned_bytes_) return "pinned bytes != bytes of referenced trie nodes";
  if (reserved != committed_) return "committed != live sequences' reservations";
  return "";
}

}  // namespace edgellm::serve

#include "hw/measured.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "nn/model.hpp"
#include "quant/packed.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "tensor/simd.hpp"

namespace edgellm::hw {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Key components are joined with '|'; spaces/tabs/newlines inside a
// component would corrupt the line-based file format, so strip them.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '|' || c == '\t' || c == '\n' || c == ' ') c = '_';
  }
  return out;
}

std::string join_dims(const std::vector<int64_t>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

int order_to_int(LoopOrder o) { return static_cast<int>(o); }

std::optional<LoopOrder> order_from_int(int v) {
  if (v < 0 || v >= static_cast<int>(std::size(kAllLoopOrders))) return std::nullopt;
  return static_cast<LoopOrder>(v);
}

Tensor seeded_operand(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

// min-of-reps wall time of fn(), in ms.
template <typename F>
double time_best_ms(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < std::max(1, reps); ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

}  // namespace

// --- ScheduleCache ----------------------------------------------------------

std::string ScheduleCache::sim_key(const DeviceModel& dev, const GemmWorkload& gemm,
                                   double available_sram, const SearchConfig& cfg, bool pinned) {
  std::ostringstream os;
  os << "sim|" << sanitize(dev.name) << "|sram" << static_cast<int64_t>(dev.sram_bytes) << "|"
     << sanitize(gemm.name) << "|m" << gemm.m << "n" << gemm.n << "k" << gemm.k << "c"
     << gemm.count << "|b" << gemm.weight_bits << "|sp" << gemm.sparsity
     << (gemm.structured ? "s" : "u") << "|avail" << static_cast<int64_t>(available_sram)
     << "|t" << join_dims(cfg.tile_candidates) << "|db" << (cfg.allow_double_buffer ? 1 : 0)
     << "|pin" << (pinned ? 1 : 0);
  return os.str();
}

std::string ScheduleCache::measured_key(ops::gemm::GemmKind kind, int64_t m, int64_t k, int64_t n,
                                        int bits, const std::vector<int64_t>& mc,
                                        const std::vector<int64_t>& kc,
                                        const std::vector<int64_t>& nc, int reps) {
  std::ostringstream os;
  // The active SIMD backend is part of the key: a schedule measured under
  // the scalar kernels is not evidence about the vector kernels' cache
  // behaviour (and vice versa), so each dispatch choice tunes separately.
  os << "measured|" << ops::gemm::to_string(kind) << "|m" << m << "k" << k << "n" << n << "|b"
     << bits << "|mc" << join_dims(mc) << "|kc" << join_dims(kc) << "|nc" << join_dims(nc)
     << "|r" << reps << "|isa" << simd::to_string(simd::active_isa());
  return os.str();
}

std::optional<ScheduleRecord> ScheduleCache::find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void ScheduleCache::put(const std::string& key, const ScheduleRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key] = rec;
}

bool ScheduleCache::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string header;
  if (!std::getline(in, header) || header != "edgellm-schedule-cache v1") return false;

  std::map<std::string, ScheduleRecord> loaded;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // key \t backend \t tm tn tk order db pin \t metric \t baseline
    std::vector<std::string> fields;
    size_t pos = 0;
    while (true) {
      const size_t tab = line.find('\t', pos);
      fields.push_back(line.substr(pos, tab == std::string::npos ? tab : tab - pos));
      if (tab == std::string::npos) break;
      pos = tab + 1;
    }
    if (fields.size() != 5) return false;
    ScheduleRecord rec;
    rec.backend = fields[1];
    if (rec.backend != "sim" && rec.backend != "measured") return false;
    std::istringstream sched(fields[2]);
    int order = 0, db = 0, pin = 0;
    if (!(sched >> rec.schedule.tile_m >> rec.schedule.tile_n >> rec.schedule.tile_k >> order >>
          db >> pin)) {
      return false;
    }
    const auto o = order_from_int(order);
    if (!o || rec.schedule.tile_m <= 0 || rec.schedule.tile_n <= 0 || rec.schedule.tile_k <= 0) {
      return false;
    }
    rec.schedule.order = *o;
    rec.schedule.double_buffer = db != 0;
    rec.schedule.pin_weights = pin != 0;
    try {
      rec.metric = std::stod(fields[3]);
      rec.baseline = std::stod(fields[4]);
    } catch (const std::exception&) {
      return false;
    }
    loaded[fields[0]] = rec;
  }

  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(loaded);
  return true;
}

bool ScheduleCache::save(const std::string& path) const {
  std::map<std::string, ScheduleRecord> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = entries_;
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << "edgellm-schedule-cache v1\n";
    for (const auto& [key, rec] : snapshot) {
      out << key << '\t' << rec.backend << '\t' << rec.schedule.tile_m << ' '
          << rec.schedule.tile_n << ' ' << rec.schedule.tile_k << ' '
          << order_to_int(rec.schedule.order) << ' ' << (rec.schedule.double_buffer ? 1 : 0)
          << ' ' << (rec.schedule.pin_weights ? 1 : 0) << '\t' << rec.metric << '\t'
          << rec.baseline << '\n';
    }
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

int64_t ScheduleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

int64_t ScheduleCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t ScheduleCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void ScheduleCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

// --- cached analytical search -----------------------------------------------

GemmPlan search_gemm_cached(const DeviceModel& dev, const GemmWorkload& gemm,
                            double available_sram, const SearchConfig& cfg, bool pinned,
                            ScheduleCache* cache) {
  const std::string key =
      cache != nullptr ? ScheduleCache::sim_key(dev, gemm, available_sram, cfg, pinned)
                       : std::string();
  if (cache != nullptr) {
    if (const auto rec = cache->find(key)) {
      // Re-cost the stored schedule (cheap) instead of re-searching; if the
      // record no longer fits (e.g. hand-edited file), fall through.
      GemmPlan p;
      p.gemm = gemm;
      p.schedule = rec->schedule;
      p.cost = evaluate_schedule(dev, gemm, rec->schedule, available_sram);
      if (p.cost.feasible) return p;
    }
  }
  GemmPlan p = pinned ? search_gemm_pinned(dev, gemm, available_sram, cfg)
                      : search_gemm(dev, gemm, available_sram, cfg);
  if (cache != nullptr && p.cost.feasible) {
    ScheduleRecord rec;
    rec.backend = "sim";
    rec.schedule = p.schedule;
    rec.metric = p.cost.cycles;
    cache->put(key, rec);
  }
  return p;
}

// --- MeasuredBackend --------------------------------------------------------

MeasuredBackend::MeasuredBackend(MeasuredConfig cfg, ScheduleCache* cache)
    : cfg_(std::move(cfg)), cache_(cache) {
  check_arg(!cfg_.mc_candidates.empty() && !cfg_.kc_candidates.empty() &&
                !cfg_.nc_candidates.empty(),
            "MeasuredBackend: empty candidate list");
  check_arg(cfg_.reps >= 1, "MeasuredBackend: reps must be >= 1");
}

TuneResult MeasuredBackend::tune(ops::gemm::GemmKind kind, int64_t m, int64_t k, int64_t n,
                                 int bits) {
  using ops::gemm::Blocking;
  using ops::gemm::GemmKind;
  check_arg(m > 0 && k > 0 && n > 0, "MeasuredBackend::tune: shape must be positive");
  const bool packed = kind == GemmKind::kPackedNT;
  check_arg(!packed || bits == 4 || bits == 8,
            "MeasuredBackend::tune: packed tuning needs bits 4 or 8");

  const std::string key = ScheduleCache::measured_key(
      kind, m, k, n, packed ? bits : 32, cfg_.mc_candidates, cfg_.kc_candidates,
      cfg_.nc_candidates, cfg_.reps);
  if (cache_ != nullptr) {
    if (const auto rec = cache_->find(key)) {
      if (rec->backend == "measured" && rec->blocking().valid()) {
        return TuneResult{rec->blocking(), rec->metric, rec->baseline, /*from_cache=*/true};
      }
    }
  }

  // Seeded operands: tuning is reproducible up to timing noise, and by the
  // bitwise contract noise can only change speed, never results.
  const uint64_t seed = 0x5EEDull ^ (static_cast<uint64_t>(m) << 32) ^
                        (static_cast<uint64_t>(k) << 16) ^ static_cast<uint64_t>(n);
  const Tensor a =
      kind == GemmKind::kTN ? seeded_operand({k, m}, seed) : seeded_operand({m, k}, seed);
  const Tensor b = kind == GemmKind::kNN || kind == GemmKind::kTN
                       ? seeded_operand({k, n}, seed + 1)
                       : seeded_operand({n, k}, seed + 1);
  quant::PackedMatrix pw;
  if (packed) pw = quant::PackedMatrix::pack(b, bits);

  // Candidate blockings, clamped to the shape and deduplicated so we never
  // time the same effective schedule twice.
  std::vector<Blocking> candidates;
  for (int64_t mc : cfg_.mc_candidates) {
    for (int64_t kc : cfg_.kc_candidates) {
      for (int64_t nc : cfg_.nc_candidates) {
        Blocking blk{std::max(ops::gemm::kMr, std::min(mc, ((m + ops::gemm::kMr - 1) /
                                                            ops::gemm::kMr) *
                                                               ops::gemm::kMr)),
                     std::max<int64_t>(1, std::min(kc, k)),
                     std::max(ops::gemm::kNr, std::min(nc, ((n + ops::gemm::kNr - 1) /
                                                            ops::gemm::kNr) *
                                                               ops::gemm::kNr))};
        if (std::find(candidates.begin(), candidates.end(), blk) == candidates.end()) {
          candidates.push_back(blk);
        }
      }
    }
  }

  TuneResult result;
  result.best_ms = 1e300;
  for (const Blocking& blk : candidates) {
    const double ms = time_best_ms(cfg_.reps, [&] {
      switch (kind) {
        case GemmKind::kNN: (void)ops::gemm::matmul_blocked(a, b, blk); break;
        case GemmKind::kNT: (void)ops::gemm::matmul_nt_blocked(a, b, blk); break;
        case GemmKind::kPackedNT: (void)quant::packed_matmul_nt_blocked(a, pw, blk); break;
        case GemmKind::kTN: (void)ops::gemm::matmul_tn_blocked(a, b, blk); break;
      }
    });
    if (ms < result.best_ms) {
      result.best_ms = ms;
      result.blocking = blk;
    }
  }

  // Baseline: the path the blocked kernel replaces.
  result.baseline_ms = time_best_ms(cfg_.reps, [&] {
    switch (kind) {
      case GemmKind::kNN: (void)ops::gemm::matmul_naive(a, b); break;
      case GemmKind::kNT: (void)ops::gemm::matmul_nt_naive(a, b); break;
      case GemmKind::kPackedNT: (void)ops::matmul_nt(a, pw.dequantize()); break;
      case GemmKind::kTN: (void)ops::gemm::matmul_tn_naive(a, b); break;
    }
  });

  if (cache_ != nullptr) {
    ScheduleRecord rec;
    rec.backend = "measured";
    rec.schedule.tile_m = result.blocking.mc;
    rec.schedule.tile_k = result.blocking.kc;
    rec.schedule.tile_n = result.blocking.nc;
    rec.metric = result.best_ms;
    rec.baseline = result.baseline_ms;
    cache_->put(key, rec);
  }
  return result;
}

TuneResult MeasuredBackend::tune_and_install(ops::gemm::GemmKind kind, int64_t m, int64_t k,
                                             int64_t n, int bits) {
  TuneResult r = tune(kind, m, k, n, bits);
  ops::gemm::set_blocking(kind, m, k, n, r.blocking);
  return r;
}

ModelTuneSummary autotune_model_gemms(MeasuredBackend& backend, nn::CausalLm& model,
                                      int64_t batch_rows) {
  using ops::gemm::GemmKind;
  check_arg(batch_rows > 0, "autotune_model_gemms: batch_rows must be positive");
  const auto t0 = Clock::now();
  ModelTuneSummary summary;

  std::set<std::tuple<int, int64_t, int64_t, int64_t, int>> seen;
  const auto tune_linear = [&](nn::Linear* lin) {
    struct Want {
      GemmKind kind;
      int bits;
    };
    std::vector<Want> wants;
    wants.push_back({GemmKind::kNT, 32});  // fp32 NT path (uncached layers, e.g. LoRA)
    if (lin->packable()) wants.push_back({GemmKind::kPackedNT, lin->quant_spec()->bits});
    for (const Want& w : wants) {
      const int64_t m = batch_rows, k = lin->in_features(), n = lin->out_features();
      // Shapes below the dispatch threshold never run blocked — skip them.
      if (!ops::gemm::use_blocked(w.kind, m, k, n)) continue;
      if (!seen.insert({static_cast<int>(w.kind), m, k, n, w.bits}).second) continue;
      const TuneResult r = backend.tune_and_install(w.kind, m, k, n, w.bits);
      ++summary.shapes_tuned;
      if (r.from_cache) ++summary.cache_hits;
    }
  };

  for (nn::TransformerBlock* b : model.blocks()) {
    for (nn::Linear* lin : b->linears()) tune_linear(lin);
  }
  const int64_t n_exits = static_cast<int64_t>(model.exit_layers().size());
  for (int64_t e = 0; e < n_exits; ++e) tune_linear(&model.exit_head(e));

  summary.tuning_ms = ms_since(t0);
  return summary;
}

}  // namespace edgellm::hw

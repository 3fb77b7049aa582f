#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace edgellm::ops::gemm {

namespace {

// --- schedule registry ------------------------------------------------------

struct ShapeKey {
  GemmKind kind;
  int64_t m, k, n;
  bool operator<(const ShapeKey& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (m != o.m) return m < o.m;
    if (k != o.k) return k < o.k;
    return n < o.n;
  }
};

struct Registry {
  std::mutex mu;
  std::map<ShapeKey, Blocking> entries;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives static dtor order
  return *r;
}

std::mutex g_metrics_mu;
obs::Registry* g_metrics = nullptr;

obs::Registry* metrics_registry() {
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  return g_metrics;
}

void record_blocked_call(const Blocking& blk, int64_t tiles, double seconds) {
  obs::Registry* reg = metrics_registry();
  if (reg == nullptr) return;
  reg->counter("gemm/blocked_calls").add(1);
  reg->counter("gemm/sched." + blk.to_string() + ".calls").add(1);
  if (seconds > 0.0) {
    reg->histogram("gemm/tiles_per_s").observe(static_cast<double>(tiles) / seconds);
  }
}

// --- B-panel packing --------------------------------------------------------
//
// A panel holds `kc` depth steps of `nc` output columns, laid out as
// column-strips of kNr: strip js occupies kc * kNr consecutive floats, with
// the kNr values of depth step p contiguous at offset (js * kc + p) * kNr.
// Columns past `n` are zero-padded so the micro-kernel always reads a full
// kNr lane (padded lanes are never stored back to C).

// Panel bases must be 32-byte aligned: strips advance by pc * kNr floats
// (a multiple of 32 bytes), so an aligned base keeps every strip and every
// depth step aligned for the vector backends' aligned panel loads.
inline void assert_panel_aligned(const float* out) {
  assert(reinterpret_cast<uintptr_t>(out) % 32 == 0 && "panel base must be 32-byte aligned");
  (void)out;
}

// B stored [k, n] (NN and TN kernels): panel[js][p][jr] = B[p0 + p][j0 + js*kNr + jr].
void pack_panel_nn(const float* b, int64_t n, int64_t p0, int64_t pc, int64_t j0, int64_t jc,
                   float* out) {
  assert_panel_aligned(out);
  const int64_t strips = (jc + kNr - 1) / kNr;
  for (int64_t js = 0; js < strips; ++js) {
    const int64_t j = j0 + js * kNr;
    const int64_t w = std::min(kNr, j0 + jc - j);
    float* dst = out + js * pc * kNr;
    if (w < kNr) {
      // Partial trailing strip: zero the whole strip in one pass, then
      // scatter the live lanes (instead of per-lane pad stores per depth).
      std::fill(dst, dst + pc * kNr, 0.0f);
    }
    for (int64_t p = 0; p < pc; ++p) {
      const float* src = b + (p0 + p) * n + j;
      float* d = dst + p * kNr;
      for (int64_t jr = 0; jr < w; ++jr) d[jr] = src[jr];
    }
  }
}

// B stored [n, k] (NT kernel): panel[js][p][jr] = B[j0 + js*kNr + jr][p0 + p].
void pack_panel_nt(const float* b, int64_t k, int64_t p0, int64_t pc, int64_t j0, int64_t jc,
                   float* out) {
  assert_panel_aligned(out);
  const int64_t strips = (jc + kNr - 1) / kNr;
  for (int64_t js = 0; js < strips; ++js) {
    const int64_t j = j0 + js * kNr;
    const int64_t w = std::min(kNr, j0 + jc - j);
    float* dst = out + js * pc * kNr;
    if (w < kNr) {
      std::fill(dst, dst + pc * kNr, 0.0f);
    }
    for (int64_t jr = 0; jr < w; ++jr) {
      const float* src = b + (j + jr) * k + p0;
      for (int64_t p = 0; p < pc; ++p) dst[p * kNr + jr] = src[p];
    }
  }
}

// Global default for the per-call fast_math flag.
std::atomic<bool> g_fast_math{false};

}  // namespace

void set_fast_math(bool on) { g_fast_math.store(on, std::memory_order_relaxed); }

bool fast_math_enabled() { return g_fast_math.load(std::memory_order_relaxed); }

// --- micro-kernel (exported via gemm.hpp detail) ----------------------------
//
// The deterministic tile kernel of whichever SIMD backend is dispatched
// (tensor/simd.hpp) — every backend implements the same per-element
// ascending-p single-chain contract, so this is bitwise stable across
// dispatch choices. The blocked drivers below resolve the table once per
// GEMM call instead of calling this per tile.
void detail::micro_kernel(const float* a, int64_t lda, const float* bp, int64_t pc, float* c,
                          int64_t ldc, int64_t mr, int64_t nr) {
  simd::kernels().gemm_tile(a, lda, bp, pc, c, ldc, mr, nr);
}

namespace {

// --- blocked driver ---------------------------------------------------------
//
// One driver serves NN, NT and TN: the layouts differ only in how B panels
// are packed and how an A row strip is addressed. Loop nest: j-blocks (NC)
// outer, k-blocks (KC) inside, so each output element accumulates its
// k-blocks in ascending order; within a (j, k) block the panel is packed
// once, then the kMr row strips run the micro-kernels. Strips own disjoint
// C rows, so any partition is bitwise identical to serial.

using TileFn = decltype(simd::KernelTable::gemm_tile);

// Shape, schedule and tile kernel of one call, shared by its batch slices.
struct Plan {
  GemmKind kind;
  int64_t m, k, n;
  int64_t kc, nc, strip_grain;
  TileFn tile;

  Plan(GemmKind kind_, int64_t m_, int64_t k_, int64_t n_, const Blocking& blk, bool fast_math)
      : kind(kind_), m(m_), k(k_), n(n_) {
    kc = std::max<int64_t>(1, std::min(blk.kc, k));
    nc = std::max(kNr, std::min(blk.nc, ((n + kNr - 1) / kNr) * kNr));
    strip_grain = std::max<int64_t>(1, blk.mc / kMr);
    const simd::KernelTable& kt = simd::kernels();
    tile = fast_math ? kt.gemm_tile_fast : kt.gemm_tile;
  }
  int64_t strips_m() const { return (m + kMr - 1) / kMr; }
  size_t panel_floats() const { return static_cast<size_t>(((nc + kNr - 1) / kNr) * kc * kNr); }
  // Room for one transposed A strip (TN only; NN/NT tile straight from A).
  size_t strip_floats() const { return kind == GemmKind::kTN ? static_cast<size_t>(kMr * kc) : 0; }
};

using PanelBuffer = std::vector<float, simd::PanelAllocator<float>>;

// Runs row strips [lo, hi) of one (j-block, k-block). For TN the strip's
// A^T rows are gathered from A's columns into `abuf` ([mr][pc]); the copy
// is exact, so the micro-kernel sees the same operands either way.
void run_strips(const Plan& pl, const float* a, const float* panel, float* c, int64_t j0,
                int64_t jc, int64_t p0, int64_t pc, int64_t lo, int64_t hi, float* abuf) {
  const int64_t jstrips = (jc + kNr - 1) / kNr;
  for (int64_t is = lo; is < hi; ++is) {
    const int64_t i0 = is * kMr;
    const int64_t mr = std::min(kMr, pl.m - i0);
    const float* arow = a + i0 * pl.k + p0;
    int64_t lda = pl.k;
    if (pl.kind == GemmKind::kTN) {
      for (int64_t p = 0; p < pc; ++p) {
        const float* src = a + (p0 + p) * pl.m + i0;
        for (int64_t r = 0; r < mr; ++r) abuf[r * pc + p] = src[r];
      }
      arow = abuf;
      lda = pc;
    }
    for (int64_t js = 0; js < jstrips; ++js) {
      const int64_t j = j0 + js * kNr;
      const int64_t nr = std::min(kNr, j0 + jc - j);
      pl.tile(arow, lda, panel + js * pc * kNr, pc, c + i0 * pl.n + j, pl.n, mr, nr);
    }
  }
}

// One GEMM slice C = op(A) op(B). With `parallel_strips` the row strips of
// each block fan out over the pool (each chunk gathers TN strips into its
// own buffer); otherwise they run inline with the caller's `abuf`.
void gemm_slice(const Plan& pl, const float* a, const float* b, float* c, float* panel,
                bool parallel_strips, float* abuf) {
  for (int64_t j0 = 0; j0 < pl.n; j0 += pl.nc) {
    const int64_t jc = std::min(pl.nc, pl.n - j0);
    for (int64_t p0 = 0; p0 < pl.k; p0 += pl.kc) {
      const int64_t pc = std::min(pl.kc, pl.k - p0);
      if (pl.kind == GemmKind::kNT) {
        pack_panel_nt(b, pl.k, p0, pc, j0, jc, panel);
      } else {
        pack_panel_nn(b, pl.n, p0, pc, j0, jc, panel);
      }
      if (!parallel_strips) {
        run_strips(pl, a, panel, c, j0, jc, p0, pc, 0, pl.strips_m(), abuf);
        continue;
      }
      parallel::parallel_for(0, pl.strips_m(), pl.strip_grain, [&](int64_t lo, int64_t hi) {
        std::vector<float> chunk_abuf(pl.strip_floats());
        run_strips(pl, a, panel, c, j0, jc, p0, pc, lo, hi, chunk_abuf.data());
      });
    }
  }
}

int64_t tile_count(const Plan& pl) {
  return pl.strips_m() * ((pl.n + kNr - 1) / kNr) * ((pl.k + pl.kc - 1) / pl.kc);
}

// check_arg with the message built only on failure: these checks run on
// every GEMM call, decode-sized ones included.
void require(bool cond, const char* what, const char* msg) {
  if (!cond) check_arg(false, std::string(what) + msg);
}

// Per-slice GEMM dims of a 2-d or batched call (batch 1 for 2-d).
struct Dims {
  int64_t batch, m, k, n;
};

Dims gemm_dims(GemmKind kind, const Tensor& a, const Tensor& b, bool batched, const char* what) {
  const int64_t r = batched ? 3 : 2;
  require(a.ndim() == r && b.ndim() == r, what,
          batched ? ": operands must be 3-d" : ": operands must be 2-d");
  const int64_t o = batched ? 1 : 0;  // first matrix axis
  if (batched) require(a.dim(0) == b.dim(0), what, ": batch sizes differ");
  Dims d{batched ? a.dim(0) : 1, 0, 0, 0};
  int64_t b_inner = 0;  // B's extent along k
  switch (kind) {
    case GemmKind::kNN:
      d.m = a.dim(o), d.k = a.dim(o + 1), d.n = b.dim(o + 1), b_inner = b.dim(o);
      break;
    case GemmKind::kNT:
    case GemmKind::kPackedNT:
      d.m = a.dim(o), d.k = a.dim(o + 1), d.n = b.dim(o), b_inner = b.dim(o + 1);
      break;
    case GemmKind::kTN:
      d.m = a.dim(o + 1), d.k = a.dim(o), d.n = b.dim(o + 1), b_inner = b.dim(o);
      break;
  }
  require(b_inner == d.k, what, ": inner dimensions differ");
  return d;
}

Tensor gemm_blocked(GemmKind kind, const Tensor& a, const Tensor& b, const Blocking& blk,
                    bool fast_math, bool batched, const char* what) {
  const Dims d = gemm_dims(kind, a, b, batched, what);
  require(blk.valid(), what, ": invalid blocking");
  Tensor c = batched ? Tensor({d.batch, d.m, d.n}) : Tensor({d.m, d.n});
  const auto t0 = std::chrono::steady_clock::now();
  const Plan pl(kind, d.m, d.k, d.n, blk, fast_math);
  const int64_t a_stride = d.m * d.k, b_stride = d.k * d.n, c_stride = d.m * d.n;
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  if (d.batch == 1) {
    PanelBuffer panel(pl.panel_floats());
    gemm_slice(pl, pa, pb, pc, panel.data(), /*parallel_strips=*/true, nullptr);
  } else {
    // Slices are independent GEMMs writing disjoint C: chunks take whole
    // slices, sized so each chunk has enough MACs to pay for a fan-out.
    const int64_t grain = std::max<int64_t>(1, 16384 / std::max<int64_t>(1, c_stride * d.k));
    parallel::parallel_for(0, d.batch, grain, [&](int64_t lo, int64_t hi) {
      PanelBuffer panel(pl.panel_floats());
      std::vector<float> abuf(pl.strip_floats());
      for (int64_t t = lo; t < hi; ++t) {
        gemm_slice(pl, pa + t * a_stride, pb + t * b_stride, pc + t * c_stride, panel.data(),
                   /*parallel_strips=*/false, abuf.data());
      }
    });
  }
  record_blocked_call(blk, d.batch * tile_count(pl),
                      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  return c;
}

}  // namespace

std::string Blocking::to_string() const {
  return "b" + std::to_string(mc) + "x" + std::to_string(kc) + "x" + std::to_string(nc);
}

Blocking default_blocking(int64_t m, int64_t k, int64_t n) {
  // KC sized so a kNr-wide panel strip (kc * kNr fp32) stays L1-resident;
  // NC bounds the packed panel to ~128 KiB of L2; MC gives parallel chunks
  // enough rows to amortise fan-out without starving the pool.
  Blocking b;
  b.kc = std::clamp<int64_t>(k, 64, 256);
  b.nc = std::clamp<int64_t>(((n + kNr - 1) / kNr) * kNr, kNr, 256);
  b.mc = std::clamp<int64_t>(((m + kMr - 1) / kMr) * kMr, kMr, 64);
  return b;
}

const char* to_string(GemmKind kind) {
  switch (kind) {
    case GemmKind::kNN: return "nn";
    case GemmKind::kNT: return "nt";
    case GemmKind::kPackedNT: return "packed_nt";
    case GemmKind::kTN: return "tn";
  }
  return "?";
}

void set_blocking(GemmKind kind, int64_t m, int64_t k, int64_t n, const Blocking& b) {
  check_arg(b.valid(), "set_blocking: invalid blocking " + b.to_string());
  check_arg(m > 0 && k > 0 && n > 0, "set_blocking: shape must be positive");
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.entries[ShapeKey{kind, m, k, n}] = b;
}

Blocking blocking_for(GemmKind kind, int64_t m, int64_t k, int64_t n) {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.entries.find(ShapeKey{kind, m, k, n});
    if (it != r.entries.end()) return it->second;
  }
  return default_blocking(m, k, n);
}

bool has_blocking(GemmKind kind, int64_t m, int64_t k, int64_t n) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.entries.count(ShapeKey{kind, m, k, n}) != 0;
}

void clear_blockings() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.entries.clear();
}

int64_t registered_blockings() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return static_cast<int64_t>(r.entries.size());
}

void set_metrics_registry(obs::Registry* r) {
  std::lock_guard<std::mutex> lock(g_metrics_mu);
  g_metrics = r;
}

bool use_blocked(GemmKind kind, int64_t m, int64_t k, int64_t n, int64_t batch) {
  // The packed kernel's scalar reference pays a bounds-checked value_at per
  // MAC, so bulk panel decode wins from tiny shapes up (single-token decode
  // rows included). The dense kinds were measured at one thread
  // (docs/PERFORMANCE.md, "Cut-over"): from 2k MACs per slice the blocked
  // kernel beat the naive loops on every shape of two or more rows for 2-d
  // NN/NT, and of one full kMr strip or more for TN and batched (the naive
  // TN loop reads A down its columns, the batched ones run one short dot
  // product or row update per output row). A single row reads each B
  // element once either way, so packing B for it rarely pays.
  if (n < kNr || m < 1 || k < 1) return false;
  if (kind == GemmKind::kPackedNT) return m * k * n >= 4096;
  const int64_t min_rows = kind == GemmKind::kTN || batch > 1 ? kMr : 2;
  return m >= min_rows && m * k * n >= 2048;
}

Tensor matmul_blocked(const Tensor& a, const Tensor& b, const Blocking& blk, bool fast_math) {
  return gemm_blocked(GemmKind::kNN, a, b, blk, fast_math, false, "matmul_blocked");
}

Tensor matmul_nt_blocked(const Tensor& a, const Tensor& b, const Blocking& blk, bool fast_math) {
  return gemm_blocked(GemmKind::kNT, a, b, blk, fast_math, false, "matmul_nt_blocked");
}

Tensor matmul_tn_blocked(const Tensor& a, const Tensor& b, const Blocking& blk, bool fast_math) {
  return gemm_blocked(GemmKind::kTN, a, b, blk, fast_math, false, "matmul_tn_blocked");
}

Tensor bmm_blocked(const Tensor& a, const Tensor& b, const Blocking& blk, bool fast_math) {
  return gemm_blocked(GemmKind::kNN, a, b, blk, fast_math, true, "bmm_blocked");
}

Tensor bmm_nt_blocked(const Tensor& a, const Tensor& b, const Blocking& blk, bool fast_math) {
  return gemm_blocked(GemmKind::kNT, a, b, blk, fast_math, true, "bmm_nt_blocked");
}

Tensor bmm_tn_blocked(const Tensor& a, const Tensor& b, const Blocking& blk, bool fast_math) {
  return gemm_blocked(GemmKind::kTN, a, b, blk, fast_math, true, "bmm_tn_blocked");
}

// --- pre-packed NT ----------------------------------------------------------
//
// One full-depth panel per kNr columns, so each tile call runs an output
// element's whole ascending-k chain from C's +0.0f: the same chain as the
// blocked driver at any kc, hence the same bits as the naive loop.

NtPanels::NtPanels(const Tensor& b) {
  check_arg(b.ndim() == 2, "NtPanels: weight must be 2-d [n, k]");
  n_ = b.dim(0);
  k_ = b.dim(1);
  const size_t floats = static_cast<size_t>(((n_ + kNr - 1) / kNr) * kNr * k_);
  if (floats == 0) return;
  // kNr floats are 32 bytes, so kNr - 1 floats of slack reach the next
  // 32-byte boundary from any float-aligned base.
  storage_.resize(floats + kNr - 1);
  const uintptr_t base = reinterpret_cast<uintptr_t>(storage_.data());
  offset_ = ((32 - base % 32) % 32) / sizeof(float);
  pack_panel_nt(b.raw(), k_, 0, k_, 0, n_, storage_.data() + offset_);
}

Tensor matmul_nt_prepacked(const Tensor& a, const NtPanels& b) {
  const char* what = "matmul_nt_prepacked";
  require(a.ndim() == 2, what, ": A must be 2-d");
  require(a.dim(1) == b.k(), what, ": inner dimensions differ");
  const int64_t m = a.dim(0), k = b.k(), n = b.n();
  Tensor c({m, n});
  const simd::KernelTable& kt = simd::kernels();
  const TileFn tile = fast_math_enabled() ? kt.gemm_tile_fast : kt.gemm_tile;
  const float* pa = a.raw();
  const float* pb = b.data();
  float* pc = c.raw();
  const int64_t grain = std::max<int64_t>(1, default_blocking(m, k, n).mc / kMr);
  parallel::parallel_for(0, (m + kMr - 1) / kMr, grain, [=](int64_t lo, int64_t hi) {
    for (int64_t is = lo; is < hi; ++is) {
      const int64_t i0 = is * kMr;
      const int64_t mr = std::min(kMr, m - i0);
      for (int64_t j = 0; j < n; j += kNr) {
        tile(pa + i0 * k, k, pb + j * k, k, pc + i0 * n + j, n, mr, std::min(kNr, n - j));
      }
    }
  });
  return c;
}

// --- naive references -------------------------------------------------------
//
// The loop kernels the ops:: matmuls ran before blocked dispatch existed
// (and still run below the cut-over): each output row is one task, its
// elements accumulate over ascending p from +0.0f. Grain sizing matches the
// original dispatch, so benches compare against what shipped.

namespace {

constexpr int64_t kGrainOps = 16384;

int64_t row_grain(int64_t ops_per_row) {
  return std::max<int64_t>(1, kGrainOps / std::max<int64_t>(1, ops_per_row));
}

// C rows [lo, hi) of every slice, rows flattened over the batch. NN and TN
// run the (p, j) row update C[i,:] += A(i,p) * B[p,:]; NT runs one dot
// product per element. The per-element chains are identical either way.
// `kind` is a template parameter so each layout compiles to its own loop
// (below the cut-over these loops are the production path, e.g. decode).
template <GemmKind kind>
Tensor gemm_naive(const Tensor& a, const Tensor& b, bool batched, const char* what) {
  const Dims d = gemm_dims(kind, a, b, batched, what);
  const int64_t m = d.m, k = d.k, n = d.n;
  Tensor c = batched ? Tensor({d.batch, m, n}) : Tensor({m, n});
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  parallel::parallel_for(0, d.batch * m, row_grain(k * n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int64_t t = r / m, i = r % m;
      const float* ab = pa + t * m * k;
      const float* bb = pb + t * k * n;
      float* crow = pc + r * n;
      if constexpr (kind == GemmKind::kNT) {
        for (int64_t j = 0; j < n; ++j) {
          float acc = 0.0f;
          for (int64_t p = 0; p < k; ++p) acc += ab[i * k + p] * bb[j * k + p];
          crow[j] = acc;
        }
      } else {
        for (int64_t p = 0; p < k; ++p) {
          const float av = kind == GemmKind::kTN ? ab[p * m + i] : ab[i * k + p];
          const float* brow = bb + p * n;
          for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  });
  return c;
}

}  // namespace

Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  return gemm_naive<GemmKind::kNN>(a, b, false, "matmul_naive");
}

Tensor matmul_nt_naive(const Tensor& a, const Tensor& b) {
  return gemm_naive<GemmKind::kNT>(a, b, false, "matmul_nt_naive");
}

Tensor matmul_tn_naive(const Tensor& a, const Tensor& b) {
  return gemm_naive<GemmKind::kTN>(a, b, false, "matmul_tn_naive");
}

Tensor bmm_naive(const Tensor& a, const Tensor& b) {
  return gemm_naive<GemmKind::kNN>(a, b, true, "bmm_naive");
}

Tensor bmm_nt_naive(const Tensor& a, const Tensor& b) {
  return gemm_naive<GemmKind::kNT>(a, b, true, "bmm_nt_naive");
}

Tensor bmm_tn_naive(const Tensor& a, const Tensor& b) {
  return gemm_naive<GemmKind::kTN>(a, b, true, "bmm_tn_naive");
}

Tensor dispatch(GemmKind kind, const Tensor& a, const Tensor& b, bool batched, const char* what) {
  const Dims d = gemm_dims(kind, a, b, batched, what);
  if (use_blocked(kind, d.m, d.k, d.n, d.batch)) {
    return gemm_blocked(kind, a, b, blocking_for(kind, d.m, d.k, d.n), fast_math_enabled(),
                        batched, what);
  }
  switch (kind) {
    case GemmKind::kNN: return gemm_naive<GemmKind::kNN>(a, b, batched, what);
    case GemmKind::kNT: return gemm_naive<GemmKind::kNT>(a, b, batched, what);
    case GemmKind::kTN: return gemm_naive<GemmKind::kTN>(a, b, batched, what);
    case GemmKind::kPackedNT: break;
  }
  require(false, what, ": packed weights go through quant::packed_matmul_nt");
  return Tensor();
}

}  // namespace edgellm::ops::gemm

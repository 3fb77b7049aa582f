// Blocked GEMM kernel family: cache-blocked (MC/KC/NC) + register-tiled
// (kMr x kNr micro-kernel) variants of the dense matmul kernels — NN, NT
// and TN layouts, 2-d and batched — with B-panel packing.
//
// Numerics contract: every blocked kernel accumulates each output element
// over ascending k with a single fp32 accumulator chain — k-blocks are
// visited in order and partial sums round-trip through C between blocks —
// so results are BITWISE IDENTICAL to the naive loop kernels (and
// therefore to serial execution at any thread count, the backend guarantee
// of tensor/parallel.hpp). No operand is ever skipped, so IEEE NaN/Inf
// propagation is preserved. What blocking changes is only the memory
// schedule: B is packed into L1-resident panels once per (k-block,
// n-block) and the micro-kernel keeps an MR x NR accumulator grid live,
// which breaks the naive kernels' per-element dependency chains and cuts
// C/B traffic.
//
// The micro-kernel itself runs through the runtime-dispatched SIMD table
// (tensor/simd.hpp: scalar / AVX2 / NEON, selectable via EDGELLM_SIMD or
// simd::set_dispatch). The default kernels vectorize across the kNr output
// lane only, so the contract above holds at ANY dispatch choice. The
// opt-in fast_math mode (set_fast_math / per-call flag below) swaps in
// FMA + multi-accumulator kernels that trade the single-chain contract
// for speed — results then differ from the reference within accumulation
// tolerance, and only for calls that opted in (scalar dispatch ignores
// fast_math and always computes the reference).
//
// Schedules are per-shape: the registry below maps (kind, m, k, n) to a
// Blocking, populated either by default_blocking() heuristics or by the
// measured autotuner (hw/measured.hpp, `edgellm_cli --schedule-cache`).
// Because blocked == naive bitwise, schedule choice can never change
// results — only speed — so autotuning is safe to run anywhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace edgellm::obs {
class Registry;
}

namespace edgellm::ops::gemm {

/// Register-tile shape of the micro-kernel. 4x8 keeps 32 fp32 accumulators
/// live — enough to hide FP add latency in scalar code and small enough
/// that compilers keep them in registers on x86-64/aarch64.
inline constexpr int64_t kMr = 4;
inline constexpr int64_t kNr = 8;

/// One cache-blocking schedule: MC output rows per parallel chunk, KC
/// depth per packed B panel, NC columns per packed B panel.
struct Blocking {
  int64_t mc = 64;
  int64_t kc = 256;
  int64_t nc = 128;

  bool valid() const { return mc >= kMr && kc >= 1 && nc >= kNr; }
  bool operator==(const Blocking& o) const { return mc == o.mc && kc == o.kc && nc == o.nc; }
  /// Stable id, e.g. "b64x256x128" (mc x kc x nc) — used for span names,
  /// metrics and the on-disk schedule cache.
  std::string to_string() const;
};

/// Heuristic default when no measured schedule is registered for a shape.
Blocking default_blocking(int64_t m, int64_t k, int64_t n);

/// Which kernel a schedule applies to. kPackedNT covers the integer
/// weight kernel in quant/packed.hpp (only its kc/nc fields are used).
/// Operand layouts of the dense kinds: kNN A[m,k] B[k,n]; kNT A[m,k]
/// B[n,k]; kTN A[k,m] B[k,n].
enum class GemmKind { kNN, kNT, kPackedNT, kTN };

const char* to_string(GemmKind kind);

// ---------------------------------------------------------------------------
// Per-shape schedule registry (autotuner output)
// ---------------------------------------------------------------------------
//
// Lookup is one mutex-guarded map probe per GEMM call — negligible at GEMM
// granularity. Schedules affect speed only (see the numerics contract
// above), so installing or clearing them mid-run is always safe.

/// Installs `b` for exact shape (kind, m, k, n). Invalid blockings throw.
void set_blocking(GemmKind kind, int64_t m, int64_t k, int64_t n, const Blocking& b);

/// The registered blocking for the shape, or default_blocking(m, k, n).
Blocking blocking_for(GemmKind kind, int64_t m, int64_t k, int64_t n);

/// True when an autotuned blocking is registered for the exact shape.
bool has_blocking(GemmKind kind, int64_t m, int64_t k, int64_t n);

/// Drops every registered blocking (tests / re-tune).
void clear_blockings();

/// Number of registered (kind, shape) -> blocking entries.
int64_t registered_blockings();

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

/// Routes blocked-kernel metrics into `r` (nullptr disables, the default):
/// counters `gemm/blocked_calls`, `gemm/sched.<id>.calls`, histogram
/// `gemm/tiles_per_s` (micro-kernel invocations per second per call).
/// Call while kernels are quiescent; the registry must outlive use.
void set_metrics_registry(obs::Registry* r);

// ---------------------------------------------------------------------------
// fast_math mode
// ---------------------------------------------------------------------------

/// Global default for the per-call fast_math flag (off at startup; the
/// serving engine sets it from EngineConfig::fast_math). When a call runs
/// with fast_math on a vector backend, the micro-kernels use FMA and a
/// second k-lane accumulator chain — faster, but no longer bitwise equal
/// to the naive reference. Scalar dispatch always computes the reference.
void set_fast_math(bool on);

/// The current global default (what calls without an explicit flag use).
bool fast_math_enabled();

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------
//
// The `_blocked` entry points take an explicit schedule (the autotuner
// times candidates through these); the ops:: matmuls and bmms dispatch to
// them via blocking_for() when the shape clears use_blocked(). The
// `_naive` entry points are the plain loop kernels, exported as the
// bit-exact reference for tests and the baseline for benches (and the
// path ops:: takes below the cut-over).
//
// Every blocked kernel is bitwise equal to its naive reference unless
// `fast_math` (defaults to the global flag) opts the call into the FMA
// multi-accumulator kernels. The TN kernels read A transposed while
// packing each kMr-row strip (kMr x kc floats), so no transposed copy of
// A is ever made. The batched kernels run one blocked GEMM per batch slice
// and, with more than one slice, parallelise over slices (per-batch
// shapes are small: attention heads).

/// C[m,n] = A[m,k] * B[k,n].
Tensor matmul_blocked(const Tensor& a, const Tensor& b, const Blocking& blk,
                      bool fast_math = fast_math_enabled());
/// C[m,n] = A[m,k] * B^T (B stored [n,k]).
Tensor matmul_nt_blocked(const Tensor& a, const Tensor& b, const Blocking& blk,
                         bool fast_math = fast_math_enabled());
/// C[m,n] = A^T * B (A stored [k,m], B [k,n]).
Tensor matmul_tn_blocked(const Tensor& a, const Tensor& b, const Blocking& blk,
                         bool fast_math = fast_math_enabled());

/// C[b,m,n] = A[b,m,k] * B[b,k,n]; `blk` is the per-batch schedule.
Tensor bmm_blocked(const Tensor& a, const Tensor& b, const Blocking& blk,
                   bool fast_math = fast_math_enabled());
/// C[b,m,n] = A[b,m,k] * B^T (B stored [b,n,k]).
Tensor bmm_nt_blocked(const Tensor& a, const Tensor& b, const Blocking& blk,
                      bool fast_math = fast_math_enabled());
/// C[b,m,n] = A^T * B (A stored [b,k,m], B [b,k,n]).
Tensor bmm_tn_blocked(const Tensor& a, const Tensor& b, const Blocking& blk,
                      bool fast_math = fast_math_enabled());

/// The loop references: one ascending-k fp32 chain per output element,
/// parallel over output rows.
Tensor matmul_naive(const Tensor& a, const Tensor& b);
Tensor matmul_nt_naive(const Tensor& a, const Tensor& b);
Tensor matmul_tn_naive(const Tensor& a, const Tensor& b);
Tensor bmm_naive(const Tensor& a, const Tensor& b);
Tensor bmm_nt_naive(const Tensor& a, const Tensor& b);
Tensor bmm_tn_naive(const Tensor& a, const Tensor& b);

/// The ops:: entry point for the dense kinds: validates the operands
/// (std::invalid_argument naming `what`), then runs the blocked kernel
/// under blocking_for()'s schedule when use_blocked() clears the
/// (per-batch) shape, else the naive loop — the same bits either way.
/// `batched` selects 3-d operands [batch, ...].
Tensor dispatch(GemmKind kind, const Tensor& a, const Tensor& b, bool batched, const char* what);

/// A static NT weight B[n,k] packed once into the micro-kernel's panel
/// layout at full depth: strip js holds output columns [js*kNr, js*kNr +
/// kNr) as k depth steps of kNr contiguous floats (the layout the blocked
/// driver packs per call, with kc = k), columns past n zero-padded, the
/// base 32-byte aligned. Read-only once built, so concurrent GEMMs may
/// share one. Move-only: the aligned base is an offset into the storage.
class NtPanels {
 public:
  NtPanels() = default;
  /// Packs `b` [n, k].
  explicit NtPanels(const Tensor& b);
  NtPanels(NtPanels&&) = default;
  NtPanels& operator=(NtPanels&&) = default;
  NtPanels(const NtPanels&) = delete;
  NtPanels& operator=(const NtPanels&) = delete;

  int64_t n() const { return n_; }
  int64_t k() const { return k_; }
  const float* data() const { return storage_.data() + offset_; }
  /// Bytes held, zero padding and alignment slack included.
  int64_t bytes() const { return static_cast<int64_t>(storage_.size() * sizeof(float)); }

 private:
  int64_t n_ = 0;
  int64_t k_ = 0;
  // Plain heap storage over-allocated by kNr - 1 floats, read from its
  // first 32-byte aligned float. A decode cache is rebuilt per prompt
  // (IncrementalDecoder::prime), and aligned operator new fragmented that
  // process's heap: +0.3 MB peak RSS in the adapt benchmark.
  std::vector<float> storage_;
  size_t offset_ = 0;
};

/// C[m,n] = A[m,k] * B^T against pre-packed panels: the dispatched
/// deterministic tile (or its fast_math variant when the global flag is
/// on) over kMr row strips at every m >= 1, fanned out over row strips with
/// the blocked driver's default grain. No cut-over, no packing, no schedule
/// lookup. Bitwise equal to matmul_nt_naive(a, b) unless fast_math is on;
/// throws std::invalid_argument unless A is 2-d with k columns.
Tensor matmul_nt_prepacked(const Tensor& a, const NtPanels& b);

/// Dispatch policy: true when the blocked kernel is worth its packing and
/// fan-out overhead for this shape (per-batch shape when `batch` > 1).
/// Every blocked kernel needs one full kNr lane (n >= kNr). Beyond that,
/// packed NT cuts over at 4k MACs and the dense kinds at 2k MACs per slice
/// with at least 2 rows (2-d NN/NT) or kMr rows (TN, batched), where the
/// blocked kernel beat the naive loops at one thread on every measured
/// shape. Single-row dense calls always run the naive loop.
bool use_blocked(GemmKind kind, int64_t m, int64_t k, int64_t n, int64_t batch = 1);

namespace detail {

/// The register-tile micro-kernel (deterministic path), dispatched through
/// the active SIMD table. C strip [mr x nr] += A rows [mr x pc] (row
/// stride lda) * packed panel strip [pc x kNr]; mr <= kMr, nr <= kNr;
/// panel lanes past nr must be zero-padded (they feed accumulator slots
/// that are never stored), and `bp` must be 32-byte aligned (the packers
/// and the aligned panel buffers guarantee this; vector backends use
/// aligned panel loads). Accumulates each element over ascending p,
/// loading from and storing back to C, so chained k-blocks form one fp32
/// accumulation chain per element.
void micro_kernel(const float* a, int64_t lda, const float* bp, int64_t pc, float* c, int64_t ldc,
                  int64_t mr, int64_t nr);

}  // namespace detail

}  // namespace edgellm::ops::gemm

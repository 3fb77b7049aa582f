// Shared pieces of the benchmark runner: run arguments, result records,
// raw-sample statistics, the JSON writer and trace-span analysis.
//
// Every timing here is taken with std::chrono::steady_clock around public
// calls into the library; percentiles come from raw samples (or recorded
// spans), never from the registry's power-of-two histogram buckets.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/corpus.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

/// The base language every workload's prompts come from and the model is
/// pretrained on: a seeded order-1 Markov chain over the 32-token vocab.
edgellm::data::MarkovChain base_domain();

/// Flat --key value workload parameters (the constants in
/// perfbench/workloads.json, forwarded by run.py). Every lookup is
/// required: a missing constant is a harness bug, not a default.
class Params {
 public:
  void set(const std::string& key, const std::string& value) { kv_[key] = value; }
  double num(const std::string& key) const;
  int64_t integer(const std::string& key) const;
  std::string str(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

struct RunArgs {
  std::string workload;
  std::string model_path;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Params params;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Requests (or steps) sent, succeeded and failed in one phase.
struct Phase {
  std::string name;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

/// Everything one workload run reports. run.py turns this into the final
/// result line; `config` and `notes` go into the run header.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::vector<Phase> phases;
  std::vector<std::string> failed_checks;
  std::vector<std::string> notes;
  std::map<std::string, std::string> config;  ///< resolved configs, pre-rendered JSON values
  int64_t attempted = 0;
  int64_t failed = 0;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
  void add_phase(const Phase& p) {
    phases.push_back(p);
    attempted += p.sent;
    failed += p.failed;
  }
};

/// Linearly interpolated q-quantile (q in [0, 1]) of raw samples; 0 when
/// empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Median, over consecutive windows of `window` samples (in time order),
/// of each window's q-quantile; the remainder joins the last window, and
/// fewer than two windows fall back to the pooled quantile. A host stall
/// then moves one window's figure instead of the whole run's tail.
double windowed_quantile(const std::vector<double>& v, size_t window, double q);
double median(std::vector<double> v);

/// q-quantile of the equal-weight mixture of the groups: each group weighs
/// the same whatever its sample count, so a run that happened to draw one
/// group more often reads the same as one that did not.
double stratified_quantile(const std::map<int64_t, std::vector<double>>& groups, double q);

/// num / den, or 0 when den is 0.
double ratio(int64_t num, int64_t den);

/// Exact mean (sum / count) of a registry histogram, 0 when absent or empty.
double hist_mean(const edgellm::obs::MetricsSnapshot& snap, const std::string& name);

/// Moves the calling thread round robin over the CPUs it may run on, one
/// CPU per next() call. A single-threaded workload otherwise stays on the
/// CPU it started on, and on a shared host the CPUs' speeds differ and drift
/// apart (one ran 1.7x another for seconds at a time when this benchmark was
/// defined), so a run's figure would mostly say which CPU it landed on.
/// Rotating makes every run sample every CPU alike.
class CpuRotation {
 public:
  CpuRotation();
  void next();

 private:
  std::vector<int> cpus_;
  size_t at_ = 0;
};

/// Peak resident set size of this process (VmHWM), MB.
double peak_rss_mb();

/// Seeded Poisson arrival offsets (ms from phase start) at `rate_per_s`
/// over `duration_s`.
std::vector<double> poisson_schedule(double rate_per_s, double duration_s, uint64_t seed);

std::string json_escape(const std::string& s);
std::string json_num(double v);

/// One closed span from the tracer, with its self time (duration minus the
/// part covered by child spans on the same thread) and its ancestor names.
/// Names are copied: some span names live in the engine that recorded them.
struct ClosedSpan {
  std::string name;
  double dur_ms = 0.0;
  double self_ms = 0.0;
  std::vector<std::string> ancestors;

  bool has_ancestor(const char* n) const;
  bool named(const char* n) const { return name == n; }
};

/// Rebuilds begin/end pairs per thread from Tracer::events(). Call it while
/// whatever recorded the events is still alive (event names are borrowed
/// pointers). Unmatched events (a full buffer drops the tail) are ignored.
std::vector<ClosedSpan> close_spans(const std::vector<edgellm::obs::TraceEvent>& events);

/// Durations (ms) of every span called `name`.
std::vector<double> span_durations(const std::vector<ClosedSpan>& spans, const char* name);

/// Self time (ms) of kernel-family spans ("kernel/..."), scaled by the
/// kernel sample interval, optionally only those running under `ancestor`.
double kernel_self_ms(const std::vector<ClosedSpan>& spans, int64_t sample,
                      const char* ancestor);

/// Sampled span count scaled by the sample interval, optionally only those
/// running under `ancestor`.
double scaled_count(const std::vector<ClosedSpan>& spans, const char* name, int64_t sample,
                    const char* ancestor);

/// Per-layer self time summary of every span name: "name": {"count",
/// "total_ms", "self_ms"} as one JSON object string (the traced run's
/// "where did the time go" table).
std::string span_self_table_json(const std::vector<ClosedSpan>& spans);

// Serving helpers shared by serve.cpp and http.cpp.

/// The resolved EngineConfig fields the benchmark can change or depends
/// on, as a JSON object string.
std::string engine_config_json(const edgellm::serve::EngineConfig& cfg);

/// Greedy final-exit continuation from nn::IncrementalDecoder — the
/// reference every served greedy completion must equal token for token.
std::vector<int64_t> greedy_reference(edgellm::nn::CausalLm& model,
                                      const std::vector<int64_t>& prompt, int64_t n_new);

/// A served greedy completion picked for the reference check.
struct ServedSample {
  std::vector<int64_t> prompt;
  int64_t n_new = 0;
  std::vector<int64_t> tokens;
};

/// Fails the run when a sample differs from greedy_reference. The reference
/// decodes run through the same kernels as the engine, so call this with the
/// tracer off: their spans would otherwise mix into the served figures.
void check_references(edgellm::nn::CausalLm& model, const std::vector<ServedSample>& samples,
                      const std::string& tag, Outcome& o);

/// Per-layer figures every serving workload reports: decode/step and
/// serve/tick span percentiles, the kernel share of decode time, fan-outs per
/// tick, and the engine's batch, token, failure and KV counters.
void put_serving_layers(Outcome& o, const std::vector<ClosedSpan>& spans, int64_t sample,
                        const edgellm::obs::MetricsSnapshot& snap,
                        const edgellm::serve::EngineMetrics& m);

/// After shutdown: request conservation (submitted equals the sum of all
/// terminal states) and KV conservation (kv/acquired equals kv/released).
void check_drained(const edgellm::serve::ServeEngine& engine, Outcome& o, const std::string& tag);

// Workload entry points (one translation unit each).
Outcome run_adapt(const RunArgs& args);
Outcome run_serve(const RunArgs& args);  // serve_decode
Outcome run_http(const RunArgs& args);

}  // namespace perfbench

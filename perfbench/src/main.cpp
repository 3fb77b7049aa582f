// edgellm_perfbench — the benchmark's native runner.
//
//   edgellm_perfbench pretrain --out base.bin --iters N
//   edgellm_perfbench run --workload adapt|serve_decode|http_stream
//                         --model base.bin --seed N --seconds S --trace 0|1
//                         [--<workload constant> value ...]
//
// `pretrain` builds the deterministic base model every workload loads (run
// once per build tree, before any clock starts). `run` executes one
// workload and prints one JSON object on the last stdout line: metrics,
// per-phase sent/ok/failed counts, failed output checks and the resolved
// configuration. perfbench/run.py builds this binary, forwards the
// constants from perfbench/workloads.json and turns that object into the
// benchmark's result line.
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "nn/serialize.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using namespace edgellm;

/// The benchmark's model: 6 layers, d_model 64, 4 heads, d_ff 256, vocab
/// 32, exits {2, 4, 6}, max_seq 64.
nn::ModelConfig bench_model_config() {
  nn::ModelConfig cfg;
  cfg.vocab = 32;
  cfg.d_model = 64;
  cfg.n_layers = 6;
  cfg.n_heads = 4;
  cfg.d_ff = 256;
  cfg.max_seq = 64;
  cfg.exit_layers = {2, 4, 6};
  return cfg;
}

int cmd_pretrain(const Params& p) {
  Rng rng(7);
  auto model = core::pretrain_base_model(bench_model_config(), base_domain(), p.integer("iters"),
                                         8, 32, rng);
  nn::save_model_with_config(*model, p.str("out"));
  std::cerr << "perfbench: pretrained base model -> " << p.str("out") << "\n";
  return 0;
}

std::string render(const Outcome& o) {
  std::ostringstream os;
  os << "{\"header\": {\"simd_active\": \"" << simd::to_string(simd::active_isa())
     << "\", \"simd_detected\": \"" << simd::to_string(simd::detected_isa())
     << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"compute_threads\": " << parallel::num_threads() << ", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\"}";
  os << ", \"config\": {";
  bool first = true;
  for (const auto& [k, v] : o.config) {
    os << (first ? "" : ", ") << "\"" << json_escape(k) << "\": " << v;
    first = false;
  }
  os << "}, \"phases\": [";
  for (size_t i = 0; i < o.phases.size(); ++i) {
    const Phase& ph = o.phases[i];
    os << (i ? ", " : "") << "{\"name\": \"" << json_escape(ph.name) << "\", \"sent\": " << ph.sent
       << ", \"ok\": " << ph.ok << ", \"failed\": " << ph.failed << "}";
  }
  os << "], \"failed_checks\": [";
  for (size_t i = 0; i < o.failed_checks.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(o.failed_checks[i]) << "\"";
  }
  os << "], \"notes\": [";
  for (size_t i = 0; i < o.notes.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(o.notes[i]) << "\"";
  }
  os << "], \"attempted\": " << o.attempted << ", \"failed\": " << o.failed << ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : o.metrics) {
    os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"value\": "
       << json_num(m.value) << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int cmd_run(const RunArgs& a) {
  Outcome o;
  if (a.workload == "adapt") {
    o = run_adapt(a);
  } else if (a.workload == "serve_decode") {
    o = run_serve(a);
  } else if (a.workload == "http_stream") {
    o = run_http(a);
  } else {
    std::cerr << "perfbench: unknown workload " << a.workload << "\n";
    return 2;
  }
  std::cout << render(o) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: edgellm_perfbench pretrain|run --key value ...\n";
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    RunArgs a;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key.rfind("--", 0) != 0) throw std::invalid_argument("flags must start with --: " + key);
      const std::string k = key.substr(2);
      if (k == "workload") a.workload = value;
      else if (k == "model") a.model_path = value;
      else if (k == "seed") a.seed = std::stoull(value);
      else if (k == "seconds") a.seconds = std::stod(value);
      else if (k == "trace") a.trace = value != "0";
      else a.params.set(k, value);
    }
    if (cmd == "pretrain") return cmd_pretrain(a.params);
    if (cmd == "run") return cmd_run(a);
    std::cerr << "perfbench: unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}

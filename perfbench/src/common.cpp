#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "tensor/rng.hpp"

namespace perfbench {

edgellm::data::MarkovChain base_domain() {
  edgellm::data::MarkovChain::Config cfg;
  cfg.vocab = 32;
  cfg.order = 1;
  cfg.branch = 4;
  cfg.seed = 42;
  return edgellm::data::MarkovChain(cfg);
}

double Params::num(const std::string& key) const {
  return std::stod(str(key));
}

int64_t Params::integer(const std::string& key) const {
  return static_cast<int64_t>(std::llround(num(key)));
}

std::string Params::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing workload parameter --" + key);
  return it->second;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double hist_mean(const edgellm::obs::MetricsSnapshot& snap, const std::string& name) {
  const edgellm::obs::HistogramSnapshot* h = snap.histogram(name);
  return h != nullptr && h->count > 0 ? h->sum / static_cast<double>(h->count) : 0.0;
}

double windowed_quantile(const std::vector<double>& v, size_t window, double q) {
  const size_t n_windows = window > 0 ? v.size() / window : 0;
  if (n_windows < 2) return quantile(v, q);
  std::vector<double> per_window;
  for (size_t w = 0; w < n_windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == n_windows ? v.end() : first + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(std::move(per_window));
}

double stratified_quantile(const std::map<int64_t, std::vector<double>>& groups, double q) {
  std::vector<std::pair<double, double>> weighted;  // (value, weight)
  size_t n_groups = 0;
  for (const auto& [key, v] : groups) n_groups += v.empty() ? 0 : 1;
  for (const auto& [key, v] : groups) {
    for (const double x : v) {
      weighted.emplace_back(x, 1.0 / static_cast<double>(n_groups * v.size()));
    }
  }
  if (weighted.empty()) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  double cum = 0.0;
  for (const auto& [x, w] : weighted) {
    cum += w;
    if (cum >= q) return x;
  }
  return weighted.back().first;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[at_], &set);
  at_ = (at_ + 1) % cpus_.size();
  (void)sched_setaffinity(0, sizeof(set), &set);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_s, uint64_t seed) {
  edgellm::Rng rng(seed);
  std::vector<double> at;
  double t = 0.0;
  while (true) {
    const double u = static_cast<double>(rng.uniform(0.0f, 1.0f));
    t += -std::log1p(-std::min(u, 0.999999)) / rate_per_s * 1e3;
    if (t >= duration_s * 1e3) break;
    at.push_back(t);
  }
  return at;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ClosedSpan::has_ancestor(const char* n) const {
  return std::find(ancestors.begin(), ancestors.end(), n) != ancestors.end();
}

std::vector<ClosedSpan> close_spans(const std::vector<edgellm::obs::TraceEvent>& events) {
  struct Open {
    const char* name;
    double ts_us;
    double child_ms;
  };
  std::map<int32_t, std::vector<Open>> stacks;
  std::vector<ClosedSpan> out;
  for (const auto& e : events) {
    std::vector<Open>& st = stacks[e.tid];
    if (e.ph == 'B') {
      st.push_back(Open{e.name, e.ts_us, 0.0});
    } else if (e.ph == 'E') {
      if (st.empty() || std::strcmp(st.back().name, e.name) != 0) continue;
      const Open o = st.back();
      st.pop_back();
      ClosedSpan c;
      c.name = o.name;
      c.dur_ms = (e.ts_us - o.ts_us) / 1e3;
      c.self_ms = std::max(0.0, c.dur_ms - o.child_ms);
      c.ancestors.reserve(st.size());
      for (const Open& a : st) c.ancestors.push_back(a.name);
      if (!st.empty()) st.back().child_ms += c.dur_ms;
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::vector<double> span_durations(const std::vector<ClosedSpan>& spans, const char* name) {
  std::vector<double> d;
  for (const ClosedSpan& s : spans) {
    if (s.named(name)) d.push_back(s.dur_ms);
  }
  return d;
}

double kernel_self_ms(const std::vector<ClosedSpan>& spans, int64_t sample,
                      const char* ancestor) {
  double total = 0.0;
  for (const ClosedSpan& s : spans) {
    if (s.name.rfind("kernel/", 0) != 0) continue;
    if (ancestor != nullptr && !s.has_ancestor(ancestor)) continue;
    total += s.self_ms;
  }
  return total * static_cast<double>(std::max<int64_t>(1, sample));
}

double scaled_count(const std::vector<ClosedSpan>& spans, const char* name, int64_t sample,
                    const char* ancestor) {
  int64_t n = 0;
  for (const ClosedSpan& s : spans) {
    if (s.named(name) && (ancestor == nullptr || s.has_ancestor(ancestor))) ++n;
  }
  return static_cast<double>(n) * static_cast<double>(std::max<int64_t>(1, sample));
}

std::string span_self_table_json(const std::vector<ClosedSpan>& spans) {
  struct Row {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const ClosedSpan& s : spans) {
    Row& r = rows[s.name];
    ++r.count;
    r.total_ms += s.dur_ms;
    r.self_ms += s.self_ms;
  }
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, r] : rows) {
    os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"count\": " << r.count
       << ", \"total_ms\": " << json_num(r.total_ms) << ", \"self_ms\": " << json_num(r.self_ms)
       << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace perfbench

// Workload `http_stream`: the network front door. An in-process
// net::HttpServer in front of a default serve::ServeEngine; one generator
// thread drives a closed loop over a few keep-alive connections, each
// sending its next POST /v1/completions as soon as the previous streamed
// response ends. Every token arrives as its own chunk, so TTFT and ITL here
// include request parsing, chunk framing and the loopback socket.
//
// The client is deliberately independent of src/net: it dechunks the
// stream itself rather than trusting the code under test to read its own
// output.
//
// Output checks: a seeded sample of streamed completions equals the
// nn::IncrementalDecoder greedy reference token for token; after drain the
// request and KV counts are conserved.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <deque>
#include <memory>
#include <thread>

#include "common.hpp"
#include "net/server.hpp"
#include "nn/serialize.hpp"

namespace perfbench {

using namespace edgellm;

namespace {

/// One streamed request as the client saw it.
struct HttpRec {
  int64_t id = 0;
  std::vector<int64_t> prompt;
  Clock::time_point sent{}, done{};
  std::vector<Clock::time_point> tok_t;
  std::vector<int64_t> toks;
  int status = 0;
  bool ok = false;  ///< 200 whose final object carried status "ok"
};

/// A keep-alive connection that sends one request at a time and dechunks
/// its streamed response incrementally.
class StreamConn {
 public:
  enum class Read { kMore, kDone, kError };

  StreamConn() = default;
  StreamConn(const StreamConn&) = delete;
  StreamConn& operator=(const StreamConn&) = delete;
  ~StreamConn() { close_fd(); }

  bool open(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close_fd();
      return false;
    }
    return true;
  }

  int fd() const { return fd_; }
  bool busy() const { return cur_ != nullptr; }

  bool send_request(HttpRec& r, int64_t n_new) {
    std::string body = "{\"id\": " + std::to_string(r.id) + ", \"prompt\": [";
    for (size_t i = 0; i < r.prompt.size(); ++i) {
      body += (i ? ", " : "") + std::to_string(r.prompt[i]);
    }
    body += "], \"max_new_tokens\": " + std::to_string(n_new) + "}";
    const std::string req = "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Content-Type: application/json\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body;
    r.tok_t.reserve(static_cast<size_t>(n_new));
    r.toks.reserve(static_cast<size_t>(n_new));
    r.sent = Clock::now();
    size_t off = 0;
    while (off < req.size()) {
      const ssize_t n = ::send(fd_, req.data() + off, req.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    cur_ = &r;
    return true;
  }

  /// Reads what is available (poll said readable) and parses it.
  Read on_readable() {
    char tmp[16384];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return Read::kError;
    const auto now = Clock::now();
    buf_.append(tmp, static_cast<size_t>(n));
    return parse(now);
  }

  /// Abandons the in-flight request (its record stays unfinished).
  void drop() {
    cur_ = nullptr;
    close_fd();
  }

 private:
  Read parse(Clock::time_point now) {
    if (!head_done_) {
      const size_t at = buf_.find("\r\n\r\n");
      if (at == std::string::npos) return Read::kMore;
      const std::string head = buf_.substr(0, at);
      if (head.rfind("HTTP/1.1 ", 0) != 0 || head.size() < 12) return Read::kError;
      cur_->status = std::atoi(head.c_str() + 9);
      std::string lower = head;
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      // Only a streamed 200 is a success; anything else ends the request.
      if (lower.find("transfer-encoding: chunked") == std::string::npos) return Read::kError;
      buf_.erase(0, at + 4);
      head_done_ = true;
    }
    while (true) {
      const size_t le = buf_.find("\r\n");
      if (le == std::string::npos) return Read::kMore;
      const long sz = std::strtol(buf_.c_str(), nullptr, 16);
      if (sz < 0) return Read::kError;
      const size_t need = le + 2 + static_cast<size_t>(sz) + 2;
      if (buf_.size() < need) return Read::kMore;
      const std::string payload = buf_.substr(le + 2, static_cast<size_t>(sz));
      buf_.erase(0, need);
      if (sz == 0) {
        cur_->done = now;
        cur_ = nullptr;
        head_done_ = false;
        return Read::kDone;
      }
      // A token line is exactly {"id": N, "token": T}; the final object
      // carries "status".
      const size_t tk = payload.find("\"token\": ");
      if (payload.rfind("{\"id\": ", 0) == 0 && tk != std::string::npos &&
          payload.find('[') == std::string::npos) {
        cur_->toks.push_back(std::strtoll(payload.c_str() + tk + 9, nullptr, 10));
        cur_->tok_t.push_back(now);
      } else if (payload.find("\"status\": \"ok\"") != std::string::npos) {
        cur_->ok = cur_->status == 200;
      }
    }
  }

  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
    head_done_ = false;
  }

  int fd_ = -1;
  std::string buf_;
  bool head_done_ = false;
  HttpRec* cur_ = nullptr;
};

/// The served stack: model, engine, front door and its event-loop thread.
struct Stack {
  std::unique_ptr<nn::CausalLm> model;
  std::unique_ptr<serve::ServeEngine> engine;
  std::unique_ptr<net::HttpServer> server;
  std::thread loop;

  /// Drains the front door, joins its thread and shuts the engine down.
  void stop() {
    if (server) {
      server->begin_drain();
      if (loop.joinable()) loop.join();
    }
    if (engine) engine->shutdown();
  }
  ~Stack() { stop(); }
};

void start(Stack& s, const serve::EngineConfig& ecfg, const net::ServerConfig& scfg) {
  s.engine = std::make_unique<serve::ServeEngine>(*s.model, ecfg);
  s.server = std::make_unique<net::HttpServer>(*s.engine, scfg);
  net::HttpServer* srv = s.server.get();
  s.loop = std::thread([srv] { srv->run(); });
}

struct PassResult {
  std::vector<double> ttft, itl, e2e;
  int64_t sent = 0, ok = 0, in_slo = 0, tokens = 0;
  double elapsed_s = 0.0;
  std::vector<ServedSample> ref_samples;  ///< for check_references, after the pass
  obs::MetricsSnapshot snap;
  serve::EngineMetrics m;
};

/// Closed loop over `conns` keep-alive connections for `seconds`, then a
/// drain and the conservation checks.
PassResult run_pass(Stack& s, const RunArgs& a, double seconds, uint64_t seed,
                    const std::string& tag, Outcome& o) {
  const Params& p = a.params;
  const int64_t n_new = p.integer("new_tokens");
  const data::MarkovChain domain = base_domain();
  Rng rng(seed);
  std::deque<HttpRec> recs;
  int64_t next_id = 1;
  const int port = s.server->port();

  std::vector<std::unique_ptr<StreamConn>> conns;
  for (int64_t i = 0; i < p.integer("connections"); ++i) {
    conns.push_back(std::make_unique<StreamConn>());
    o.check(conns.back()->open(port), tag + "cannot connect to the in-process server");
  }
  auto send_next = [&](StreamConn& c) {
    HttpRec& r = recs.emplace_back();
    r.id = next_id++;
    r.prompt = domain.sample(p.integer("prompt_len"), rng);
    if ((c.fd() < 0 && !c.open(port)) || !c.send_request(r, n_new)) {
      c.drop();  // a send failure: counted as sent and failed
    }
  };

  // Closed loop: every connection sends its next request as soon as its
  // previous response ends, until `duration_s` has passed; then drains.
  const auto run_loop = [&](double duration_s) {
    const auto t0 = Clock::now();
    for (auto& c : conns) send_next(*c);
    std::vector<pollfd> fds;
    while (true) {
      const bool sending = ms_since(t0) < duration_s * 1e3;
      fds.clear();
      for (auto& c : conns) {
        if (c->busy()) fds.push_back(pollfd{c->fd(), POLLIN, 0});
      }
      if (fds.empty()) break;
      if (::poll(fds.data(), fds.size(), 1000) < 0) break;
      if (ms_since(t0) > (duration_s + 60.0) * 1e3) {  // a wedged server: fail what is left
        for (auto& c : conns) {
          if (c->busy()) c->drop();
        }
        break;
      }
      for (auto& c : conns) {
        if (!c->busy()) continue;
        const auto it = std::find_if(fds.begin(), fds.end(),
                                     [&](const pollfd& f) { return f.fd == c->fd(); });
        if (it == fds.end() || (it->revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const StreamConn::Read r = c->on_readable();
        if (r == StreamConn::Read::kError) c->drop();
        if (r != StreamConn::Read::kMore && sending) send_next(*c);
      }
    }
    return ms_since(t0) / 1e3;
  };
  run_loop(p.num("warmup_seconds"));  // warmup, not measured
  const size_t from = recs.size();
  PassResult res;
  res.elapsed_s = run_loop(seconds);

  Phase warm{tag + "warmup", static_cast<int64_t>(from), 0, 0};
  for (size_t i = 0; i < from; ++i) warm.ok += recs[i].ok ? 1 : 0;
  warm.failed = warm.sent - warm.ok;
  o.add_phase(warm);

  const double ttft_limit = p.num("ttft_limit_ms");
  const double itl_limit = p.num("itl_limit_ms");
  for (size_t i = from; i < recs.size(); ++i) {
    const HttpRec& r = recs[i];
    ++res.sent;
    if (!r.ok || r.tok_t.empty()) continue;
    ++res.ok;
    res.tokens += static_cast<int64_t>(r.toks.size());
    const double ttft = ms_between(r.sent, r.tok_t.front());
    res.ttft.push_back(ttft);
    res.e2e.push_back(ms_between(r.sent, r.done));
    double gaps = 0.0;
    for (size_t k = 1; k < r.tok_t.size(); ++k) {
      const double g = ms_between(r.tok_t[k - 1], r.tok_t[k]);
      res.itl.push_back(g);
      gaps += g;
    }
    const double tpot = r.tok_t.size() > 1 ? gaps / static_cast<double>(r.tok_t.size() - 1) : 0.0;
    if (ttft <= ttft_limit && tpot <= itl_limit) ++res.in_slo;
  }
  o.add_phase(Phase{tag + "closed_loop", res.sent, res.ok, res.sent - res.ok});

  conns.clear();
  s.stop();
  check_drained(*s.engine, o, tag + "engine");
  res.m = s.engine->metrics();
  res.snap = s.engine->registry().snapshot();

  // A seeded sample of streamed completions, for the caller's check against
  // the in-process greedy reference.
  Rng pick(seed ^ 0xC0FFEE);
  for (int64_t k = 0; k < p.integer("check_sample") && !recs.empty(); ++k) {
    const HttpRec& r =
        recs[static_cast<size_t>(pick.uniform_int(0, static_cast<int64_t>(recs.size()) - 1))];
    if (r.ok) res.ref_samples.push_back(ServedSample{r.prompt, n_new, r.toks});
  }
  return res;
}

}  // namespace

Outcome run_http(const RunArgs& a) {
  const Params& p = a.params;
  Outcome o;
  serve::EngineConfig ecfg;  // defaults, except the recorded queue capacity
  ecfg.queue_capacity = p.integer("queue_capacity");
  net::ServerConfig scfg;  // defaults: loopback, ephemeral port
  o.config["engine"] = engine_config_json(ecfg);
  o.config["server"] = "{\"max_connections\": " + std::to_string(scfg.max_connections) +
                       ", \"idle_timeout_ms\": " + json_num(scfg.idle_timeout_ms) +
                       ", \"write_buffer_bytes\": " + std::to_string(scfg.write_buffer_bytes) +
                       "}";

  // Set-up, repeated; setup_s is the median: load + engine + bound server.
  std::vector<double> setup_s, load_ms;
  auto stack = std::make_unique<Stack>();
  for (int64_t r = 0; r < p.integer("setup_repeats"); ++r) {
    stack = std::make_unique<Stack>();
    const auto t0 = Clock::now();
    stack->model = nn::load_model_with_config(a.model_path);
    const auto t1 = Clock::now();
    start(*stack, ecfg, scfg);
    setup_s.push_back(ms_since(t0) / 1e3);
    load_ms.push_back(ms_between(t0, t1));
  }

  if (!a.trace) {
    const PassResult r = run_pass(*stack, a, a.seconds, a.seed, "", o);
    check_references(*stack->model, r.ref_samples, "", o);
    o.put("setup_s", median(setup_s), "s");
    o.put("peak_rss_mb", peak_rss_mb(), "MB");
    o.put("iters_per_s", static_cast<double>(r.ok) / r.elapsed_s, "1/s");
    // Latency percentiles: median over windows of window_samples samples
    // of each window's percentile (pooled when a run has fewer than two).
    const size_t w = static_cast<size_t>(p.integer("window_samples"));
    o.put("iter_ms_p50", windowed_quantile(r.e2e, w, 0.5), "ms");
    o.put("iter_ms_p90", windowed_quantile(r.e2e, w, 0.9), "ms");
    o.put("tokens_per_s", static_cast<double>(r.tokens) / r.elapsed_s, "tok/s");
    o.put("ttft_ms_p50", windowed_quantile(r.ttft, w, 0.5), "ms");
    o.put("ttft_ms_p99", windowed_quantile(r.ttft, w, 0.99), "ms");
    o.put("itl_ms_p50", windowed_quantile(r.itl, w, 0.5), "ms");
    o.put("itl_ms_p99", windowed_quantile(r.itl, w, 0.99), "ms");
    o.put("slo_ok_share", ratio(r.in_slo, r.sent), "fraction");
    o.notes.push_back("closed loop: " + std::to_string(r.sent) + " requests, " +
                      std::to_string(r.itl.size()) + " ITL samples");
    return o;
  }

  const PassResult u = run_pass(*stack, a, a.seconds / 2, a.seed, "untraced/", o);
  check_references(*stack->model, u.ref_samples, "untraced/", o);
  auto traced = std::make_unique<Stack>();
  traced->model = std::move(stack->model);
  stack.reset();
  const int64_t sample = p.integer("trace_kernel_sample");
  obs::Tracer& tr = obs::Tracer::global();
  tr.clear();
  tr.enable(sample);
  start(*traced, ecfg, scfg);
  const double trace_s = std::min(a.seconds / 2, p.num("trace_seconds"));
  const PassResult t = run_pass(*traced, a, trace_s, a.seed + 1, "traced/", o);
  tr.disable();
  const std::vector<ClosedSpan> spans = close_spans(tr.events());
  o.config["span_self_time"] = span_self_table_json(spans);
  if (tr.dropped_events() > 0) {
    o.notes.push_back("tracer dropped " + std::to_string(tr.dropped_events()) + " events");
  }
  tr.clear();
  check_references(*traced->model, t.ref_samples, "traced/", o);

  put_serving_layers(o, spans, sample, u.snap, u.m);
  o.put("nn.load_model_ms", median(load_ms), "ms");
  o.put("net.request_ms_mean", hist_mean(u.snap, "net/request_ms"), "ms");
  o.put("net.bytes_out_per_token",
        ratio(u.snap.counter("net/bytes_out"), u.snap.counter("net/tokens_streamed")), "bytes");
  o.put("net.error_count",
        static_cast<double>(u.snap.counter("net/responses_4xx") +
                            u.snap.counter("net/responses_5xx") + u.snap.counter("net/timeouts") +
                            u.snap.counter("net/client_disconnects")),
        "count");
  // Headline for the overhead: mean request time.
  const double base = mean(u.e2e);
  o.put("obs.trace_overhead_share", base > 0.0 ? mean(t.e2e) / base - 1.0 : 0.0, "fraction");
  return o;
}

}  // namespace perfbench

#include "serve/request.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "tensor/tensor.hpp"

namespace edgellm::serve {

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kCancelled: return "cancelled";
    case RequestStatus::kTimeout: return "timeout";
    case RequestStatus::kShed: return "shed";
    case RequestStatus::kExpired: return "expired";
    case RequestStatus::kFailed: return "failed";
  }
  return "unknown";
}

const char* to_string(ExitPolicy p) {
  switch (p) {
    case ExitPolicy::kFinal: return "final";
    case ExitPolicy::kFixedEarly: return "fixed-early";
    case ExitPolicy::kVoted: return "voted";
    case ExitPolicy::kSpeculative: return "speculative";
  }
  return "unknown";
}

namespace {

// Minimal scanner for the flat request schema: an object of string keys
// mapping to numbers, strings, or arrays of numbers. Not a general JSON
// parser — hostile nesting is rejected, which is the right failure mode for
// a request socket.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& s) : s_(s) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      throw std::invalid_argument(std::string("request JSON: expected '") + c + "' at offset " +
                                  std::to_string(pos_) + " in: " + s_);
    }
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      check_arg(s_[pos_] != '\\', "request JSON: escapes are not supported");
      out.push_back(s_[pos_++]);
    }
    expect('"');
    return out;
  }

  double number_value() {
    skip_ws();
    size_t end = pos_;
    while (end < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[end])) ||
                               s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
                               s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    check_arg(end > pos_, "request JSON: expected a number at offset " + std::to_string(pos_));
    const double v = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  std::vector<int64_t> int_array() {
    expect('[');
    std::vector<int64_t> out;
    if (try_consume(']')) return out;
    do {
      out.push_back(static_cast<int64_t>(number_value()));
    } while (try_consume(','));
    expect(']');
    return out;
  }

  bool peek_is(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

Request parse_request_json(const std::string& line) {
  JsonScanner sc(line);
  Request req;
  sc.expect('{');
  if (!sc.try_consume('}')) {
    do {
      const std::string key = sc.string_value();
      sc.expect(':');
      if (key == "id") {
        req.id = static_cast<int64_t>(sc.number_value());
      } else if (key == "prompt") {
        req.prompt = sc.int_array();
      } else if (key == "max_new_tokens") {
        req.max_new_tokens = static_cast<int64_t>(sc.number_value());
      } else if (key == "temperature") {
        req.temperature = static_cast<float>(sc.number_value());
      } else if (key == "top_k") {
        req.top_k = static_cast<int64_t>(sc.number_value());
      } else if (key == "seed") {
        req.seed = static_cast<uint64_t>(sc.number_value());
      } else if (key == "deadline_ms") {
        req.deadline_ms = sc.number_value();
      } else if (key == "tenant") {
        req.tenant = sc.string_value();
      } else if (key == "priority") {
        req.priority = static_cast<int64_t>(sc.number_value());
        check_arg(req.priority >= kPriorityHigh && req.priority <= kPriorityLow,
                  "request JSON: priority must be 0 (high), 1 (normal) or 2 (low)");
      } else if (key == "draft_depth") {
        req.draft_depth = static_cast<int64_t>(sc.number_value());
        check_arg(req.draft_depth >= 0, "request JSON: draft_depth must be >= 0");
      } else if (key == "draft_k") {
        req.draft_k = static_cast<int64_t>(sc.number_value());
        check_arg(req.draft_k >= 0, "request JSON: draft_k must be >= 0");
      } else if (key == "exit") {
        if (sc.peek_is('"')) {
          const std::string v = sc.string_value();
          if (v == "final") {
            req.exit_policy = ExitPolicy::kFinal;
          } else if (v == "voted") {
            req.exit_policy = ExitPolicy::kVoted;
          } else if (v == "speculative") {
            req.exit_policy = ExitPolicy::kSpeculative;
          } else {
            check_arg(false, "request JSON: exit must be \"final\", \"voted\", "
                             "\"speculative\", or a layer number, got \"" + v + "\"");
          }
        } else {
          req.exit_policy = ExitPolicy::kFixedEarly;
          req.exit_layer = static_cast<int64_t>(sc.number_value());
        }
      } else {
        check_arg(false, "request JSON: unknown key \"" + key + "\"");
      }
    } while (sc.try_consume(','));
    sc.expect('}');
  }
  check_arg(sc.at_end(), "request JSON: trailing characters after object");
  check_arg(!req.prompt.empty(), "request JSON: prompt must be a non-empty token array");
  return req;
}

namespace {

// Error reasons embed arbitrary text (tenant names, exception messages),
// so they must be escaped on the way out or the wire line stops being JSON.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(ch));
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

}  // namespace

std::string completion_to_json(const Completion& c) {
  std::ostringstream os;
  os << "{\"id\": " << c.id << ", \"status\": \"" << to_string(c.status) << "\", \"tokens\": [";
  for (size_t i = 0; i < c.tokens.size(); ++i) {
    if (i) os << ", ";
    os << c.tokens[i];
  }
  os << "], \"queue_ms\": " << c.metrics.queue_wait_ms << ", \"ttft_ms\": " << c.metrics.ttft_ms
     << ", \"total_ms\": " << c.metrics.total_ms
     << ", \"tokens_per_s\": " << c.metrics.tokens_per_s
     << ", \"kv_bytes\": " << c.metrics.kv_bytes;
  if (c.metrics.spec_drafted > 0) {
    os << ", \"spec_drafted\": " << c.metrics.spec_drafted
       << ", \"spec_accepted\": " << c.metrics.spec_accepted;
  }
  if (c.degraded) os << ", \"degraded\": true, \"exit_layer\": " << c.exit_layer_used;
  if (!c.error.empty()) os << ", \"error\": \"" << json_escape(c.error) << "\"";
  os << "}";
  return os.str();
}

}  // namespace edgellm::serve

#include "serve/request.hpp"

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace hgr::serve {

namespace {

Request invalid(std::string why) {
  Request r;
  r.kind = RequestKind::kInvalid;
  r.error = std::move(why);
  return r;
}

bool parse_int64(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

// A vertex id or part count: a non-negative value that fits Index, so the
// narrowing cast at the call site cannot wrap.
bool parse_index(const std::string& s, std::int64_t& out) {
  return parse_int64(s, out) && out >= 0 &&
         out <= std::numeric_limits<Index>::max();
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kLoad:
      return "LOAD";
    case RequestKind::kDelta:
      return "DELTA";
    case RequestKind::kAdd:
      return "ADD";
    case RequestKind::kRemove:
      return "REMOVE";
    case RequestKind::kSwap:
      return "SWAP";
    case RequestKind::kRepart:
      return "REPART";
    case RequestKind::kInvalid:
      return "INVALID";
  }
  return "INVALID";
}

Request parse_request(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string tok; in >> tok;) tokens.push_back(std::move(tok));
  if (tokens.empty() || tokens[0][0] == '#') return invalid("");

  const std::string& verb = tokens[0];
  Request r;
  if (verb == "LOAD")
    r.kind = RequestKind::kLoad;
  else if (verb == "DELTA")
    r.kind = RequestKind::kDelta;
  else if (verb == "ADD")
    r.kind = RequestKind::kAdd;
  else if (verb == "REMOVE")
    r.kind = RequestKind::kRemove;
  else if (verb == "SWAP")
    r.kind = RequestKind::kSwap;
  else if (verb == "REPART")
    r.kind = RequestKind::kRepart;
  else
    return invalid("unknown verb '" + verb + "'");

  if (tokens.size() < 2) return invalid(verb + ": missing graph name");
  r.graph = tokens[1];

  switch (r.kind) {
    case RequestKind::kLoad: {
      if (tokens.size() < 3) return invalid("LOAD: missing file path");
      r.path = tokens[2];
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const std::string& opt = tokens[i];
        const std::size_t eq = opt.find('=');
        if (eq == std::string::npos)
          return invalid("LOAD: bad option '" + opt + "' (want key=value)");
        const std::string key = opt.substr(0, eq);
        const std::string val = opt.substr(eq + 1);
        std::int64_t iv = 0;
        double dv = 0.0;
        if (key == "k") {
          if (!parse_index(val, iv) || iv < 2)
            return invalid("LOAD: bad k '" + val + "'");
          r.k = static_cast<Index>(iv);
        } else if (key == "alpha") {
          if (!parse_int64(val, iv) || iv < 0)
            return invalid("LOAD: bad alpha '" + val + "'");
          r.alpha = iv;
        } else if (key == "eps") {
          // Also rejects nan and inf: an infinite part-weight bound
          // overflows the integer capacity and disables balance.
          if (!parse_double(val, dv) || !(dv > 0.0 && dv <= 1.0))
            return invalid("LOAD: bad eps '" + val + "'");
          r.epsilon = dv;
        } else {
          return invalid("LOAD: unknown option '" + key + "'");
        }
      }
      break;
    }
    case RequestKind::kDelta: {
      if (tokens.size() < 3) return invalid("DELTA: no <v>:<w> updates");
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const std::string& pair = tokens[i];
        const std::size_t colon = pair.find(':');
        if (colon == std::string::npos)
          return invalid("DELTA: bad update '" + pair + "' (want v:w)");
        std::int64_t v = 0;
        std::int64_t w = 0;
        if (!parse_index(pair.substr(0, colon), v))
          return invalid("DELTA: bad vertex in '" + pair + "'");
        if (!parse_int64(pair.substr(colon + 1), w) || w < 0)
          return invalid("DELTA: bad weight in '" + pair + "'");
        r.updates.push_back({VertexId{static_cast<Index>(v)}, Weight{w}});
      }
      break;
    }
    case RequestKind::kAdd: {
      if (tokens.size() < 3) return invalid("ADD: no vertex weights");
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::int64_t w = 0;
        if (!parse_int64(tokens[i], w) || w < 0)
          return invalid("ADD: bad weight '" + tokens[i] + "'");
        r.add_weights.push_back(Weight{w});
      }
      break;
    }
    case RequestKind::kRemove: {
      if (tokens.size() < 3) return invalid("REMOVE: no vertex ids");
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::int64_t v = 0;
        if (!parse_index(tokens[i], v))
          return invalid("REMOVE: bad vertex '" + tokens[i] + "'");
        r.remove.push_back(VertexId{static_cast<Index>(v)});
      }
      break;
    }
    case RequestKind::kSwap: {
      if (tokens.size() != 3) return invalid("SWAP: want <graph> <path>");
      r.path = tokens[2];
      break;
    }
    case RequestKind::kRepart: {
      if (tokens.size() != 2) return invalid("REPART: want <graph> only");
      break;
    }
    case RequestKind::kInvalid:
      break;
  }
  return r;
}

}  // namespace hgr::serve

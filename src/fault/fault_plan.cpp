#include "fault/fault_plan.hpp"

#include <cstdio>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace hgr::fault {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kThrow:
      return "throw";
  }
  return "unknown";
}

std::string to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kBarrier:
      return "barrier";
    case FaultSite::kAllgather:
      return "allgather";
    case FaultSite::kAllreduce:
      return "allreduce";
    case FaultSite::kBcast:
      return "bcast";
    case FaultSite::kAlltoallv:
      return "alltoallv";
    case FaultSite::kServe:
      return "serve";
    case FaultSite::kAny:
      return "any";
  }
  return "unknown";
}

FaultPlan::FaultPlan(std::uint64_t seed, std::vector<FaultRule> rules)
    : seed_(seed), rules_(std::move(rules)) {
  for (const FaultRule& r : rules_) {
    HGR_ASSERT_MSG(r.after >= 1, "fault rule: after is 1-based");
    HGR_ASSERT_MSG(r.rank >= -1 && r.rank < kMaxRanks,
                   "fault rule: rank out of range");
    HGR_ASSERT_MSG(r.probability >= 0.0 && r.probability <= 1.0,
                   "fault rule: probability must be in [0, 1]");
    HGR_ASSERT_MSG(r.delay_ms >= 0.0, "fault rule: negative delay");
  }
  hits_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      rules_.size() * static_cast<std::size_t>(kMaxRanks));
  reset();
}

void FaultPlan::reset() const {
  const std::size_t n = rules_.size() * static_cast<std::size_t>(kMaxRanks);
  for (std::size_t i = 0; i < n; ++i)
    hits_[i].store(0, std::memory_order_relaxed);
}

std::optional<FaultDecision> FaultPlan::check(FaultSite site,
                                              int rank) const {
  HGR_ASSERT(rank >= 0 && rank < kMaxRanks);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.rank >= 0 && r.rank != rank) continue;
    if (r.site != FaultSite::kAny && r.site != site) continue;
    std::atomic<std::uint64_t>& cell =
        hits_[i * static_cast<std::size_t>(kMaxRanks) +
              static_cast<std::size_t>(rank)];
    const std::uint64_t match =
        cell.fetch_add(1, std::memory_order_relaxed) + 1;
    if (match < r.after) continue;
    if (r.count != 0 && match >= r.after + r.count) continue;
    if (r.probability < 1.0) {
      // Deterministic coin: a pure function of (seed, rule, rank, match).
      std::uint64_t stream = derive_seed(
          seed_, (i << 32) ^ static_cast<std::uint64_t>(rank));
      Rng coin(derive_seed(stream, match));
      if (!coin.chance(r.probability)) continue;
    }
    char text[96];
    std::snprintf(text, sizeof(text), "%s@%s rank=%d match=%llu",
                  fault::to_string(r.kind).c_str(),
                  fault::to_string(site).c_str(), rank,
                  static_cast<unsigned long long>(match));
    FaultDecision d;
    d.kind = r.kind;
    d.delay_ms = r.delay_ms;
    d.description = std::string("injected fault: ") + text;
    return d;
  }
  return std::nullopt;
}

namespace {

[[noreturn]] void parse_error(const std::string& spec,
                              const std::string& why) {
  throw std::invalid_argument("bad fault plan \"" + spec + "\": " + why);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

bool parse_kind(const std::string& name, FaultKind& out) {
  for (const FaultKind k :
       {FaultKind::kStall, FaultKind::kDelay, FaultKind::kThrow})
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  return false;
}

bool parse_site(const std::string& name, FaultSite& out) {
  for (const FaultSite s :
       {FaultSite::kBarrier, FaultSite::kAllgather, FaultSite::kAllreduce,
        FaultSite::kBcast, FaultSite::kAlltoallv, FaultSite::kServe,
        FaultSite::kAny})
    if (name == to_string(s)) {
      out = s;
      return true;
    }
  return false;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;
  for (const std::string& element : split(spec, ';')) {
    if (element.empty()) continue;
    if (element.compare(0, 5, "seed=") == 0) {
      try {
        seed = std::stoull(element.substr(5));
      } catch (const std::exception&) {
        parse_error(spec, "bad seed \"" + element + "\"");
      }
      continue;
    }
    const std::size_t at = element.find('@');
    if (at == std::string::npos)
      parse_error(spec, "rule \"" + element + "\" lacks kind@site");
    FaultRule rule;
    if (!parse_kind(element.substr(0, at), rule.kind))
      parse_error(spec, "unknown kind \"" + element.substr(0, at) +
                            "\" (stall|delay|throw)");
    const std::size_t colon = element.find(':', at);
    const std::string site_name =
        element.substr(at + 1, (colon == std::string::npos
                                    ? element.size()
                                    : colon) - (at + 1));
    if (!parse_site(site_name, rule.site))
      parse_error(spec, "unknown site \"" + site_name + "\"");
    if (colon != std::string::npos) {
      for (const std::string& kv : split(element.substr(colon + 1), ',')) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
          parse_error(spec, "option \"" + kv + "\" lacks key=value");
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key != "rank" && key != "after" && key != "count" &&
            key != "ms" && key != "prob")
          parse_error(spec,
                      "unknown option \"" + key + "\" (rank|after|count|ms|prob)");
        try {
          if (key == "rank")
            rule.rank = std::stoi(value);
          else if (key == "after")
            rule.after = std::stoull(value);
          else if (key == "count")
            rule.count = std::stoull(value);
          else if (key == "ms")
            rule.delay_ms = std::stod(value);
          else
            rule.probability = std::stod(value);
        } catch (const std::exception&) {
          parse_error(spec, "bad value in \"" + kv + "\"");
        }
      }
    }
    if (rule.after < 1)
      parse_error(spec, "after is 1-based (got 0)");
    if (rule.rank < -1 || rule.rank >= kMaxRanks)
      parse_error(spec, "rank out of range in \"" + element + "\"");
    if (rule.probability < 0.0 || rule.probability > 1.0)
      parse_error(spec, "prob must be in [0, 1]");
    if (rule.delay_ms < 0.0) parse_error(spec, "ms must be >= 0");
    rules.push_back(rule);
  }
  if (rules.empty()) parse_error(spec, "no rules");
  return FaultPlan(seed, std::move(rules));
}

std::string FaultPlan::to_string() const {
  std::string out = "seed=" + std::to_string(seed_);
  for (const FaultRule& r : rules_) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ";%s@%s:rank=%d,after=%llu,count=%llu,ms=%g,prob=%g",
                  fault::to_string(r.kind).c_str(),
                  fault::to_string(r.site).c_str(), r.rank,
                  static_cast<unsigned long long>(r.after),
                  static_cast<unsigned long long>(r.count), r.delay_ms,
                  r.probability);
    out += buf;
  }
  return out;
}

}  // namespace hgr::fault

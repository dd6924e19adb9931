// Deterministic fault injection for the in-process comm runtime.
//
// A FaultPlan is a seed-driven, reproducible chaos schedule: a list of
// rules, each matching a (rank, blocking-point) pair and firing on a
// deterministic subset of the matching calls. The comm runtime consults
// the plan at every collective boundary; a firing rule
// injects one of three failure modes the real cluster exhibits:
//
//   stall   the rank blocks until the run is aborted — the driver for the
//           deadlock watchdog (docs/CHECKING.md). Requires a nonzero
//           watchdog timeout, or the run genuinely hangs.
//   delay   the rank sleeps delay_ms before proceeding (a slow link or an
//           overloaded node); the collective still completes correctly.
//   throw   the rank throws FaultInjected mid-collective, exercising the
//           abort path: peers observe CommAborted and Comm::run rethrows
//           FaultInjected to the caller.
//
// Determinism: rules fire by per-(rule, rank) match counters plus an
// optional probability coin derived from (seed, rule, rank, match index),
// never from wall time — the same plan against the same program faults at
// the same points on every run. Counters persist across Comm::run calls
// (and across Comm instances sharing the plan), so a rule can target "the
// Nth alltoallv of the whole epoch sequence". See docs/ROBUSTNESS.md for
// the plan syntax and the epoch driver's degradation policy on top.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace hgr::fault {

enum class FaultKind { kStall, kDelay, kThrow };

/// Instrumented blocking points: one per comm-runtime collective and the
/// serve request boundary (hgr_serve checks
/// kServe before dispatching each batch, so chaos tests can stall, delay,
/// or fail requests without touching the partitioning pipeline). kAny in a
/// rule matches all of them.
enum class FaultSite {
  kBarrier,
  kAllgather,
  kAllreduce,
  kBcast,
  kAlltoallv,
  kServe,
  kAny,
};

std::string to_string(FaultKind kind);
std::string to_string(FaultSite site);

/// Thrown by a rank when a kThrow rule fires. Derives from runtime_error
/// so it flows through the comm abort machinery like any application
/// failure; the epoch driver's degradation policy treats it as retryable.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what) : std::runtime_error(what) {}
};

struct FaultRule {
  FaultKind kind = FaultKind::kThrow;
  FaultSite site = FaultSite::kAny;
  /// Rank the rule applies to; -1 matches every rank.
  int rank = -1;
  /// Fire starting at the `after`-th matching call (1-based).
  std::uint64_t after = 1;
  /// Number of consecutive matching calls that fire; 0 = every one from
  /// `after` on.
  std::uint64_t count = 1;
  /// Sleep length for kDelay rules.
  double delay_ms = 1.0;
  /// Fire each selected call only with this probability (seed-driven
  /// deterministic coin); 1.0 = always.
  double probability = 1.0;
};

/// What the runtime should do at an instrumented point.
struct FaultDecision {
  FaultKind kind = FaultKind::kThrow;
  double delay_ms = 0.0;
  std::string description;  // "throw@alltoallv rank=1 match=3" — what()
                            // text and log line
};

class FaultPlan {
 public:
  /// Highest rank id a plan can track counters for (in-process runs are
  /// well below this).
  static constexpr int kMaxRanks = 256;

  FaultPlan(std::uint64_t seed, std::vector<FaultRule> rules);

  /// Parse the CLI/spec syntax (docs/ROBUSTNESS.md):
  ///
  ///   [seed=S;]<kind>@<site>[:key=val[,key=val]...][;<rule>...]
  ///
  /// kind: stall | delay | throw; site: barrier | allgather | allreduce |
  /// bcast | alltoallv | serve | any. Keys: rank, after, count, ms, prob.
  /// Example: "seed=7;throw@alltoallv:rank=1,after=3;
  /// delay@bcast:ms=2,count=0,prob=0.25". Throws std::invalid_argument on
  /// malformed specs.
  static FaultPlan parse(const std::string& spec);

  /// Consulted by the comm runtime at an instrumented point. Thread-safe:
  /// every (rule, rank) match counter is an atomic bumped only by rank's
  /// own thread. Returns the first firing rule's decision, or nullopt.
  std::optional<FaultDecision> check(FaultSite site, int rank) const;

  /// Zero every match counter (tests replaying a plan from the start).
  void reset() const;

  const std::vector<FaultRule>& rules() const { return rules_; }
  std::uint64_t seed() const { return seed_; }
  std::string to_string() const;

 private:
  std::uint64_t seed_;
  std::vector<FaultRule> rules_;
  /// Match counters, rules_.size() x kMaxRanks, mutable so a
  /// shared_ptr<const FaultPlan> can be consulted from rank threads: the
  /// counters are bookkeeping, not plan identity.
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> hits_;
};

}  // namespace hgr::fault

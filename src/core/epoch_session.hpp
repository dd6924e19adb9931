// The epoch session: the one owner of a load balancer's state across
// epochs, shared by run_epochs, hgr_serve and hgr_cli. The paper's model
// (Section 3) hands the balancer H^j and the previous assignment each
// epoch; the session keeps the hypergraph, its partition, the drift
// baseline and the O(delta) tier's GainCache resident between epochs.
//
// The O(delta) tier (docs/INCREMENTAL.md) repairs the previous partition
// with bounded greedy moves from the changed vertices' neighborhood and
// accepts the result only while drift against the last full-tier cut and
// residual imbalance stay inside the PartitionConfig thresholds; anything
// else escalates to the full V-cycle, which refreshes the baseline. The
// cache survives attempts and is synced by replaying the vertices whose
// part differs, so an attempt on an unchanged structure costs
// O(delta neighbourhood + n) instead of O(pins + nets * k). Only a
// structural replacement drops it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/workspace.hpp"
#include "core/repartitioner.hpp"
#include "hypergraph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "partition/gain_cache.hpp"

namespace hgr {

/// What changed between two consecutive epochs, in the newer epoch's
/// compact vertex ids.
struct EpochDelta {
  /// New vertices and vertices whose weight changed. Size-only changes
  /// are not listed: the fast path's move rule does not read sizes.
  std::vector<VertexId> changed;
  /// Vertices of the previous epoch that disappeared.
  Index removed = 0;
  /// False until two consecutive epochs have been observed; an unknown
  /// delta is treated as "everything changed".
  bool known = false;

  /// Changed fraction relative to the current epoch: the kAuto routing
  /// signal. 1.0 when the delta is unknown.
  double fraction(Index num_vertices) const {
    if (!known || num_vertices <= 0) return 1.0;
    return static_cast<double>(changed.size() + static_cast<std::size_t>(
                                                    removed)) /
           static_cast<double>(num_vertices);
  }
};

/// Diffs consecutive epochs of a scenario by base vertex id, producing the
/// EpochDelta the tier router consumes. Owned by the epoch loop; observe()
/// is called once per epoch, before repartitioning.
class EpochDeltaTracker {
 public:
  EpochDelta observe(const Graph& g, const std::vector<Index>& to_base);

 private:
  // Previous epoch's state keyed by base id: weight when present, and a
  // presence marker (weight is >= 0 for real vertices).
  std::vector<Weight> prev_weight_;
  std::vector<bool> prev_present_;
  bool have_prev_ = false;
};

/// Outcome of one fast-path attempt.
struct IncrementalOutcome {
  Partition partition;
  Weight cut = 0;          // connectivity-1 cut of `partition`
  double drift = 0.0;      // (cut - baseline) / max(1, baseline)
  Index moves = 0;         // greedy moves applied
  bool attempted = false;  // moves were tried (drives `escalated`)
  bool accepted = false;   // partition is usable as the epoch's answer
  std::string reason;      // why not, when !accepted
  double seconds = 0.0;
};

class EpochSession {
 public:
  explicit EpochSession(Workspace* ws = nullptr) : ws_(ws) {}
  // The resident cache refers to h_, so a session never moves.
  EpochSession(const EpochSession&) = delete;
  EpochSession& operator=(const EpochSession&) = delete;

  const Hypergraph& hypergraph() const { return h_; }
  const Partition& partition() const { return p_; }
  Weight baseline_cut() const { return baseline_.value_or(0); }

  /// Takes `h` and partitions it statically; that cut, returned, is the
  /// baseline. The cache is released first, the old hypergraph only once
  /// `h` is partitioned: a failure leaves the rest of the session as it
  /// was, and both hypergraphs are held while `h` is partitioned.
  Weight bootstrap(Hypergraph h, const PartitionConfig& cfg);
  /// Takes `h` with a known assignment `p`, whose cut is the baseline.
  Weight bootstrap(Hypergraph h, Partition p);

  /// In-place edits keep the resident cache: one weight, or every vertex
  /// weight and size of `g` when graph_to_hypergraph(g) would give the
  /// current pins and net costs (compared in place, O(pins)). set_weights
  /// returns false, changing nothing, when the structure differs.
  void set_vertex_weight(VertexId v, Weight w) { h_.set_vertex_weight(v, w); }
  [[nodiscard]] bool set_weights(const Graph& g);

  /// Adopts `p` for the current structure; the cache syncs to it on reuse.
  void set_partition(Partition p);

  /// Frees the resident cache; the next attempt rebuilds it. The
  /// hypergraph, partition and baseline stay.
  void release_cache() { cache_.reset(); }

  /// Releases the cache and the old hypergraph, then takes `h` with the
  /// assignment `p`. The baseline is kept when `h` continues the old
  /// structure (a structural epoch, ADD, REMOVE) and dropped when it is
  /// unrelated (SWAP), which sends the next dispatch to the full tier.
  void replace_structure(Hypergraph h, Partition p, bool keep_baseline);
  /// The same for `g`, converted only once the old hypergraph is released,
  /// so a structural epoch never holds two hypergraphs at once.
  void replace_structure(const Graph& g, Partition p, bool keep_baseline);

  /// The O(delta) repair of partition(); changes neither it nor the
  /// baseline, and equals a fresh session's outcome with the same baseline.
  IncrementalOutcome try_epoch(const EpochDelta& delta,
                               const RepartitionerConfig& cfg);

  /// Two-tier repartition: the fast path answers when
  /// cfg.partition.incremental allows it and try_epoch accepts; otherwise
  /// run_repartition_with_policy does (on `graph` for the graph-family
  /// algorithms) and its cut becomes the baseline. The answer is moved
  /// into partition(), leaving result.partition empty. Bumps the
  /// epoch.tier_* / epoch.escalations counters.
  GuardedRepartitionResult repartition(RepartAlgorithm algorithm,
                                       const EpochDelta& delta,
                                       const RepartitionerConfig& cfg,
                                       const Graph& graph = Graph{});

 private:
  /// Drops the resident cache, then the hypergraph it refers to.
  void release_structure();

  /// The resident cache, synced to (h_, p_): when it was left consistent
  /// on this structure and k, part weights are recomputed and every vertex
  /// whose cached part differs from p_ is replayed; else it is rebuilt.
  GainCache& resident_cache(check::CheckLevel level);

  Workspace* ws_;
  Hypergraph h_;
  Partition p_;
  std::optional<Weight> baseline_;  // the drift baseline's cut
  // Owns its storage (null Workspace), so it never pins arena vectors.
  std::optional<GainCache> cache_;
  // False while an attempt is mutating the cache, so an exception part-way
  // forces a rebuild.
  bool cache_synced_ = false;
};

}  // namespace hgr

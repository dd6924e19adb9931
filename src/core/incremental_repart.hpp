// Incremental repartitioning: the O(delta) tier of the two-tier epoch
// system (docs/INCREMENTAL.md).
//
// The paper's premise is that adaptive computations change *incrementally*
// between epochs, yet a full multilevel V-cycle costs O(|V| + |pins|)
// regardless of how small the change was. Following the online balanced
// repartitioning line of work (PAPERS.md), this module repairs the
// previous epoch's partition directly: seed a work queue with the changed
// vertices and their one-hop neighborhood, apply bounded greedy moves
// through the GainCache under the ceil-aware balance bound, and accept the
// result only while drift — cut degradation relative to the last full-tier
// partition, plus residual imbalance — stays inside the PartitionConfig
// thresholds. Anything else escalates to the full V-cycle, which also
// refreshes the drift baseline.
//
// The GainCache is resident: it survives across attempts and is synced to
// each attempt's old partition by replaying the differing vertices, so an
// attempt on an unchanged structure costs O(delta neighbourhood + n)
// instead of the O(pins + nets * k) of a fresh build.
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
  /// New vertices and vertices whose weight or size changed.
  std::vector<VertexId> changed;
  /// Vertices of the previous epoch that disappeared.
  Index removed = 0;
  /// Vertex count of the previous epoch (denominator context).
  Index prev_vertices = 0;
  /// False until two consecutive epochs have been observed; an unknown
  /// delta is treated as "everything changed".
  bool known = false;

  /// Changed fraction relative to the current epoch: the kAuto routing
  /// signal. 1.0 when the delta is unknown.
  double fraction(Index num_vertices) const {
    if (!known) return 1.0;
    if (num_vertices <= 0) return 1.0;
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
  Index prev_vertices_ = 0;
  bool have_prev_ = false;
};

/// Outcome of one fast-path attempt.
struct IncrementalOutcome {
  Partition partition;
  Weight cut = 0;          // connectivity-1 cut of `partition`
  double imbalance = 0.0;  // of `partition` on the epoch weights
  double drift = 0.0;      // (cut - baseline) / max(1, baseline)
  Index moves = 0;         // greedy moves applied
  bool attempted = false;  // moves were tried (drives `escalated`)
  bool accepted = false;   // partition is usable as the epoch's answer
  std::string reason;      // why not, when !accepted
  double seconds = 0.0;
};

class IncrementalRepartitioner {
 public:
  explicit IncrementalRepartitioner(Workspace* ws = nullptr) : ws_(ws) {}

  /// Record the cut of a full-tier (or static bootstrap) partition: the
  /// baseline that drift is measured against.
  void note_full(Weight cut) {
    baseline_cut_ = cut;
    have_baseline_ = true;
  }
  bool have_baseline() const { return have_baseline_; }
  Weight baseline_cut() const { return baseline_cut_; }

  /// Attempts the O(delta) repair of `old_p` for the epoch hypergraph `h`.
  /// Pure with respect to the baseline: only note_full() moves it. The
  /// outcome equals a fresh IncrementalRepartitioner's with the same
  /// baseline, whatever earlier attempts left in the resident cache.
  IncrementalOutcome try_epoch(const Hypergraph& h, const Partition& old_p,
                               const EpochDelta& delta,
                               const RepartitionerConfig& cfg);

 private:
  /// The resident cache, synced to (h, old_p). Reused when it was built on
  /// this very hypergraph object with this structure_id() and k: part
  /// weights are recomputed and every vertex whose cached part differs
  /// from old_p is replayed through apply_move. Rebuilt otherwise.
  GainCache& resident_cache(const Hypergraph& h, const Partition& old_p,
                            check::CheckLevel level);

  Workspace* ws_;
  Weight baseline_cut_ = 0;
  bool have_baseline_ = false;
  // Owns its storage (null Workspace), so it never pins arena vectors.
  std::optional<GainCache> cache_;
  // structure_id() the cache describes; 0 (never a real stamp) while an
  // attempt is mutating it, so an exception part-way forces a rebuild.
  std::uint64_t cache_structure_ = 0;
};

}  // namespace hgr

// Multilevel graph partitioner: the paper's two ParMETIS baselines as two
// entries into one multilevel loop (docs/ALGORITHMS.md §3).
//
// Without an old partition it is the Partkway (partition-from-scratch)
// analog. With one it is the AdaptiveRepart analog: the multilevel unified
// repartitioning algorithm of Schloegel, Karypis & Kumar (Supercomputing
// 2000), which is the same scheme with three components swapped in:
//   - coarsening with matching restricted to same-old-part pairs, so the
//     old partition projects exactly through the hierarchy;
//   - the old partition (rebalanced) as the coarse initial solution;
//   - refinement of the composite objective alpha * edgecut + migration,
//     where alpha is the paper's iterations-per-epoch parameter ("Our
//     alpha corresponds to the ITR parameter in ParMETIS").
#pragma once

#include "hypergraph/graph.hpp"
#include "metrics/partition.hpp"
#include "partition/config.hpp"

namespace hgr {

/// Direct k-way multilevel graph partitioning: heavy-edge matching
/// coarsening, greedy graph growing at the coarsest level, greedy k-way
/// edge-cut refinement on every level. Deterministic in (g, cfg).
Partition partition_graph(const Graph& g, const PartitionConfig& cfg);

/// Repartition g given the old assignment; alpha weighs communication
/// against migration. old_p.k must equal cfg.num_parts. Returns the new
/// partition (same k). Deterministic in (g, old_p, cfg, alpha).
Partition adaptive_repartition(const Graph& g, const Partition& old_p,
                               const PartitionConfig& cfg, Weight alpha);

}  // namespace hgr

// Parallel refinement (paper §4.3): a localized FM variant.
//
// Each pass, every rank scans the vertices it owns against the replicated
// pass-start state and proposes its best positive-gain moves; proposals are
// exchanged (the counted communication), then applied in a deterministic
// global order with revalidation — each move re-checks its gain and the
// balance constraint against the evolving state, so all ranks end the pass
// with identical partitions. Fixed vertices never move.
#pragma once

#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "parallel/comm.hpp"
#include "partition/config.hpp"

namespace hgr {

struct ParRefineResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  Index moves = 0;
  Index passes = 0;
};

ParRefineResult parallel_refine(RankContext& ctx, const Hypergraph& h,
                                Partition& p, const PartitionConfig& cfg);

}  // namespace hgr

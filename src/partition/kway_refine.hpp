// Direct k-way greedy refinement of the connectivity-1 objective.
//
// Greedy boundary sweeps in the style of k-way FM without rollback: each
// pass proposes moves in parallel against the frozen pass-start gain
// cache, then applies the survivors serially in random order (the move
// GainCache::best_move picks among the parts the vertex's nets touch).
// Respects fixed vertices and Eq. 1 balance; the result is bit-identical
// at every thread count (docs/PARALLELISM.md).
// Used as an optional post-pass after recursive bisection, inside
// V-cycles, and as the refinement stage of the direct k-way method.
#pragma once

#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "partition/config.hpp"

namespace hgr {

struct KwayRefineResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  Index moves = 0;
  Index passes = 0;
};

/// Refine p in place. max_passes caps the number of sweeps; a sweep that
/// applies no move ends refinement early. `ws` (optional) pools the dense
/// pin table and per-pass scratch across levels and supplies the
/// ThreadPool the proposal phase runs on (serial when absent).
KwayRefineResult kway_refine(const Hypergraph& h, Partition& p,
                             const PartitionConfig& cfg, Rng& rng,
                             Index max_passes, Workspace* ws = nullptr);

}  // namespace hgr

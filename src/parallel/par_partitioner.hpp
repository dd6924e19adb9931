// The parallel multilevel hypergraph partitioner with fixed vertices
// (paper Section 4): coarsening by round-based candidate-broadcast IPM,
// replicated randomized coarse partitioning with a global best pick, and
// synchronized localized refinement pass-pairs — executed by p ranks over
// the in-process message-passing runtime. hypergraph_repartition
// (core/repartitioner.hpp) solves the paper's augmented model with it when
// RepartitionerConfig::num_ranks > 0.
#pragma once

#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "parallel/comm.hpp"
#include "partition/config.hpp"

namespace hgr {

struct ParallelPartitionConfig {
  int num_ranks = 4;
  PartitionConfig base;
  /// Use local IPM (same-rank matches only, one pair-list exchange)
  /// instead of the candidate-broadcast global IPM — the speed/quality
  /// trade the paper proposes as future work (Section 5/6).
  bool local_matching = false;
  /// Watchdog timeout installed on the run's communicator (seconds; 0
  /// disables detection). base.fault_plan, when set, is installed too —
  /// injected stalls need a live watchdog to surface as CommDeadlock.
  double deadlock_timeout = 30.0;
};

struct ParallelPartitionResult {
  Partition partition;
  CommStats traffic;    // total bytes/messages across ranks
  double seconds = 0.0;
  Index levels = 0;     // coarsening depth reached
};

/// Partition h into base.num_parts parts using num_ranks ranks. Honors
/// h.fixed_part(). Every rank computes the identical result; the returned
/// partition is rank 0's.
ParallelPartitionResult parallel_partition_hypergraph(
    const Hypergraph& h, const ParallelPartitionConfig& cfg);

}  // namespace hgr

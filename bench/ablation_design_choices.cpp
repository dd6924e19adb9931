// Ablations of the design choices DESIGN.md calls out:
//   1. k-way method: recursive bisection (Zoltan's path) vs direct k-way;
//   2. V-cycles and the k-way post-pass;
//   3. coarse-partitioning restarts (1 vs 8 trials);
//   4. matching constraint: fixed-aware IPM vs matching disabled
//      (coarsening depth impact).
// Reports connectivity-1 cut and wall time on a mid-size instance.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/timer.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/migration.hpp"
#include "metrics/remap_optimal.hpp"
#include "metrics/cut.hpp"
#include "partition/partitioner.hpp"
#include "workload/datasets.hpp"

namespace {

using namespace hgr;

void report(const char* label, const Hypergraph& h,
            const PartitionConfig& cfg) {
  WallTimer timer;
  const Partition p = partition_hypergraph(h, cfg);
  const double seconds = timer.seconds();
  std::printf("%-34s cut=%-10lld imb=%.3f time=%s\n", label,
              static_cast<long long>(connectivity_cut(h, p)),
              imbalance(h.vertex_weights(), p),
              format_seconds(seconds).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.15;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0)
      scale = std::stod(argv[i] + 8);
  }
  const Graph g = make_dataset("auto-like", scale, 7);
  const Hypergraph h = graph_to_hypergraph(g);
  std::printf("=== Ablation: design choices (auto-like, %s, k=16) ===\n",
              h.summary().c_str());

  PartitionConfig base;
  base.num_parts = 16;
  base.epsilon = 0.05;
  base.seed = 11;

  report("baseline (RB)", h, base);

  PartitionConfig kway = base;
  kway.kway_method = KwayMethod::kDirectKway;
  report("method: direct k-way", h, kway);

  PartitionConfig post = base;
  post.kway_postpass = true;
  report("RB + k-way post-pass", h, post);

  PartitionConfig vcycle = base;
  vcycle.num_vcycles = 2;
  report("RB + 2 V-cycles", h, vcycle);

  PartitionConfig one_trial = base;
  one_trial.num_initial_trials = 1;
  report("coarse restarts: 1 trial", h, one_trial);

  PartitionConfig many_trials = base;
  many_trials.num_initial_trials = 16;
  report("coarse restarts: 16 trials", h, many_trials);

  PartitionConfig few_passes = base;
  few_passes.max_refine_passes = 1;
  report("FM passes: 1", h, few_passes);

  PartitionConfig many_passes = base;
  many_passes.max_refine_passes = 8;
  report("FM passes: 8", h, many_passes);

  // Scratch-remap heuristic vs the optimal (Hungarian) relabeling: how
  // much migration does the paper's greedy maximal matching leave on the
  // table?
  std::printf("\nremap heuristic vs optimal (scratch repartition):\n");
  const Partition old_p = partition_hypergraph(h, base);
  PartitionConfig fresh = base;
  fresh.seed = 12345;
  const Partition raw = partition_hypergraph(h, fresh);
  const Partition greedy =
      remap_parts_for_migration(h.vertex_sizes(), old_p, raw);
  const Partition optimal = remap_parts_optimal(h.vertex_sizes(), old_p, raw);
  std::printf("  %-20s migration=%lld\n", "no remap",
              static_cast<long long>(
                  migration_volume(h.vertex_sizes(), old_p, raw)));
  std::printf("  %-20s migration=%lld\n", "greedy matching",
              static_cast<long long>(
                  migration_volume(h.vertex_sizes(), old_p, greedy)));
  std::printf("  %-20s migration=%lld\n", "optimal (Hungarian)",
              static_cast<long long>(
                  migration_volume(h.vertex_sizes(), old_p, optimal)));
  return 0;
}

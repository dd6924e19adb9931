// Dynamic sparse matrix-vector multiplication (SpMV) — the classic
// hypergraph-partitioning application (Catalyurek & Aykanat, TPDS 1999,
// the paper's reference [5]).
//
// A sparse matrix is distributed row-wise; the column-net hypergraph model
// makes the connectivity-1 cut equal the SpMV communication volume. The
// sparsity pattern drifts over time (fill-in appears and disappears), and
// the paper's repartitioner keeps the distribution good without reshuffling
// the matrix wholesale. This example also demonstrates running the
// *parallel* partitioner over the in-process message-passing runtime.
#include <cstdint>
#include <cstdio>

#include "core/repartitioner.hpp"
#include "hypergraph/builder.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "parallel/comm_telemetry.hpp"
#include "partition/partitioner.hpp"
#include "workload/generators.hpp"

int main() {
  using namespace hgr;
  // A structurally symmetric sparse matrix as a graph; its column-net
  // hypergraph has one net per row.
  Graph pattern = make_regular_random(2000, 12, 17);
  Hypergraph spmv = graph_to_column_net_hypergraph(pattern);

  PartitionConfig pcfg;
  pcfg.num_parts = 8;
  pcfg.epsilon = 0.05;
  pcfg.seed = 21;
  Partition dist = partition_hypergraph(spmv, pcfg);
  std::printf("initial row distribution: comm volume per SpMV = %lld\n",
              static_cast<long long>(connectivity_cut(spmv, dist)));

  Rng rng(99);
  for (int step = 1; step <= 4; ++step) {
    // Pattern drift: rewire ~2% of the entries.
    GraphBuilder b(pattern.num_vertices());
    for (Index v = 0; v < pattern.num_vertices(); ++v) {
      const auto nbrs = pattern.neighbors(v);
      const auto ws = pattern.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] > v && !rng.chance(0.02)) b.add_edge(v, nbrs[i], ws[i]);
      }
    }
    for (int e = 0; e < pattern.num_edges() / 50; ++e) {
      const auto u = static_cast<Index>(
          rng.below(static_cast<std::uint64_t>(pattern.num_vertices())));
      const auto w = static_cast<Index>(
          rng.below(static_cast<std::uint64_t>(pattern.num_vertices())));
      if (u != w) b.add_edge(u, w, 1);
    }
    pattern = b.finalize();
    spmv = graph_to_column_net_hypergraph(pattern);

    RepartitionerConfig rcfg;
    rcfg.partition = pcfg;
    rcfg.partition.seed = static_cast<std::uint64_t>(1000 + step);
    rcfg.alpha = 200;  // many SpMVs (solver iterations) per repartition
    const RepartitionResult r = hypergraph_repartition(spmv, dist, rcfg);
    std::printf("step %d: comm=%lld mig=%lld rows moved=%zu imb=%.3f\n",
                step, static_cast<long long>(r.cost.comm_volume),
                static_cast<long long>(r.cost.migration_volume),
                r.plan.moves.size(),
                imbalance(spmv.vertex_weights(), r.partition));
    dist = r.partition;
  }

  // The same repartitioning step, but the augmented model is solved by
  // the parallel partitioner over the message-passing runtime (4 ranks).
  RepartitionerConfig par;
  par.partition = pcfg;
  par.alpha = 200;
  par.num_ranks = 4;
  const RepartitionResult pr = hypergraph_repartition(spmv, dist, par);
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  for (const RankCommTelemetry& rank : comm_telemetry_snapshot().ranks) {
    bytes += rank.bytes_sent;
    messages += rank.messages_sent;
  }
  std::printf("parallel (4 ranks): comm volume of result = %lld, "
              "runtime traffic = %llu bytes in %llu messages\n",
              static_cast<long long>(pr.cost.comm_volume),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(messages));
  return 0;
}

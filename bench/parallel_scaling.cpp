// Rank scaling of the message-passing partitioner. Wall-clock scalability
// is not observable on one core (DESIGN.md §2), so the study reports what
// *is* machine-independent — solution quality and communication traffic
// as the rank count grows — and the paper's Section 6 local-IPM trade.
// Thread-count determinism is pinned by the ParKernel and
// ThreadDeterminism test suites, not here.
#include <cstdio>
#include <string>

#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/partitioner.hpp"
#include "workload/datasets.hpp"

namespace {

using namespace hgr;

void run_rank_study(const Hypergraph& h) {
  PartitionConfig base;
  base.num_parts = 16;
  base.epsilon = 0.05;
  base.seed = 7;

  const Partition serial = partition_hypergraph(h, base);
  std::printf("%-8s cut=%-8lld imb=%.3f  (serial reference)\n", "p=1*",
              static_cast<long long>(connectivity_cut(h, serial)),
              imbalance(h.vertex_weights(), serial));

  std::printf("\n%-6s %10s %8s %14s %12s %12s\n", "ranks", "cut", "imb",
              "bytes", "messages", "collectives");
  for (const int ranks : {1, 2, 4, 8}) {
    ParallelPartitionConfig cfg;
    cfg.num_ranks = ranks;
    cfg.base = base;
    const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
    std::printf("%-6d %10lld %8.3f %14llu %12llu %12llu\n", ranks,
                static_cast<long long>(connectivity_cut(h, r.partition)),
                imbalance(h.vertex_weights(), r.partition),
                static_cast<unsigned long long>(r.traffic.bytes_sent),
                static_cast<unsigned long long>(r.traffic.messages_sent),
                static_cast<unsigned long long>(r.traffic.collectives));
  }

  // The paper's future-work proposal: local IPM instead of global IPM
  // ("We plan to improve this performance by using local heuristics ...
  // to reduce global communication"). Traffic drops sharply; quality
  // gives back a little.
  std::printf("\nglobal vs local IPM (the paper's Section 6 proposal):\n");
  for (const int ranks : {2, 8}) {
    for (const bool local : {false, true}) {
      ParallelPartitionConfig cfg;
      cfg.num_ranks = ranks;
      cfg.base = base;
      cfg.local_matching = local;
      const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
      std::printf("ranks=%d matching=%-6s cut=%-8lld bytes=%llu\n", ranks,
                  local ? "local" : "global",
                  static_cast<long long>(connectivity_cut(h, r.partition)),
                  static_cast<unsigned long long>(r.traffic.bytes_sent));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) scale = std::stod(arg.substr(8));
  }
  const Graph g = make_dataset("auto-like", scale, 5);
  const Hypergraph h = graph_to_hypergraph(g);
  std::printf("=== Rank scaling (auto-like, %s, k=16) ===\n",
              h.summary().c_str());
  run_rank_study(h);
  return 0;
}

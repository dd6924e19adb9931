#include "hypergraph/stats.hpp"

#include <algorithm>
#include <vector>

namespace hgr {

namespace {

template <typename DegreeFn>
DegreeStats stats_over(Index n, DegreeFn deg) {
  DegreeStats s;
  if (n == 0) return s;
  s.min = deg(0);
  s.max = deg(0);
  long long total = 0;
  for (Index i = 0; i < n; ++i) {
    const Index d = deg(i);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    total += d;
  }
  s.avg = static_cast<double>(total) / static_cast<double>(n);
  return s;
}

}  // namespace

DegreeStats graph_degree_stats(const Graph& g) {
  return stats_over(g.num_vertices(), [&](Index v) { return g.degree(v); });
}

DegreeStats hypergraph_vertex_degree_stats(const Hypergraph& h) {
  return stats_over(h.num_vertices(),
                    [&](Index v) { return h.vertex_degree(VertexId{v}); });
}

DegreeStats hypergraph_net_size_stats(const Hypergraph& h) {
  return stats_over(h.num_nets(), [&](Index n) { return h.net_size(NetId{n}); });
}

bool is_connected(const Graph& g) {
  const Index n = g.num_vertices();
  if (n == 0) return true;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::vector<Index> stack{0};
  seen[0] = true;
  Index visited = 1;
  while (!stack.empty()) {
    const Index v = stack.back();
    stack.pop_back();
    for (const Index u : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = true;
        ++visited;
        stack.push_back(u);
      }
    }
  }
  return visited == n;
}

}  // namespace hgr

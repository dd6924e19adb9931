#include "hypergraph/builder.hpp"

#include <algorithm>
#include <cstddef>

#include "common/assert.hpp"
#include "common/csr_utils.hpp"

namespace hgr {

HypergraphBuilder::HypergraphBuilder(Index num_vertices)
    : num_vertices_(num_vertices),
      vertex_weights_(static_cast<std::size_t>(num_vertices), 1),
      vertex_sizes_(static_cast<std::size_t>(num_vertices), 1),
      fixed_(static_cast<std::size_t>(num_vertices), kNoPart) {
  HGR_ASSERT(num_vertices >= 0);
}

Index HypergraphBuilder::add_net(std::span<const Index> pins, Weight cost) {
  HGR_ASSERT(cost >= 0);
  // The builder is the untyped construction boundary: raw pin integers
  // become VertexId here, once, on the way into the typed Hypergraph.
  const auto begin = static_cast<std::ptrdiff_t>(pins_.size());
  for (const Index v : pins) {
    HGR_ASSERT(v >= 0 && v < num_vertices_);
    pins_.push_back(VertexId{v});
  }
  std::sort(pins_.begin() + begin, pins_.end());
  pins_.erase(std::unique(pins_.begin() + begin, pins_.end()), pins_.end());
  net_offsets_.push_back(static_cast<Index>(pins_.size()));
  net_costs_.push_back(cost);
  return static_cast<Index>(net_costs_.size()) - 1;
}

Index HypergraphBuilder::add_net(std::initializer_list<Index> pins,
                                 Weight cost) {
  return add_net(std::span<const Index>(pins.begin(), pins.size()), cost);
}

void HypergraphBuilder::set_vertex_weight(Index v, Weight w) {
  HGR_ASSERT(v >= 0 && v < num_vertices_ && w >= 0);
  vertex_weights_[static_cast<std::size_t>(v)] = w;
}

void HypergraphBuilder::set_vertex_size(Index v, Weight s) {
  HGR_ASSERT(v >= 0 && v < num_vertices_ && s >= 0);
  vertex_sizes_[static_cast<std::size_t>(v)] = s;
}

void HypergraphBuilder::set_all_vertex_weights(Weight w) {
  HGR_ASSERT(w >= 0);
  std::fill(vertex_weights_.begin(), vertex_weights_.end(), w);
}

void HypergraphBuilder::set_all_vertex_sizes(Weight s) {
  HGR_ASSERT(s >= 0);
  std::fill(vertex_sizes_.begin(), vertex_sizes_.end(), s);
}

void HypergraphBuilder::set_fixed_part(Index v, PartId part) {
  HGR_ASSERT(v >= 0 && v < num_vertices_);
  fixed_[static_cast<std::size_t>(v)] = part;
  if (part != kNoPart) any_fixed_ = true;
}

Hypergraph HypergraphBuilder::finalize() {
  // Drop nets below min_pins by compacting the CSR in place: a kept net's
  // pins move down over the dropped ones, and its offset and cost to its
  // kept index. Reads of net_offsets_[n + 1] stay ahead of the writes.
  const Index min_pins = keep_single_pin_ ? 1 : 2;
  const std::size_t added = net_costs_.size();
  std::size_t kept = 0;
  Index write = 0;
  Index begin = 0;
  for (std::size_t n = 0; n < added; ++n) {
    const Index end = net_offsets_[n + 1];
    if (end - begin >= min_pins) {
      if (write != begin)
        std::copy(pins_.begin() + begin, pins_.begin() + end,
                  pins_.begin() + write);
      write += end - begin;
      net_costs_[kept++] = net_costs_[n];
      net_offsets_[kept] = write;
    }
    begin = end;
  }
  net_offsets_.resize(kept + 1);
  pins_.resize(static_cast<std::size_t>(write));
  net_costs_.resize(kept);
  std::vector<PartId> fixed;
  if (any_fixed_) fixed = std::move(fixed_);
  return Hypergraph(std::move(net_offsets_), std::move(pins_),
                    std::move(vertex_weights_), std::move(vertex_sizes_),
                    std::move(net_costs_), std::move(fixed));
}

GraphBuilder::GraphBuilder(Index num_vertices)
    : num_vertices_(num_vertices),
      vertex_weights_(static_cast<std::size_t>(num_vertices), 1),
      vertex_sizes_(static_cast<std::size_t>(num_vertices), 1) {
  HGR_ASSERT(num_vertices >= 0);
}

void GraphBuilder::add_edge(Index u, Index v, Weight w) {
  HGR_ASSERT(u >= 0 && u < num_vertices_ && v >= 0 && v < num_vertices_);
  HGR_ASSERT(w >= 0);
  if (u == v) return;
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v, w});
}

void GraphBuilder::set_vertex_weight(Index v, Weight w) {
  HGR_ASSERT(v >= 0 && v < num_vertices_ && w >= 0);
  vertex_weights_[static_cast<std::size_t>(v)] = w;
}

void GraphBuilder::set_vertex_size(Index v, Weight s) {
  HGR_ASSERT(v >= 0 && v < num_vertices_ && s >= 0);
  vertex_sizes_[static_cast<std::size_t>(v)] = s;
}

Graph GraphBuilder::finalize() {
  // Merge parallel edges: sort by (u, v) and sum weights.
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::vector<Edge> merged;
  merged.reserve(edges_.size());
  for (const Edge& e : edges_) {
    if (!merged.empty() && merged.back().u == e.u && merged.back().v == e.v) {
      merged.back().w += e.w;
    } else {
      merged.push_back(e);
    }
  }
  std::vector<Index> degree(static_cast<std::size_t>(num_vertices_), 0);
  for (const Edge& e : merged) {
    ++degree[static_cast<std::size_t>(e.u)];
    ++degree[static_cast<std::size_t>(e.v)];
  }
  std::vector<Index> offsets = counts_to_offsets(std::move(degree));
  std::vector<Index> adjacency(static_cast<std::size_t>(offsets.back()));
  std::vector<Weight> eweights(adjacency.size());
  std::vector<Index> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : merged) {
    auto& cu = cursor[static_cast<std::size_t>(e.u)];
    adjacency[static_cast<std::size_t>(cu)] = e.v;
    eweights[static_cast<std::size_t>(cu)] = e.w;
    ++cu;
    auto& cv = cursor[static_cast<std::size_t>(e.v)];
    adjacency[static_cast<std::size_t>(cv)] = e.u;
    eweights[static_cast<std::size_t>(cv)] = e.w;
    ++cv;
  }
  return Graph(std::move(offsets), std::move(adjacency), std::move(eweights),
               std::move(vertex_weights_), std::move(vertex_sizes_));
}

}  // namespace hgr

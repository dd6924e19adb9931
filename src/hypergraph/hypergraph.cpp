#include "hypergraph/hypergraph.hpp"

#include <cstdio>
#include <numeric>
#include <vector>

namespace hgr {

Hypergraph::Hypergraph(std::vector<Index> net_offsets,
                       std::vector<VertexId> pins,
                       std::vector<Weight> vertex_weights,
                       std::vector<Weight> vertex_sizes,
                       std::vector<Weight> net_costs,
                       std::vector<PartId> fixed)
    : num_vertices_(static_cast<Index>(vertex_weights.size())),
      num_nets_(static_cast<Index>(net_costs.size())),
      net_offsets_(std::move(net_offsets)),
      pins_(std::move(pins)),
      vertex_weight_(std::move(vertex_weights)),
      vertex_size_(std::move(vertex_sizes)),
      net_cost_(std::move(net_costs)),
      fixed_(std::move(fixed)) {
  HGR_ASSERT(net_offsets_.size() == static_cast<std::size_t>(num_nets_) + 1);
  HGR_ASSERT(vertex_size_.size() == vertex_weight_.size());
  HGR_ASSERT(fixed_.empty() ||
             fixed_.size() == static_cast<std::size_t>(num_vertices_));
  total_vertex_weight_ =
      std::accumulate(vertex_weight_.begin(), vertex_weight_.end(), Weight{0});
  build_transpose();
}

void Hypergraph::build_transpose() {
  std::vector<Index> degree(static_cast<std::size_t>(num_vertices_), 0);
  for (const VertexId v : pins_) {
    HGR_ASSERT_MSG(v.v >= 0 && v.v < num_vertices_, "pin out of range");
    ++degree[static_cast<std::size_t>(v.v)];
  }
  vertex_offsets_.assign(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (Index v = 0; v < num_vertices_; ++v) {
    vertex_offsets_[static_cast<std::size_t>(v) + 1] =
        vertex_offsets_[static_cast<std::size_t>(v)] +
        degree[static_cast<std::size_t>(v)];
  }
  incident_nets_.resize(pins_.size());
  std::vector<Index> cursor(vertex_offsets_.begin(), vertex_offsets_.end() - 1);
  for (const NetId net : nets()) {
    for (const VertexId v : pins(net)) {
      incident_nets_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(v.v)]++)] = net;
    }
  }
}

void Hypergraph::set_fixed_parts(std::vector<PartId> fixed) {
  HGR_ASSERT(fixed.empty() ||
             fixed.size() == static_cast<std::size_t>(num_vertices_));
  fixed_ = std::move(fixed);
}

void Hypergraph::set_vertex_weight(VertexId v, Weight w) {
  HGR_ASSERT(v.v >= 0 && v.v < num_vertices_ && w >= 0);
  total_vertex_weight_ += w - vertex_weight_[static_cast<std::size_t>(v.v)];
  vertex_weight_[static_cast<std::size_t>(v.v)] = w;
}

void Hypergraph::set_vertex_size(VertexId v, Weight s) {
  HGR_ASSERT(v.v >= 0 && v.v < num_vertices_ && s >= 0);
  vertex_size_[static_cast<std::size_t>(v.v)] = s;
}

void Hypergraph::validate(Index num_parts) const {
  HGR_ASSERT_FMT(num_vertices_ >= 0 && num_nets_ >= 0,
                 "negative extents |V|=%d |N|=%d", num_vertices_, num_nets_);
  HGR_ASSERT_FMT(net_offsets_.size() == static_cast<std::size_t>(num_nets_) + 1,
                 "net offsets have %zu entries for %d nets",
                 net_offsets_.size(), num_nets_);
  HGR_ASSERT_FMT(net_offsets_.front() == 0 &&
                     net_offsets_.back() == static_cast<Index>(pins_.size()),
                 "net offsets span [%d, %d) but there are %zu pins",
                 net_offsets_.front(), net_offsets_.back(), pins_.size());
  // seen[v] counts v's pin appearances so far. build_transpose lists v's
  // nets in net order, so the next appearance of v, in net n, must be
  // incident_nets(v)[seen[v]]; and a repeat of v within n shows as the
  // entry before it already being n. One O(pins) sweep with a single
  // allocation checks pins, duplicates and the transpose both ways.
  std::vector<Index> seen(static_cast<std::size_t>(num_vertices_), 0);
  Index pin_count = 0;
  for (const NetId n : nets()) {
    HGR_ASSERT_FMT(net_size(n) >= 0,
                   "net offsets not monotone: net %d has size %d", n.v,
                   net_size(n));
    HGR_ASSERT_FMT(net_cost(n) >= 0, "negative net cost: net %d costs %lld",
                   n.v, static_cast<long long>(net_cost(n)));
    pin_count += net_size(n);
    for (const VertexId v : pins(n)) {
      HGR_ASSERT_FMT(v.v >= 0 && v.v < num_vertices_,
                     "pin out of range: net %d has pin %d (|V|=%d)", n.v, v.v,
                     num_vertices_);
      Index& i = seen[static_cast<std::size_t>(v.v)];
      const auto listed = incident_nets(v);
      HGR_ASSERT_FMT(i == 0 || listed[static_cast<std::size_t>(i) - 1] != n,
                     "duplicate pin within a net: net %d repeats pin %d", n.v,
                     v.v);
      HGR_ASSERT_FMT(i < vertex_degree(v) &&
                         listed[static_cast<std::size_t>(i)] == n,
                     "transpose inconsistent with pins: net %d is not entry "
                     "%d of vertex %d's incident list",
                     n.v, i, v.v);
      ++i;
    }
  }
  HGR_ASSERT_FMT(pin_count == num_pins(), "net sizes sum to %d but %d pins",
                 pin_count, num_pins());
  Weight weight_total = 0;
  for (const VertexId v : vertices()) {
    HGR_ASSERT_FMT(vertex_weight(v) >= 0,
                   "negative vertex weight: vertex %d has weight %lld", v.v,
                   static_cast<long long>(vertex_weight(v)));
    HGR_ASSERT_FMT(vertex_size(v) >= 0,
                   "negative vertex size: vertex %d has size %lld", v.v,
                   static_cast<long long>(vertex_size(v)));
    HGR_ASSERT_FMT(vertex_degree(v) == seen[static_cast<std::size_t>(v.v)],
                   "transpose inconsistent with pins: vertex %d has degree %d "
                   "but %d pin appearances",
                   v.v, vertex_degree(v), seen[static_cast<std::size_t>(v.v)]);
    weight_total += vertex_weight(v);
  }
  HGR_ASSERT_FMT(weight_total == total_vertex_weight_,
                 "vertex weights sum to %lld but total_vertex_weight()=%lld",
                 static_cast<long long>(weight_total),
                 static_cast<long long>(total_vertex_weight_));
  if (!has_fixed()) return;
  HGR_ASSERT_FMT(fixed_.size() == static_cast<std::size_t>(num_vertices_),
                 "fixed array has %zu entries for %d vertices", fixed_.size(),
                 num_vertices_);
  if (num_parts < 0) return;
  for (const VertexId v : vertices())
    HGR_ASSERT_FMT(fixed_part(v) >= kNoPart && fixed_part(v).v < num_parts,
                   "fixed part out of range: vertex %d fixed to part %d, "
                   "valid range is [-1, %d)",
                   v.v, fixed_part(v).v, num_parts);
}

std::string Hypergraph::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "|V|=%d |N|=%d pins=%d totalW=%lld fixed=%s", num_vertices_,
                num_nets_, num_pins(),
                static_cast<long long>(total_vertex_weight_),
                has_fixed() ? "yes" : "no");
  return buf;
}

}  // namespace hgr

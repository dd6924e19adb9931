#include "hypergraph/hypergraph.hpp"

#include <algorithm>
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

void Hypergraph::scale_net_costs(Weight factor) {
  HGR_ASSERT(factor >= 1);
  for (auto& c : net_cost_) c *= factor;
}

void Hypergraph::validate(Index num_parts) const {
  HGR_ASSERT(net_offsets_.size() == static_cast<std::size_t>(num_nets_) + 1);
  HGR_ASSERT(net_offsets_.front() == 0);
  HGR_ASSERT(net_offsets_.back() == static_cast<Index>(pins_.size()));
  // last_net[v] is the last net seen to contain v: one marker array finds
  // duplicate pins in O(pins) with a single allocation.
  std::vector<NetId> last_net(static_cast<std::size_t>(num_vertices_),
                              kInvalidNet);
  for (const NetId n : nets()) {
    HGR_ASSERT_MSG(net_offsets_[static_cast<std::size_t>(n.v)] <=
                       net_offsets_[static_cast<std::size_t>(n.v) + 1],
                   "net offsets not monotone");
    for (const VertexId v : pins(n)) {
      HGR_ASSERT_MSG(v.v >= 0 && v.v < num_vertices_, "pin out of range");
      NetId& last = last_net[static_cast<std::size_t>(v.v)];
      HGR_ASSERT_MSG(last != n, "duplicate pin within a net");
      last = n;
    }
  }
  for (const VertexId v : vertices()) {
    HGR_ASSERT_MSG(vertex_weight(v) >= 0, "negative vertex weight");
    HGR_ASSERT_MSG(vertex_size(v) >= 0, "negative vertex size");
    for (const NetId n : incident_nets(v)) {
      HGR_ASSERT(n.v >= 0 && n.v < num_nets_);
      const auto ps = pins(n);
      HGR_ASSERT_MSG(std::find(ps.begin(), ps.end(), v) != ps.end(),
                     "transpose inconsistent with pins");
    }
  }
  Index pin_count = 0;
  for (const NetId n : nets()) pin_count += net_size(n);
  HGR_ASSERT(pin_count == num_pins());
  for (const NetId n : nets())
    HGR_ASSERT_MSG(net_cost(n) >= 0, "negative net cost");
  if (!fixed_.empty() && num_parts >= 0) {
    for (const VertexId v : vertices()) {
      HGR_ASSERT_MSG(fixed_part(v) >= kNoPart &&
                         fixed_part(v).v < num_parts,
                     "fixed part out of range");
    }
  }
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

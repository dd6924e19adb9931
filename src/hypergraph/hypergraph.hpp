// Hypergraph H = (V, N): CSR pin storage plus its transpose.
//
// Conventions follow the IPDPS'07 repartitioning paper:
//   - vertex *weight* w_i  : computational load (the balance constraint);
//   - vertex *size*        : bytes migrated if the vertex changes parts
//                            (the cost of its migration net);
//   - net *cost* c_j       : bytes communicated per iteration when cut;
//     a cut net with connectivity lambda contributes c_j * (lambda - 1).
//   - fixed[v] in {kNoPart, 0..k-1}: fixed-vertex constraint for
//     partitioning with fixed vertices (paper Section 4).
//
// Ids are strongly typed (common/types.hpp): nets are addressed by NetId,
// vertices by VertexId; counts and CSR offsets are plain Index.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace hgr {

class Hypergraph {
 public:
  /// Empty hypergraph (0 vertices, 0 nets) with well-formed CSR arrays.
  Hypergraph() : net_offsets_{0}, vertex_offsets_{0} {}

  /// Takes ownership of fully-formed CSR arrays. net_offsets has
  /// num_nets+1 entries indexing into pins; weights/sizes have one entry
  /// per vertex; costs one per net. fixed may be empty (meaning: no vertex
  /// is fixed).
  Hypergraph(std::vector<Index> net_offsets, std::vector<VertexId> pins,
             std::vector<Weight> vertex_weights,
             std::vector<Weight> vertex_sizes, std::vector<Weight> net_costs,
             std::vector<PartId> fixed = {});

  Index num_vertices() const { return num_vertices_; }
  Index num_nets() const { return num_nets_; }
  Index num_pins() const { return static_cast<Index>(pins_.size()); }

  /// The vertex ids [0, num_vertices()) / net ids [0, num_nets()).
  IdRange<VertexId> vertices() const { return IdRange<VertexId>(num_vertices_); }
  IdRange<NetId> nets() const { return IdRange<NetId>(num_nets_); }

  std::span<const VertexId> pins(NetId net) const {
    HGR_DASSERT(net.v >= 0 && net.v < num_nets_);
    return {pins_.data() + net_offsets_[static_cast<std::size_t>(net.v)],
            pins_.data() + net_offsets_[static_cast<std::size_t>(net.v) + 1]};
  }

  Index net_size(NetId net) const {
    return net_offsets_[static_cast<std::size_t>(net.v) + 1] -
           net_offsets_[static_cast<std::size_t>(net.v)];
  }

  /// Nets incident to a vertex (the transpose rows).
  std::span<const NetId> incident_nets(VertexId v) const {
    HGR_DASSERT(v.v >= 0 && v.v < num_vertices_);
    return {
        incident_nets_.data() + vertex_offsets_[static_cast<std::size_t>(v.v)],
        incident_nets_.data() +
            vertex_offsets_[static_cast<std::size_t>(v.v) + 1]};
  }

  Index vertex_degree(VertexId v) const {
    return vertex_offsets_[static_cast<std::size_t>(v.v) + 1] -
           vertex_offsets_[static_cast<std::size_t>(v.v)];
  }

  Weight vertex_weight(VertexId v) const { return vertex_weights()[v]; }
  Weight vertex_size(VertexId v) const { return vertex_sizes()[v]; }
  Weight net_cost(NetId net) const { return net_costs()[net]; }

  IdSpan<VertexId, const Weight> vertex_weights() const {
    return std::span<const Weight>(vertex_weight_);
  }
  IdSpan<VertexId, const Weight> vertex_sizes() const {
    return std::span<const Weight>(vertex_size_);
  }
  IdSpan<NetId, const Weight> net_costs() const {
    return std::span<const Weight>(net_cost_);
  }

  Weight total_vertex_weight() const { return total_vertex_weight_; }

  /// Fixed-vertex constraints. has_fixed() is false iff every vertex is free.
  bool has_fixed() const { return !fixed_.empty(); }
  PartId fixed_part(VertexId v) const {
    return fixed_.empty() ? kNoPart
                          : fixed_[static_cast<std::size_t>(v.v)];
  }
  IdSpan<VertexId, const PartId> fixed_parts() const {
    return std::span<const PartId>(fixed_);
  }

  /// Install (or clear, with an empty vector) fixed-vertex constraints.
  void set_fixed_parts(std::vector<PartId> fixed);

  /// Mutate a vertex's weight/size in place (used by the AMR perturbation,
  /// which scales weights without changing structure).
  void set_vertex_weight(VertexId v, Weight w);
  void set_vertex_size(VertexId v, Weight s);

  /// Abort with a diagnostic (operand values included) if any structural
  /// invariant is violated: non-negative extents, monotone offsets, pins in
  /// range, no duplicate pin within a net, the transpose an exact mirror of
  /// the pins, non-negative weights/sizes/costs, total_vertex_weight() equal
  /// to the weight sum, a fixed array sized |V| with parts in [kNoPart, k)
  /// for the given k (k < 0 skips the range). O(pins), one allocation.
  void validate(Index num_parts = -1) const;

  /// Human-readable one-line summary, e.g. "|V|=682712 |N|=823232 pins=...".
  std::string summary() const;

 private:
  void build_transpose();

  Index num_vertices_ = 0;
  Index num_nets_ = 0;
  std::vector<Index> net_offsets_;      // net -> [begin,end) in pins_
  std::vector<VertexId> pins_;          // concatenated pin lists
  std::vector<Index> vertex_offsets_;   // vertex -> [begin,end) in incident_
  std::vector<NetId> incident_nets_;    // concatenated incident-net lists
  std::vector<Weight> vertex_weight_;
  std::vector<Weight> vertex_size_;
  std::vector<Weight> net_cost_;
  std::vector<PartId> fixed_;           // empty or one entry per vertex
  Weight total_vertex_weight_ = 0;
};

}  // namespace hgr

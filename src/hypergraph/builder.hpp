// Incremental construction of Hypergraph and Graph objects.
//
// Builders accept nets/edges in any order, deduplicate pins within a net,
// drop degenerate nets (fewer than 2 pins contribute no cut and are elided
// by default, matching standard partitioner preprocessing), and finalize
// into CSR storage.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "hypergraph/graph.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hgr {

class HypergraphBuilder {
 public:
  /// num_vertices fixes the vertex id space [0, num_vertices).
  explicit HypergraphBuilder(Index num_vertices);

  Index num_vertices() const { return num_vertices_; }

  /// Add a net over the given pins with the given cost. Duplicate pins are
  /// removed. Returns the net's index among *added* nets; note that nets
  /// that end up with < 2 distinct pins are dropped at finalize() unless
  /// keep_single_pin_nets(true) was called.
  Index add_net(std::span<const Index> pins, Weight cost = 1);
  Index add_net(std::initializer_list<Index> pins, Weight cost = 1);

  void set_vertex_weight(Index v, Weight w);
  void set_vertex_size(Index v, Weight s);
  void set_all_vertex_weights(Weight w);
  void set_all_vertex_sizes(Weight s);
  void set_fixed_part(Index v, PartId part);

  void keep_single_pin_nets(bool keep) { keep_single_pin_ = keep; }

  /// Build the hypergraph. The builder is left in a moved-from state.
  Hypergraph finalize();

 private:
  Index num_vertices_;
  // Added nets in CSR form: net i's sorted, deduplicated pins are
  // pins_[net_offsets_[i], net_offsets_[i + 1]). One flat buffer, so adding
  // a net allocates only when the buffer grows.
  std::vector<Index> net_offsets_{0};
  std::vector<VertexId> pins_;
  std::vector<Weight> net_costs_;
  std::vector<Weight> vertex_weights_;
  std::vector<Weight> vertex_sizes_;
  std::vector<PartId> fixed_;
  bool any_fixed_ = false;
  bool keep_single_pin_ = false;
};

class GraphBuilder {
 public:
  explicit GraphBuilder(Index num_vertices);

  /// Add an undirected edge {u, v} with weight w. Self loops are ignored;
  /// parallel edges are merged by summing weights at finalize().
  void add_edge(Index u, Index v, Weight w = 1);

  void set_vertex_weight(Index v, Weight w);
  void set_vertex_size(Index v, Weight s);

  Graph finalize();

 private:
  Index num_vertices_;
  struct Edge {
    Index u, v;
    Weight w;
  };
  std::vector<Edge> edges_;
  std::vector<Weight> vertex_weights_;
  std::vector<Weight> vertex_sizes_;
};

}  // namespace hgr

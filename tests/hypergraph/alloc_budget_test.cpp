// Allocation budget of the O(pins) hypergraph passes that run every epoch
// and on every LOAD: graph_to_hypergraph, HypergraphBuilder and
// Hypergraph::validate allocate O(1) times (plus O(log m) vector growth),
// never once per net. This binary replaces the global operator new and
// delete with counting versions, so it is its own test executable.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hypergraph/builder.hpp"
#include "hypergraph/convert.hpp"
#include "hypergraph/graph.hpp"
#include "hypergraph/hypergraph.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hgr {
namespace {

/// Heap allocations made while running f.
template <typename F>
std::uint64_t allocations_during(F&& f) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// A 2D grid with both diagonals: about 4 * n undirected edges.
Graph grid_graph(Index side) {
  GraphBuilder b(side * side);
  Rng rng(side);
  for (Index r = 0; r < side; ++r) {
    for (Index c = 0; c < side; ++c) {
      const Index v = r * side + c;
      const auto w = [&] { return static_cast<Weight>(1 + rng.below(3)); };
      if (c + 1 < side) b.add_edge(v, v + 1, w());
      if (r + 1 < side) b.add_edge(v, v + side, w());
      if (r + 1 < side && c + 1 < side) b.add_edge(v, v + side + 1, w());
      if (r + 1 < side && c > 0) b.add_edge(v, v + side - 1, w());
    }
  }
  return b.finalize();
}

/// Builds `nets` three-pin nets (one a repeated pin, so dedup runs) and
/// some single-pin ones that finalize drops.
Hypergraph build_nets(Index nets) {
  const Index n = nets;
  HypergraphBuilder b(n);
  for (Index i = 0; i < nets; ++i) {
    const Index u = i;
    const Index v = (i * 7 + 1) % n;
    if (i % 10 == 0)
      b.add_net({u, u}, 1);
    else
      b.add_net({v, u, v, (u + 1) % n}, 1 + i % 3);
  }
  return b.finalize();
}

// The slack covers the O(log m) reallocations of a growing vector; a
// per-net allocation would add thousands.
constexpr std::uint64_t kGrowthSlack = 16;

TEST(AllocBudget, GraphToHypergraphDoesNotAllocatePerNet) {
  const Graph small = grid_graph(16);  // ~1k edges
  const Graph large = grid_graph(52);  // ~10k edges
  ASSERT_GE(small.num_edges(), 900);
  ASSERT_GE(large.num_edges(), 10000);
  const auto count = [](const Graph& g) {
    return allocations_during([&] {
      const Hypergraph h = graph_to_hypergraph(g);
      ASSERT_EQ(h.num_nets(), g.num_edges());
    });
  };
  count(small);  // warm-up: one-time allocations are not per net
  const std::uint64_t at_small = count(small);
  const std::uint64_t at_large = count(large);
  EXPECT_LE(at_large, at_small + kGrowthSlack)
      << "small=" << at_small << " large=" << at_large;
}

TEST(AllocBudget, BuilderDoesNotAllocatePerNet) {
  const auto count = [](Index nets) {
    return allocations_during([&] {
      const Hypergraph h = build_nets(nets);
      ASSERT_EQ(h.num_nets(), nets - nets / 10);
    });
  };
  count(1000);
  const std::uint64_t at_small = count(1000);
  const std::uint64_t at_large = count(10000);
  EXPECT_LE(at_large, at_small + kGrowthSlack)
      << "small=" << at_small << " large=" << at_large;
}

TEST(AllocBudget, ValidateDoesNotAllocatePerNet) {
  const Hypergraph small = graph_to_hypergraph(grid_graph(16));
  const Hypergraph large = graph_to_hypergraph(grid_graph(52));
  const auto count = [](const Hypergraph& h) {
    return allocations_during([&] { h.validate(4); });
  };
  count(small);
  const std::uint64_t at_small = count(small);
  const std::uint64_t at_large = count(large);
  EXPECT_LE(at_large, at_small + kGrowthSlack)
      << "small=" << at_small << " large=" << at_large;
}

}  // namespace
}  // namespace hgr

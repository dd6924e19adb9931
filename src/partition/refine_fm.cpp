#include "partition/refine_fm.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "common/assert.hpp"
#include "common/indexed_heap.hpp"
#include "obs/trace.hpp"
#include "partition/gain_cache.hpp"

namespace hgr {

namespace {

/// Moves allowed past the last improvement within an FM pass before the
/// pass aborts (classic FM early termination).
constexpr Index kFmMoveLimit = 350;

/// Lexicographic quality of a bisection state: feasible beats infeasible,
/// then less overweight, then lower cut. Smaller is better.
struct StateScore {
  Weight overweight = 0;
  Weight cut = 0;

  bool better_than(const StateScore& other) const {
    if (overweight != other.overweight) return overweight < other.overweight;
    return cut < other.cut;
  }
};

class FmPass {
 public:
  FmPass(const Hypergraph& h, IdVector<VertexId, PartId>& side,
         const BisectionTargets& targets, Workspace* ws)
      : h_(h),
        side_(side),
        targets_(targets),
        ws_(ws),
        locked_(ws),
        gain_(ws),
        stash_(ws),
        cache_(h, 2, side, ws),
        queues_{IndexedMaxHeap(h.num_vertices()),
                IndexedMaxHeap(h.num_vertices())} {
    locked_->assign(static_cast<std::size_t>(h.num_vertices()), false);
    gain_->assign(static_cast<std::size_t>(h.num_vertices()), 0);
    for (const VertexId v : h_.vertices())
      if (movable(v)) slack_ = std::max(slack_, h_.vertex_weight(v));
  }

  ~FmPass() {
    // Publish the whole pass's gain distribution in one atomic fold.
    static obs::CachedHistogram gain_hist("fm.move_gain");
    gain_hist.get().merge(gain_batch_);
  }

  // For a bisection, the cache's connectivity-1 cut is the cut-net cost.
  Weight cut() const { return cache_.cut(); }

  StateScore score() const {
    return {overweight(), cache_.cut()};
  }

  /// One FM pass. Returns true if the state strictly improved.
  bool run(Rng& rng) {
    const StateScore start = score();
    build_queues(rng);

    Borrowed<VertexId> moves(ws_);
    StateScore best = start;
    Index best_prefix = 0;  // number of moves kept
    Index since_best = 0;

    while (since_best <= kFmMoveLimit) {
      const VertexId v = select_move();
      if (v == kInvalidVertex) break;
      apply_move(v);
      moves->push_back(v);
      const StateScore now = score();
      if (now.better_than(best)) {
        best = now;
        best_prefix = static_cast<Index>(moves->size());
        since_best = 0;
      } else {
        ++since_best;
      }
    }

    // Roll back everything after the best prefix.
    for (Index i = static_cast<Index>(moves->size()); i > best_prefix; --i)
      undo_move(moves[static_cast<std::size_t>(i - 1)]);

    queues_[0].clear();
    queues_[1].clear();
    return best.better_than(start);
  }

 private:
  int side_at(VertexId v) const { return side_[v].v; }

  Weight side_weight(int s) const { return cache_.part_weight(PartId{s}); }

  Weight overweight() const {
    return std::max<Weight>(0, side_weight(0) - targets_.max_weight(0)) +
           std::max<Weight>(0, side_weight(1) - targets_.max_weight(1));
  }

  bool movable(VertexId v) const { return h_.fixed_part(v) == kNoPart; }

  /// FM gain of moving v to the other side under the cut-net metric
  /// (== connectivity-1 for a bisection): the cache's leave gain minus the
  /// newly-cut penalty from its connectivity bits.
  Weight compute_gain(VertexId v) const {
    return cache_.move_gain(v, PartId{1 - side_at(v)});
  }

  void build_queues(Rng& rng) {
    // Random insertion order randomizes tie-breaking between passes.
    // Queues and scratch tables are keyed by raw vertex id.
    Borrowed<Index> order(ws_);
    random_permutation_into(order.get(), h_.num_vertices(), rng);
    for (const Index vi : order.get()) {
      const VertexId v{vi};
      if (!movable(v)) continue;
      locked_[static_cast<std::size_t>(v.v)] = false;
      gain_[static_cast<std::size_t>(v.v)] = compute_gain(v);
      queues_[side_at(v)].insert(v.v, gain_[static_cast<std::size_t>(v.v)]);
    }
    for (const VertexId v : h_.vertices())
      if (!movable(v)) locked_[static_cast<std::size_t>(v.v)] = true;
  }

  /// Pick the next vertex to move, honoring the balance constraint.
  /// Returns kInvalidVertex when no legal move remains.
  VertexId select_move() {
    // Rebalance mode: if a side is overweight, only that side may emit.
    int forced = -1;
    if (side_weight(0) > targets_.max_weight(0)) forced = 0;
    if (side_weight(1) > targets_.max_weight(1)) forced = 1;

    // Examine each queue's top; skip (stash) tops whose move would overload
    // the destination, then reinsert the stash.
    std::array<VertexId, 2> cand = {kInvalidVertex, kInvalidVertex};
    std::array<Weight, 2> cand_gain = {0, 0};
    std::vector<std::pair<VertexId, Weight>>& stash = stash_.get();
    stash.clear();
    for (int s = 0; s < 2; ++s) {
      if (forced != -1 && s != forced) continue;
      const int dest = 1 - s;
      int tries = 0;
      while (!queues_[s].empty() && tries < 16) {
        const VertexId v{queues_[s].top()};
        const Weight g = queues_[s].top_key();
        // One-heaviest-vertex slack lets tight-balance swaps be explored
        // mid-pass; the rollback to the best *feasible* prefix restores
        // Eq. 1 at pass end (classic FM practice).
        const bool dest_ok =
            forced == s ||  // moving off an overweight side is always legal
            side_weight(dest) + h_.vertex_weight(v) <=
                targets_.max_weight(dest) + slack_;
        if (dest_ok) {
          cand[s] = v;
          cand_gain[s] = g;
          break;
        }
        queues_[s].pop();
        stash.emplace_back(v, g);
        ++tries;
      }
    }
    for (const auto& [v, g] : stash) queues_[side_at(v)].insert(v.v, g);

    if (cand[0] == kInvalidVertex && cand[1] == kInvalidVertex)
      return kInvalidVertex;
    if (cand[0] == kInvalidVertex) return cand[1];
    if (cand[1] == kInvalidVertex) return cand[0];
    if (cand_gain[0] != cand_gain[1])
      return cand_gain[0] > cand_gain[1] ? cand[0] : cand[1];
    // Equal gains: prefer moving off the heavier side.
    return side_weight(0) >= side_weight(1) ? cand[0] : cand[1];
  }

  void update_neighbor_gain(VertexId u, Weight delta) {
    if (locked_[static_cast<std::size_t>(u.v)]) return;
    auto& g = gain_[static_cast<std::size_t>(u.v)];
    g += delta;
    queues_[side_at(u)].adjust(u.v, g);
  }

  /// Routes the gain cache's four delta-gain events into the FM queues:
  /// the classic update rules, fired by apply_move for nonzero-cost nets.
  struct QueueUpdater {
    FmPass& pass;
    VertexId moved;

    void net_gained_part(NetId net, PartId, Weight c) {
      for (const VertexId u : pass.h_.pins(net))
        if (u != moved) pass.update_neighbor_gain(u, +c);
    }
    void sole_pin_joined(NetId, VertexId u, PartId, Weight c) {
      pass.update_neighbor_gain(u, -c);
    }
    void net_lost_part(NetId net, PartId, Weight c) {
      for (const VertexId u : pass.h_.pins(net))
        if (u != moved) pass.update_neighbor_gain(u, -c);
    }
    void sole_pin_remains(NetId, VertexId u, PartId, Weight c) {
      pass.update_neighbor_gain(u, +c);
    }
  };

  void apply_move(VertexId v) {
    const int from = side_at(v);
    const int to = 1 - from;
    queues_[from].remove(v.v);
    locked_[static_cast<std::size_t>(v.v)] = true;
    // Distribution of accepted-move gains (signed: FM deliberately takes
    // negative-gain moves to escape local minima; the histogram shows how
    // deep those excursions go). Batched: a plain local record here, one
    // atomic merge into the registry per FmPass — apply_move is far too
    // hot for a per-move atomic record.
    gain_batch_.record(gain_[static_cast<std::size_t>(v.v)]);
    QueueUpdater updater{*this, v};
    cache_.apply_move(v, PartId{to}, updater);
    side_[v] = PartId{to};
  }

  /// Reverse a move during rollback (queues/gains are dead by then).
  void undo_move(VertexId v) {
    const int to = 1 - side_at(v);  // original side
    cache_.apply_move(v, PartId{to});
    side_[v] = PartId{to};
  }

  const Hypergraph& h_;
  IdVector<VertexId, PartId>& side_;
  const BisectionTargets& targets_;
  Workspace* ws_;

  Borrowed<bool> locked_;
  Borrowed<Weight> gain_;
  Borrowed<std::pair<VertexId, Weight>> stash_;  // select_move scratch
  GainCache cache_;
  std::array<IndexedMaxHeap, 2> queues_;  // per side, keyed by raw vertex id
  obs::HistogramSnapshot gain_batch_;  // per-pass accumulator, see ~FmPass
  Weight slack_ = 0;  // heaviest movable vertex: intra-pass balance slack
};

}  // namespace

FmResult fm_refine_bisection(const Hypergraph& h,
                             IdVector<VertexId, PartId>& side,
                             const BisectionTargets& targets,
                             const PartitionConfig& cfg, Rng& rng,
                             Workspace* ws) {
  HGR_ASSERT(side.ssize() == h.num_vertices());
#ifndef NDEBUG
  for (const VertexId v : h.vertices()) {
    HGR_ASSERT(side[v] == PartId{0} || side[v] == PartId{1});
    const PartId f = h.fixed_part(v);
    HGR_ASSERT_MSG(f == kNoPart || f == side[v],
                   "fixed vertex on wrong side entering refinement");
  }
#endif
  FmPass pass(h, side, targets, ws);
  FmResult result;
  result.initial_cut = pass.cut();
  for (Index i = 0; i < cfg.max_refine_passes; ++i) {
    ++result.passes;
    if (!pass.run(rng)) break;
  }
  result.final_cut = pass.cut();
  return result;
}

}  // namespace hgr

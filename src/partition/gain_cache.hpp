// GainCache: the incremental cut/gain structure behind every move-based
// stage (k-way refinement, FM bisection, parallel refinement, and the
// O(delta) epoch fast path).
//
// It maintains, under a stream of apply_move(v, to) calls:
//   - pins(net, part): the dense pins-per-part table,
//   - a per-net connectivity bitset (which parts each net touches),
//   - the connectivity-1 cut (paper Eq. 2), updated in O(deg(v)) per move,
//   - per-part total vertex weights,
//   - leave_gain(v): sum of c_j over nets where v is the sole pin of its
//     part — the "gain of leaving" half of the k-way FM gain. The entering
//     penalty is a bitset probe per candidate part, so
//     move_gain(v, q) = leave_gain(v) - sum_{nets j of v: pins(j,q)==0} c_j
//     costs O(deg(v)) instead of O(sum |net|).
//
// Refiners that keep their own per-vertex gain tables (FM's priority
// queues) subscribe to the four classic delta-gain events via the listener
// passed to apply_move; the cache fires them only for nets with nonzero
// cost, exactly mirroring the hand-rolled FM update rules it replaced.
//
// validate() cross-checks every maintained quantity against a from-scratch
// recomputation (connectivity_cut + rebuilt tables) at CheckLevel::kParanoid.
#pragma once

#include <cstdint>
#include <span>

#include "check/check_level.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"

namespace hgr {

/// No-op listener for callers that do not track per-vertex gain deltas.
struct NullMoveListener {
  void net_gained_part(NetId, PartId, Weight) {}
  void sole_pin_joined(NetId, VertexId, PartId, Weight) {}
  void net_lost_part(NetId, PartId, Weight) {}
  void sole_pin_remains(NetId, VertexId, PartId, Weight) {}
};

class GainCache {
 public:
  /// Builds the table for `parts` (one entry in [0, k) per vertex).
  /// O(pins + num_nets * k / 64). The cache keeps its own copy of the
  /// assignment; callers mirror moves into their Partition as needed.
  GainCache(const Hypergraph& h, Index k,
            IdSpan<VertexId, const PartId> parts, Workspace* ws = nullptr);
  GainCache(const Hypergraph& h, const Partition& p, Workspace* ws = nullptr)
      : GainCache(h, p.k, p.assignment, ws) {}

  Index k() const { return k_; }
  Weight cut() const { return cut_; }
  PartId part_of(VertexId v) const {
    return part_[static_cast<std::size_t>(v.v)];
  }
  Weight part_weight(PartId q) const {
    return part_w_[static_cast<std::size_t>(q.v)];
  }
  IdSpan<VertexId, const PartId> parts() const {
    return std::span<const PartId>(part_.get());
  }

  Index pin_count(NetId net, PartId q) const {
    return counts_[row(net) + static_cast<std::size_t>(q.v)];
  }
  /// True iff `net` has at least one pin in part q (bitset probe).
  bool net_touches(NetId net, PartId q) const {
    return (conn_[conn_row(net) + word(q)] & bit(q)) != 0;
  }

  /// Gain of moving v out of its part, counting only nets where v is the
  /// sole pin of that part (maintained incrementally).
  Weight leave_gain(VertexId v) const {
    return leave_gain_[static_cast<std::size_t>(v.v)];
  }

  /// Full connectivity-1 gain of moving v to part q (>0 lowers the cut).
  Weight move_gain(VertexId v, PartId q) const {
    HGR_DASSERT(q != part_of(v));
    Weight g = leave_gain(v);
    for (const NetId net : h_.incident_nets(v))
      if (!net_touches(net, q)) g -= h_.net_cost(net);
    return g;
  }

  /// Distinct parts (other than part_of(v)) touched by v's nets, i.e. the
  /// candidate destinations of a boundary move. Ascending part order.
  /// O(deg(v) * k/64 + |result|) — no pin-list traversal. `words` is
  /// caller scratch, so thread-parallel readers (the k-way proposal phase)
  /// can share one frozen cache as long as each thread brings its own.
  void candidate_parts_into(std::vector<PartId>& out, VertexId v,
                            std::vector<std::uint64_t>& words) const;

  /// A k-way move: destination (kNoPart when there is none) and its gain.
  struct Move {
    PartId to = kNoPart;
    Weight gain = 0;
  };

  /// The k-way move rule shared by kway_refine and the O(delta) epoch
  /// tier: v's best acceptable move under the current state. A move is
  /// acceptable if the destination stays within max_w and then its gain
  /// is > 0, or == 0 with a strict balance improvement, or anything at all
  /// when v's part is over max_w (restoring Eq. 1 outranks the cut).
  /// Highest gain wins; ties go to the lighter destination, then the lower
  /// part id. Every buffer is caller scratch (gain_to must start empty or
  /// at k zeros, and is left at k zeros), so the method is const and
  /// thread-safe on a frozen cache.
  Move best_move(VertexId v, Weight max_w, std::vector<PartId>& candidates,
                 std::vector<Weight>& gain_to,
                 std::vector<std::uint64_t>& words) const;

  /// Moves v to part `to`, updating every maintained quantity in
  /// O(deg(v)) (+ a sole-pin scan for nets crossing the 1<->2 pin
  /// boundary), firing the four delta-gain events on `listener` for nets
  /// with nonzero cost. Event order per net matches classic FM: the two
  /// "pre-move" events fire before the counts change, the two "post-move"
  /// events after.
  template <typename Listener>
  void apply_move(VertexId v, PartId to, Listener& listener) {
    const PartId from = part_of(v);
    HGR_DASSERT(v.v >= 0 && v.v < h_.num_vertices());
    HGR_DASSERT(to.v >= 0 && to.v < k_ && to != from);
    for (const NetId net : h_.incident_nets(v)) {
      const Weight c = h_.net_cost(net);
      Index& pt = counts_[row(net) + static_cast<std::size_t>(to.v)];
      Index& pf = counts_[row(net) + static_cast<std::size_t>(from.v)];
      if (pt == 0) {
        conn_[conn_row(net) + word(to)] |= bit(to);
        cut_ += c;
        leave_gain_[static_cast<std::size_t>(v.v)] += c;  // v sole in `to`
        if (c != 0) listener.net_gained_part(net, to, c);
      } else if (pt == 1 && c != 0) {
        const VertexId u = sole_pin(net, to, v);
        leave_gain_[static_cast<std::size_t>(u.v)] -= c;
        listener.sole_pin_joined(net, u, to, c);
      }
      --pf;
      ++pt;
      if (pf == 0) {
        conn_[conn_row(net) + word(from)] &= ~bit(from);
        cut_ -= c;
        leave_gain_[static_cast<std::size_t>(v.v)] -= c;  // was sole in `from`
        if (c != 0) listener.net_lost_part(net, from, c);
      } else if (pf == 1 && c != 0) {
        const VertexId u = sole_pin(net, from, v);
        leave_gain_[static_cast<std::size_t>(u.v)] += c;
        listener.sole_pin_remains(net, u, from, c);
      }
    }
    const Weight wv = h_.vertex_weight(v);
    part_w_[static_cast<std::size_t>(from.v)] -= wv;
    part_w_[static_cast<std::size_t>(to.v)] += wv;
    part_[static_cast<std::size_t>(v.v)] = to;
    note_move();
  }

  void apply_move(VertexId v, PartId to) {
    NullMoveListener null;
    apply_move(v, to, null);
  }

  /// Recomputes every part weight from the hypergraph's current vertex
  /// weights in O(n). Pin counts, the cut and leave gains do not depend on
  /// vertex weights, so this is the whole resync after weight-only edits.
  void refresh_part_weights();

  /// Cross-checks cut, pin counts, connectivity bits, leave gains and part
  /// weights against a from-scratch recomputation. No-op below paranoid.
  void validate(check::CheckLevel level) const;

 private:
  std::size_t row(NetId net) const {
    return static_cast<std::size_t>(net.v) * static_cast<std::size_t>(k_);
  }
  std::size_t conn_row(NetId net) const {
    return static_cast<std::size_t>(net.v) * words_per_row_;
  }
  static std::size_t word(PartId q) {
    return static_cast<std::size_t>(q.v) >> 6;
  }
  static std::uint64_t bit(PartId q) {
    return std::uint64_t{1} << (static_cast<std::size_t>(q.v) & 63);
  }

  /// The one pin of `net` (other than `skip`) in part q, per the counts.
  VertexId sole_pin(NetId net, PartId q, VertexId skip) const {
    for (const VertexId u : h_.pins(net))
      if (u != skip && part_of(u) == q) return u;
    HGR_ASSERT_MSG(false, "pin count says sole pin exists but scan found none");
    return kInvalidVertex;
  }

  void note_move();  // bumps the gain_cache.moves counter (out of line)

  const Hypergraph& h_;
  Index k_;
  std::size_t words_per_row_;
  Borrowed<Index> counts_;          // num_nets x k pins-per-part
  Borrowed<std::uint64_t> conn_;    // num_nets x ceil(k/64) part bitsets
  Borrowed<PartId> part_;           // maintained assignment copy
  Borrowed<Weight> part_w_;         // per-part total vertex weight
  Borrowed<Weight> leave_gain_;     // per-vertex sole-pin gain
  Weight cut_ = 0;
};

}  // namespace hgr

#include "partition/gain_cache.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "metrics/cut.hpp"
#include "obs/trace.hpp"

namespace hgr {

GainCache::GainCache(const Hypergraph& h, Index k,
                     IdSpan<VertexId, const PartId> parts, Workspace* ws)
    : h_(h),
      k_(k),
      words_per_row_((static_cast<std::size_t>(k) + 63) / 64),
      counts_(ws),
      conn_(ws),
      part_(ws),
      part_w_(ws),
      leave_gain_(ws) {
  HGR_ASSERT(k >= 1);
  HGR_ASSERT(parts.ssize() == h.num_vertices());
  const auto n = static_cast<std::size_t>(h.num_vertices());
  const auto nn = static_cast<std::size_t>(h.num_nets());
  counts_->assign(nn * static_cast<std::size_t>(k), 0);
  conn_->assign(nn * words_per_row_, 0);
  part_->assign(parts.begin(), parts.end());
  leave_gain_->assign(n, 0);
  refresh_part_weights();
  cut_ = 0;
  for (const NetId net : h.nets()) {
    const Weight c = h.net_cost(net);
    Index lambda = 0;
    for (const VertexId u : h.pins(net)) {
      const PartId q = part_of(u);
      ++counts_[row(net) + static_cast<std::size_t>(q.v)];
      std::uint64_t& w = conn_[conn_row(net) + word(q)];
      if ((w & bit(q)) == 0) {
        w |= bit(q);
        ++lambda;
      }
    }
    if (lambda > 1) cut_ += c * (lambda - 1);
    if (c != 0)
      for (const VertexId u : h.pins(net))
        if (counts_[row(net) + static_cast<std::size_t>(part_of(u).v)] == 1)
          leave_gain_[static_cast<std::size_t>(u.v)] += c;
  }
  static obs::CachedCounter builds("gain_cache.builds");
  builds += 1;
}

void GainCache::refresh_part_weights() {
  part_w_->assign(static_cast<std::size_t>(k_), 0);
  for (const VertexId v : h_.vertices()) {
    const PartId q = part_of(v);
    HGR_ASSERT_MSG(q.v >= 0 && q.v < k_,
                   "gain cache built on unassigned vertex");
    part_w_[static_cast<std::size_t>(q.v)] += h_.vertex_weight(v);
  }
}

void GainCache::candidate_parts_into(std::vector<PartId>& out, VertexId v,
                                     std::vector<std::uint64_t>& acc) const {
  out.clear();
  const PartId from = part_of(v);
  acc.assign(words_per_row_, 0);
  for (const NetId net : h_.incident_nets(v))
    for (std::size_t w = 0; w < words_per_row_; ++w)
      acc[w] |= conn_[conn_row(net) + w];
  // Clear the home part, then emit set bits in ascending order.
  acc[word(from)] &= ~bit(from);
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    std::uint64_t bits = acc[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      out.push_back(PartId{static_cast<Index>(w * 64) + b});
    }
  }
}

GainCache::Move GainCache::best_move(
    VertexId v, Weight max_w, std::vector<PartId>& candidates,
    std::vector<Weight>& gain_to, std::vector<std::uint64_t>& words) const {
  candidate_parts_into(candidates, v, words);
  if (candidates.empty()) return {};
  gain_to.resize(static_cast<std::size_t>(k_), 0);
  // gain_to[q] accumulates the entering penalty (<= 0) of each candidate;
  // gain(from -> q) = leave_gain + gain_to[q].
  for (const NetId net : h_.incident_nets(v)) {
    const Weight c = h_.net_cost(net);
    if (c == 0) continue;
    for (const PartId q : candidates)
      if (!net_touches(net, q)) gain_to[static_cast<std::size_t>(q.v)] -= c;
  }
  const Weight from_w = part_weight(part_of(v));
  const Weight wv = h_.vertex_weight(v);
  Move best;
  Weight best_dest_w = 0;
  for (const PartId q : candidates) {
    Weight& penalty = gain_to[static_cast<std::size_t>(q.v)];
    const Weight g = leave_gain(v) + penalty;
    penalty = 0;  // restore the k zeros for the next call
    const Weight dest_w = part_weight(q);
    if (dest_w + wv > max_w) continue;
    const bool improves_balance = from_w > dest_w + wv;
    if (from_w <= max_w && (g < 0 || (g == 0 && !improves_balance)))
      continue;
    if (best.to == kNoPart || g > best.gain ||
        (g == best.gain && dest_w < best_dest_w)) {
      best = {q, g};
      best_dest_w = dest_w;
    }
  }
  return best;
}

void GainCache::note_move() {
  static obs::CachedCounter moves("gain_cache.moves");
  moves += 1;
}

void GainCache::validate(check::CheckLevel level) const {
  if (!check::paranoid(level)) return;
  static obs::CachedCounter validations("gain_cache.validations");
  validations += 1;

  Partition p(k_, h_.num_vertices());
  // hgr-lint: raw-ok (bulk copy of the internal label array)
  p.assignment.raw().assign(part_->begin(), part_->end());
  HGR_ASSERT_MSG(cut_ == connectivity_cut(h_, p),
                 "gain cache cut diverged from from-scratch recomputation");

  IdVector<PartId, Weight> want_w(k_, 0);
  for (const VertexId v : p.vertices())
    want_w[p[v]] += h_.vertex_weight(v);
  for (const PartId q : p.parts())
    HGR_ASSERT_MSG(part_weight(q) == want_w[q],
                   "gain cache part weight diverged");

  IdVector<PartId, Index> want_counts(k_);
  IdVector<VertexId, Weight> want_leave(h_.num_vertices(), 0);
  for (const NetId net : h_.nets()) {
    std::fill(want_counts.begin(), want_counts.end(), 0);
    for (const VertexId u : h_.pins(net)) ++want_counts[p[u]];
    const Weight c = h_.net_cost(net);
    for (const PartId q : p.parts()) {
      HGR_ASSERT_MSG(pin_count(net, q) == want_counts[q],
                     "gain cache pin count diverged");
      HGR_ASSERT_MSG(net_touches(net, q) == (want_counts[q] > 0),
                     "gain cache connectivity bit diverged");
    }
    if (c != 0)
      for (const VertexId u : h_.pins(net))
        if (want_counts[p[u]] == 1) want_leave[u] += c;
  }
  for (const VertexId v : h_.vertices())
    HGR_ASSERT_MSG(leave_gain(v) == want_leave[v],
                   "gain cache leave gain diverged");
}

}  // namespace hgr

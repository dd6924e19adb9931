#include "core/incremental_repart.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/timer.hpp"
#include "metrics/balance.hpp"
#include "metrics/cost_model.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"

namespace hgr {

EpochDelta EpochDeltaTracker::observe(const Graph& g,
                                      const std::vector<Index>& to_base) {
  HGR_ASSERT(static_cast<Index>(to_base.size()) == g.num_vertices());
  EpochDelta delta;
  delta.prev_vertices = prev_vertices_;
  const Index n = g.num_vertices();

  std::size_t max_base = prev_present_.size();
  for (const Index base : to_base) {
    HGR_ASSERT(base >= 0);
    max_base = std::max(max_base, static_cast<std::size_t>(base) + 1);
  }

  if (have_prev_) {
    delta.known = true;
    std::vector<bool> current(max_base, false);
    for (Index v = 0; v < n; ++v) {
      const auto base = static_cast<std::size_t>(to_base[
          static_cast<std::size_t>(v)]);
      current[base] = true;
      const bool existed = base < prev_present_.size() && prev_present_[base];
      if (!existed || prev_weight_[base] != g.vertex_weight(v))
        delta.changed.push_back(VertexId{v});
    }
    for (std::size_t base = 0; base < prev_present_.size(); ++base)
      if (prev_present_[base] && !current[base]) ++delta.removed;
  }

  prev_present_.assign(max_base, false);
  prev_weight_.assign(max_base, 0);
  for (Index v = 0; v < n; ++v) {
    const auto base = static_cast<std::size_t>(to_base[
        static_cast<std::size_t>(v)]);
    prev_present_[base] = true;
    prev_weight_[base] = g.vertex_weight(v);
  }
  prev_vertices_ = n;
  have_prev_ = true;
  return delta;
}

GainCache& IncrementalRepartitioner::resident_cache(const Hypergraph& h,
                                                   const Partition& old_p,
                                                   check::CheckLevel level) {
  const bool reuse = cache_.has_value() && &cache_->hypergraph() == &h &&
                     cache_structure_ == h.structure_id() &&
                     cache_->k() == old_p.k;
  cache_structure_ = 0;
  if (!reuse) {
    cache_.emplace(h, old_p.k, old_p.assignment);
    static obs::CachedCounter builds("incremental.cache_builds");
    builds += 1;
    return *cache_;
  }
  // Vertex weights may have changed since the last attempt, and old_p is
  // not the cache's state after a rejected attempt, a full-tier answer or
  // keep-old: replay the differences.
  GainCache& cache = *cache_;
  cache.refresh_part_weights();
  for (const VertexId v : h.vertices())
    if (cache.part_of(v) != old_p[v]) cache.apply_move(v, old_p[v]);
  cache.validate(level);
  return cache;
}

IncrementalOutcome IncrementalRepartitioner::try_epoch(
    const Hypergraph& h, const Partition& old_p, const EpochDelta& delta,
    const RepartitionerConfig& cfg) {
  IncrementalOutcome out;
  WallTimer timer;
  out.partition = old_p;
  const Index n = h.num_vertices();
  HGR_ASSERT(old_p.num_vertices() == n);
  const IncrementalMode mode = cfg.partition.incremental;
  if (mode == IncrementalMode::kOff) {
    out.reason = "off";
    out.seconds = timer.seconds();
    return out;
  }
  if (!have_baseline_) {
    out.reason = "no_baseline";
    out.seconds = timer.seconds();
    return out;
  }
  const double frac = delta.fraction(n);
  if (mode == IncrementalMode::kAuto &&
      frac > cfg.partition.incremental_max_delta_frac) {
    out.reason = "delta_frac";
    out.seconds = timer.seconds();
    return out;
  }

  // Routing accepted the epoch: everything below counts as an attempt, and
  // a rejection below is an escalation.
  out.attempted = true;
  static obs::CachedCounter attempts("incremental.attempts");
  attempts += 1;

  const Index k = old_p.k;
  GainCache& cache = resident_cache(h, old_p, cfg.partition.check_level);
  const Weight max_pw =
      max_part_weight(h.total_vertex_weight(), k, cfg.partition.epsilon);

  // Work queue: the changed vertices plus their one-hop net neighborhood
  // (everything whose gain the delta could have altered). Unknown deltas
  // (mode kOn before two epochs were seen) seed every vertex.
  Borrowed<VertexId> queue_b(ws_);
  std::vector<VertexId>& queue = queue_b.get();
  queue.clear();
  Borrowed<bool> queued_b(ws_);
  std::vector<bool>& queued = queued_b.get();
  queued.assign(static_cast<std::size_t>(n), false);
  const auto push = [&](VertexId v) {
    if (queued[static_cast<std::size_t>(v.v)]) return;
    if (h.fixed_part(v) != kNoPart) return;
    queued[static_cast<std::size_t>(v.v)] = true;
    queue.push_back(v);
  };
  if (!delta.known) {
    for (const VertexId v : h.vertices()) push(v);
  } else {
    for (const VertexId v : delta.changed) {
      if (v.v < 0 || v.v >= n) continue;
      push(v);
      for (const NetId net : h.incident_nets(v))
        for (const VertexId u : h.pins(net)) push(u);
    }
  }

  // Move budget: generous per changed vertex, bounded well below V-cycle
  // work. Every accepted move strictly decreases the lexicographic
  // potential (overweight mass, cut, sum of squared part weights), so the
  // loop terminates even without the cap.
  const Index budget =
      delta.known
          ? std::max<Index>(256,
                            16 * static_cast<Index>(delta.changed.size()))
          : std::max<Index>(256, 4 * n);

  Borrowed<PartId> cand_b(ws_);
  Borrowed<Weight> gain_to_b(ws_);
  Borrowed<std::uint64_t> words_b(ws_);

  // The k-way move rule (GainCache::best_move): an overweight source part
  // may shed vertices at negative gain — restoring Eq. 1 after a weight
  // perturbation is the fast path's first job, cut repair its second.
  std::size_t head = 0;
  while (head < queue.size() && out.moves < budget) {
    const VertexId v = queue[head++];
    queued[static_cast<std::size_t>(v.v)] = false;
    const PartId best = cache.best_move(v, max_pw, cand_b.get(),
                                        gain_to_b.get(), words_b.get())
                            .to;
    if (best == kNoPart) continue;
    cache.apply_move(v, best);
    ++out.moves;
    // The move changed gains in its net neighborhood: revisit it.
    for (const NetId net : h.incident_nets(v))
      for (const VertexId u : h.pins(net))
        if (u != v) push(u);
    push(v);
  }

  out.cut = cache.cut();
  std::copy(cache.parts().begin(), cache.parts().end(),
            out.partition.assignment.begin());
  out.imbalance = imbalance(h.vertex_weights(), out.partition);
  out.drift = static_cast<double>(out.cut - baseline_cut_) /
              static_cast<double>(std::max<Weight>(1, baseline_cut_));

  cache.validate(cfg.partition.check_level);
  if (check::paranoid(cfg.partition.check_level))
    HGR_ASSERT_MSG(out.cut == connectivity_cut(h, out.partition),
                   "incremental cut diverged from scratch recomputation");
  cache_structure_ = h.structure_id();  // consistent again: reusable

  bool over = false;
  for (const PartId q : part_range(k))
    if (cache.part_weight(q) > max_pw) over = true;
  if (over) {
    out.reason = "imbalance";
  } else if (out.drift > cfg.partition.incremental_max_drift) {
    out.reason = "drift";
  } else {
    out.accepted = true;
    static obs::CachedCounter accepted("incremental.accepted");
    static obs::CachedCounter moves("incremental.moves");
    accepted += 1;
    moves += static_cast<std::uint64_t>(out.moves);
  }
  out.seconds = timer.seconds();
  return out;
}

}  // namespace hgr

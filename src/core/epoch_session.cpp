#include "core/epoch_session.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/timer.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cost_model.hpp"
#include "metrics/cut.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"

namespace hgr {

namespace {

/// Serial tiers have no per-rank timeline, so the parallel runtime never
/// opens a span for them. Record the whole tier as a one-rank span instead:
/// the critical-path section stays populated (rank 0, zero wait) whichever
/// tier handled the epoch.
void record_serial_epoch_span(const char* phase, double seconds) {
  const std::uint64_t span = obs::begin_epoch_span();
  obs::record_rank_phase(span, 0, phase, seconds, 0.0);
  obs::end_epoch_span(span);
}

}  // namespace

EpochDelta EpochDeltaTracker::observe(const Graph& g,
                                      const std::vector<Index>& to_base) {
  HGR_ASSERT(static_cast<Index>(to_base.size()) == g.num_vertices());
  EpochDelta delta;
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
  have_prev_ = true;
  return delta;
}

void EpochSession::release_structure() {
  release_cache();
  h_ = Hypergraph();
}

Weight EpochSession::bootstrap(Hypergraph h, const PartitionConfig& cfg) {
  // The cache can always be rebuilt; h_, p_ and the baseline stay until
  // `h` is partitioned, so a failure leaves them as they were.
  release_cache();
  Partition p = partition_hypergraph(h, cfg);
  return bootstrap(std::move(h), std::move(p));
}

Weight EpochSession::bootstrap(Hypergraph h, Partition p) {
  replace_structure(std::move(h), std::move(p), /*keep_baseline=*/false);
  baseline_ = connectivity_cut(h_, p_);
  return *baseline_;
}

void EpochSession::set_partition(Partition p) {
  HGR_ASSERT(p.num_vertices() == h_.num_vertices());
  p_ = std::move(p);
}

void EpochSession::replace_structure(Hypergraph h, Partition p,
                                     bool keep_baseline) {
  release_structure();
  h_ = std::move(h);
  set_partition(std::move(p));
  if (!keep_baseline) baseline_.reset();
}

void EpochSession::replace_structure(const Graph& g, Partition p,
                                     bool keep_baseline) {
  release_structure();
  replace_structure(graph_to_hypergraph(g), std::move(p), keep_baseline);
}

bool EpochSession::set_weights(const Graph& g) {
  if (h_.num_vertices() != g.num_vertices() ||
      h_.num_nets() != g.num_edges() || h_.has_fixed())
    return false;
  // graph_to_hypergraph makes net {v, u} for each edge with u > v, in
  // vertex then neighbour order: walk g in that order against h_'s nets.
  Index net = 0;
  for (Index v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] <= v) continue;
      if (net == h_.num_nets()) return false;
      const NetId id{net++};
      const auto pins = h_.pins(id);
      if (pins.size() != 2 || pins[0].v != v || pins[1].v != nbrs[i] ||
          h_.net_cost(id) != ws[i])
        return false;
    }
  }
  if (net != h_.num_nets()) return false;
  for (const VertexId v : h_.vertices()) {
    h_.set_vertex_weight(v, g.vertex_weight(v.v));
    h_.set_vertex_size(v, g.vertex_size(v.v));
  }
  return true;
}

GainCache& EpochSession::resident_cache(check::CheckLevel level) {
  const bool reuse =
      cache_.has_value() && cache_synced_ && cache_->k() == p_.k;
  cache_synced_ = false;
  if (!reuse) {
    cache_.emplace(h_, p_.k, p_.assignment);
    static obs::CachedCounter builds("incremental.cache_builds");
    builds += 1;
    return *cache_;
  }
  // Vertex weights may have changed since the last attempt, and p_ is not
  // the cache's state after a rejected attempt, a full-tier answer or
  // keep-old: replay the differences.
  GainCache& cache = *cache_;
  cache.refresh_part_weights();
  for (const VertexId v : h_.vertices())
    if (cache.part_of(v) != p_[v]) cache.apply_move(v, p_[v]);
  cache.validate(level);
  return cache;
}

IncrementalOutcome EpochSession::try_epoch(const EpochDelta& delta,
                                           const RepartitionerConfig& cfg) {
  const Hypergraph& h = h_;
  IncrementalOutcome out;
  WallTimer timer;
  out.partition = p_;
  const Index n = h.num_vertices();
  const IncrementalMode mode = cfg.partition.incremental;
  if (mode == IncrementalMode::kOff)
    out.reason = "off";
  else if (!baseline_)
    out.reason = "no_baseline";
  else if (mode == IncrementalMode::kAuto &&
           delta.fraction(n) > cfg.partition.incremental_max_delta_frac)
    out.reason = "delta_frac";
  if (!out.reason.empty()) {
    out.seconds = timer.seconds();
    return out;
  }

  // Routing accepted the epoch: everything below counts as an attempt, and
  // a rejection below is an escalation.
  out.attempted = true;
  static obs::CachedCounter attempts("incremental.attempts");
  attempts += 1;

  const Index k = p_.k;
  GainCache& cache = resident_cache(cfg.partition.check_level);
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
  out.drift = static_cast<double>(out.cut - *baseline_) /
              static_cast<double>(std::max<Weight>(1, *baseline_));

  cache.validate(cfg.partition.check_level);
  if (check::paranoid(cfg.partition.check_level))
    HGR_ASSERT_MSG(out.cut == connectivity_cut(h, out.partition),
                   "incremental cut diverged from scratch recomputation");
  cache_synced_ = true;  // consistent again: reusable

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

GuardedRepartitionResult EpochSession::repartition(
    RepartAlgorithm algorithm, const EpochDelta& delta,
    const RepartitionerConfig& cfg, const Graph& graph) {
  // The fast path repairs a hypergraph partition through the gain cache;
  // graph-family algorithms keep their own full pipelines.
  const bool hypergraph_family =
      algorithm == RepartAlgorithm::kHypergraphRepart ||
      algorithm == RepartAlgorithm::kHypergraphScratch;
  IncrementalOutcome fast;
  if (cfg.partition.incremental != IncrementalMode::kOff &&
      hypergraph_family && p_.k == cfg.partition.num_parts) {
    fast = try_epoch(delta, cfg);
    if (fast.accepted) {
      GuardedRepartitionResult out;
      out.tier = RepartTier::kIncremental;
      // The fast path's cut is maintained by the gain cache (try_epoch
      // checks it against connectivity_cut at paranoid): only the
      // migration plan needs a pass, and that one is O(n), not O(pins).
      out.result.plan =
          extract_migration_plan(h_.vertex_sizes(), p_, fast.partition);
      out.result.cost.alpha = cfg.alpha;
      out.result.cost.comm_volume = fast.cut;
      out.result.cost.migration_volume = out.result.plan.total_volume;
      out.result.seconds = fast.seconds;
      p_ = std::move(fast.partition);
      obs::counter("epoch.tier_incremental") += 1;
      obs::histogram("epoch.incremental_ns")
          .record(static_cast<std::int64_t>(fast.seconds * 1e9));
      record_serial_epoch_span("incremental", fast.seconds);
      return out;
    }
  }
  GuardedRepartitionResult out =
      run_repartition_with_policy(algorithm, h_, graph, p_, cfg);
  out.tier = RepartTier::kFull;
  out.escalated = fast.attempted;
  out.tier_reason = std::move(fast.reason);
  if (fast.attempted) obs::counter("epoch.escalations") += 1;
  obs::counter("epoch.tier_full") += 1;
  obs::histogram("epoch.full_ns")
      .record(static_cast<std::int64_t>(out.result.seconds * 1e9));
  // The parallel runtime records its own per-rank span.
  if (cfg.num_ranks <= 0 || algorithm != RepartAlgorithm::kHypergraphRepart)
    record_serial_epoch_span("full", out.result.seconds);
  baseline_ = out.result.cost.comm_volume;
  p_ = std::move(out.result.partition);
  return out;
}

}  // namespace hgr

#include "parallel/par_partitioner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "check/validate.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/workspace.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "parallel/par_coarsen.hpp"
#include "parallel/par_initial.hpp"
#include "parallel/par_ipm.hpp"
#include "parallel/par_refine.hpp"
#include "partition/multilevel.hpp"

namespace hgr {

ParallelPartitionResult parallel_partition_hypergraph(
    const Hypergraph& h, const ParallelPartitionConfig& cfg) {
  HGR_ASSERT(cfg.num_ranks >= 1);
  HGR_ASSERT(cfg.base.num_parts >= 1);
  h.validate(cfg.base.num_parts);

  ParallelPartitionResult result;
  result.partition =
      Partition(cfg.base.num_parts, h.num_vertices(), PartId{0});
  if (cfg.base.num_parts == 1 || h.num_vertices() == 0) return result;

  WallTimer timer;
  Comm comm(cfg.num_ranks);
  comm.set_deadlock_timeout(cfg.deadlock_timeout);
  comm.set_fault_plan(cfg.base.fault_plan);
  std::mutex out_mutex;
  // Epoch span for critical-path attribution: allocated by the lead rank,
  // propagated to the others through the comm exchange window (a plain
  // broadcast), closed after the join once every rank's records are in.
  std::atomic<std::uint64_t> epoch_span{0};

  comm.run([&](RankContext& ctx) {
    // Every rank opens the phase scopes: same-named scopes merge into one
    // node with calls == p, seconds == sum over ranks (cpu-seconds), and
    // max_seconds as the representative per-rank wall time — max-min is
    // the skew the per-rank timeline (events.hpp) drills into.
    const bool lead = ctx.rank() == 0;
    obs::TraceScope run_scope("par_partition");

    const std::vector<std::uint64_t> span_buf = ctx.bcast(
        std::vector<std::uint64_t>{lead ? obs::begin_epoch_span() : 0}, 0);
    const std::uint64_t span = span_buf.empty() ? 0 : span_buf[0];
    if (lead) epoch_span.store(span, std::memory_order_relaxed);
    // Runs one span phase under its trace scope and records its wall time
    // and, from the rank's barrier-wait delta, how much of it was spent
    // waiting on a peer rather than computing.
    const auto run_phase = [&](const char* name, const auto& body) {
      obs::TraceScope scope(name);
      WallTimer phase_timer;
      const double wait_before = ctx.stats().barrier_wait_seconds;
      body();
      obs::record_rank_phase(span, ctx.rank(), name, phase_timer.seconds(),
                             ctx.stats().barrier_wait_seconds - wait_before);
    };

    // Rank-local scratch arena: each rank's kernels (contraction, the
    // serial partitioner behind the coarse step) reuse capacity across
    // levels. Never shared across ranks; thread-parallel kernels inside
    // this rank use per-thread sub-arenas of it. When cfg asks for
    // shared-memory threads, the arena carries this rank's own pool —
    // ranks x threads compose (docs/PARALLELISM.md).
    Workspace ws;
    std::optional<ThreadPool> thread_pool;
    if (cfg.base.num_threads > 1) {
      thread_pool.emplace(static_cast<int>(cfg.base.num_threads));
      ws.set_pool(&*thread_pool);
    }

    const CoarseningLimits limits = coarsening_limits(
        h.total_vertex_weight(), 2 * cfg.base.num_parts);
    // Only the lead rank counts and validates: every level is replicated
    // and parallel_contract already checksums cross-rank agreement.
    const check::CheckLevel check_level =
        lead ? cfg.base.check_level : check::CheckLevel::kOff;

    // Coarsening: every rank holds the (replicated) current level; the
    // matching itself is computed cooperatively and is identical on all
    // ranks, so contraction is too (parallel_contract asserts it).
    std::vector<CoarseLevel> levels;
    run_phase("coarsen", [&] {
      levels = build_hierarchy(
          h, cfg.base, limits,
          [&](const Hypergraph& current, Index level) {
            const std::uint64_t level_seed =
                derive_seed(cfg.base.seed, static_cast<std::uint64_t>(level));
            const std::vector<Index> match =
                cfg.local_matching
                    ? local_ipm_matching(ctx, current, cfg.base,
                                         limits.max_vertex_weight, level_seed)
                    : parallel_ipm_matching(ctx, current, cfg.base,
                                            limits.max_vertex_weight,
                                            level_seed);
            return parallel_contract(ctx, current, match, &ws);
          },
          lead);
    });

    // Coarse partitioning: every rank tries its own seed; best wins.
    const Hypergraph& top = coarsest(h, levels);
    Partition p;
    run_phase("initial", [&] {
      p = parallel_coarse_partition(ctx, top, cfg.base,
                                    derive_seed(cfg.base.seed, 5000), &ws);
    });

    // Uncoarsening with synchronized localized refinement.
    run_phase("refine", [&] {
      parallel_refine(ctx, top, p, cfg.base);
      uncoarsen(h, levels, p, check_level,
                [&](const Hypergraph& finer, std::size_t) {
                  parallel_refine(ctx, finer, p, cfg.base);
                });
    });

    if (lead) {
      obs::counter("par_partition.levels") +=
          static_cast<std::uint64_t>(levels.size());
      std::lock_guard lock(out_mutex);
      result.partition = std::move(p);
      result.levels = static_cast<Index>(levels.size());
    }
  });

  // All ranks have joined: close the span and publish the attribution.
  if (const std::uint64_t span = epoch_span.load(std::memory_order_relaxed);
      span != 0)
    obs::end_epoch_span(span);

  result.seconds = timer.seconds();
  result.traffic = comm.total_stats();

  result.partition.validate();
  if (h.has_fixed()) {
    for (const VertexId v : h.vertices()) {
      const PartId f = h.fixed_part(v);
      HGR_ASSERT_MSG(f == kNoPart || result.partition[v] == f,
                     "parallel partitioner violated a fixed constraint");
    }
  }
  {
    check::PartitionExpectations expect;
    expect.epsilon = cfg.base.epsilon;
    expect.context = "par_partition";
    check::validate_partition(h, result.partition, cfg.base.check_level,
                              expect);
  }
  return result;
}

}  // namespace hgr

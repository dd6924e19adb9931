#include "partition/contract.hpp"

#include <algorithm>
#include <cstdint>

#include "common/assert.hpp"
#include "common/csr_utils.hpp"
#include "common/thread_pool.hpp"
#include "partition/matching_ipm.hpp"

namespace hgr {

namespace {

std::uint64_t hash_pins(std::span<const VertexId> pins) {
  // FNV-1a over the sorted pin list.
  std::uint64_t h = 1469598103934665603ULL;
  for (const VertexId v : pins) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v.v));
    h *= 1099511628211ULL;
  }
  return h;
}

/// Table slot of a net hash: the top `bits` bits of a Fibonacci multiply,
/// so every pin id bit reaches the slot (FNV-1a's low bits see only the
/// pins' low bits).
std::size_t table_slot(std::uint64_t hash, int bits) {
  return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >>
                                  (64 - bits));
}

}  // namespace

// Contraction in three phases around the serial dedup core:
//
//   A (parallel over nets)  map + sort + dedup each pin list into the
//                           chunk's thread-local buffer; record per-net
//                           (count, offset, hash).
//   B (serial, net order)   merge identical nets into the first kept
//                           copy through a flat hash table of kept-net
//                           ids, reading pins out of the thread buffers.
//                           Net order is the original net order, so the
//                           output is bit-identical at every thread count.
//   C (parallel over kept)  prefix-sum the kept counts and copy each kept
//                           pin list into its final CSR slot (disjoint
//                           ranges, frozen sources).
//
// Phase A dominates the serial kernel's runtime (the sort per net), which
// is what makes this split worth its bookkeeping.
CoarseLevel contract(const Hypergraph& h,
                     IdSpan<VertexId, const VertexId> match, Workspace* ws) {
  const Index n = h.num_vertices();
  const Index m = h.num_nets();
  HGR_ASSERT(match.ssize() == n);

  CoarseLevel out;
  out.fine_to_coarse.assign(n, kInvalidVertex);

  // Coarse ids: the smaller endpoint of each pair is the representative.
  VertexId num_coarse{0};
  for (const VertexId v : h.vertices()) {
    const VertexId u = match[v];
    HGR_ASSERT(u.v >= 0 && u.v < n && match[u] == v);
    if (u >= v) out.fine_to_coarse[v] = num_coarse++;
  }
  for (const VertexId v : h.vertices()) {
    const VertexId u = match[v];
    if (u < v) out.fine_to_coarse[v] = out.fine_to_coarse[u];
  }

  // Coarse vertex attributes (keyed by coarse vertex id).
  IdVector<VertexId, Weight> weights(num_coarse.v, 0);
  IdVector<VertexId, Weight> sizes(num_coarse.v, 0);
  IdVector<VertexId, PartId> fixed(num_coarse.v, kNoPart);
  bool any_fixed = false;
  for (const VertexId v : h.vertices()) {
    const VertexId c = out.fine_to_coarse[v];
    weights[c] += h.vertex_weight(v);
    sizes[c] += h.vertex_size(v);
    const PartId fv = h.fixed_part(v);
    if (fv != kNoPart) {
      HGR_ASSERT_MSG(fixed[c] == kNoPart || fixed[c] == fv,
                     "matching merged incompatible fixed vertices");
      fixed[c] = fv;
      any_fixed = true;
    }
  }

  ThreadPool* pool = ws != nullptr ? ws->pool() : nullptr;
  const int num_threads = pool_threads(pool);
  if (ws != nullptr) ws->reserve_threads(num_threads);

  // Phase A: per-thread pin buffers plus per-net (count, offset, hash).
  // The buffers are borrowed from each thread's sub-arena up front, on the
  // caller, so the parallel section itself never touches an arena.
  // One growable pin buffer per thread, not a message:
  std::vector<std::vector<VertexId>> bufs(  // hgr-lint: ragged-ok
      static_cast<std::size_t>(num_threads));
  if (ws != nullptr)
    for (int t = 0; t < num_threads; ++t)
      bufs[static_cast<std::size_t>(t)] = ws->for_thread(t).take<VertexId>();

  Borrowed<Index> net_count_b(ws);   // mapped pins per net (0 = dropped)
  Borrowed<Index> net_off_b(ws);     // offset in the owning thread's buffer
  Borrowed<std::uint64_t> net_hash_b(ws);
  net_count_b.get().assign(static_cast<std::size_t>(m), 0);
  net_off_b.get().assign(static_cast<std::size_t>(m), 0);
  net_hash_b.get().assign(static_cast<std::size_t>(m), 0);
  std::vector<Index>& net_count = net_count_b.get();
  std::vector<Index>& net_off = net_off_b.get();
  std::vector<std::uint64_t>& net_hash = net_hash_b.get();

  parallel_chunks(pool, m, [&](int t, Index begin, Index end) {
    std::vector<VertexId>& buf = bufs[static_cast<std::size_t>(t)];
    buf.clear();
    for (Index ni = begin; ni < end; ++ni) {
      const NetId net{ni};
      const Index start = static_cast<Index>(buf.size());
      for (const VertexId v : h.pins(net))
        buf.push_back(out.fine_to_coarse[v]);
      std::sort(buf.begin() + start, buf.end());
      buf.erase(std::unique(buf.begin() + start, buf.end()), buf.end());
      const Index count = static_cast<Index>(buf.size()) - start;
      if (count < 2) {
        buf.resize(static_cast<std::size_t>(start));
        continue;  // net_count stays 0: dropped
      }
      net_count[static_cast<std::size_t>(ni)] = count;
      net_off[static_cast<std::size_t>(ni)] = start;
      net_hash[static_cast<std::size_t>(ni)] = hash_pins(
          {buf.data() + start, static_cast<std::size_t>(count)});
    }
  });

  // Phase B: serial first-occurrence dedup in net order. Kept nets record
  // where their pins live (owning thread + offset) for the copy phase.
  // Identical nets are found through an open-addressing table of kept-net
  // ids (power-of-two size, load <= 1/2, linear probing) that compares the
  // kept nets' hashes before their pins. A net merges into the first equal
  // kept net it meets, so no two kept nets are ever equal and the probe
  // order cannot change the merge target.
  Borrowed<Index> kept_off_b(ws);
  Borrowed<Index> kept_thread_b(ws);
  Borrowed<std::uint64_t> kept_hash_b(ws);
  Borrowed<Index> table_b(ws);
  std::vector<Index>& kept_off = kept_off_b.get();
  std::vector<Index>& kept_thread = kept_thread_b.get();
  std::vector<std::uint64_t>& kept_hash = kept_hash_b.get();
  std::vector<Index>& table = table_b.get();
  std::vector<Index> coarse_net_counts;
  std::vector<Weight> coarse_net_costs;

  const auto live = static_cast<std::size_t>(
      std::count_if(net_count.begin(), net_count.end(),
                    [](Index count) { return count > 0; }));
  int table_bits = 1;
  while ((std::size_t{1} << table_bits) < 2 * live) ++table_bits;
  table.assign(std::size_t{1} << table_bits, kInvalidIndex);
  const std::size_t mask = table.size() - 1;

  int cur_thread = 0;
  Index cur_end = ThreadPool::chunk(m, 0, num_threads).second;
  for (Index ni = 0; ni < m; ++ni) {
    while (ni >= cur_end && cur_thread + 1 < num_threads)
      cur_end = ThreadPool::chunk(m, ++cur_thread, num_threads).second;
    const Index count = net_count[static_cast<std::size_t>(ni)];
    if (count == 0) continue;
    const std::vector<VertexId>& src =
        bufs[static_cast<std::size_t>(cur_thread)];
    const VertexId* pins =
        src.data() + net_off[static_cast<std::size_t>(ni)];
    const Weight cost = h.net_cost(NetId{ni});
    const std::uint64_t hash = net_hash[static_cast<std::size_t>(ni)];

    std::size_t slot = table_slot(hash, table_bits);
    Index existing = table[slot];
    for (; existing != kInvalidIndex;
         slot = (slot + 1) & mask, existing = table[slot]) {
      const auto e = static_cast<std::size_t>(existing);
      if (kept_hash[e] != hash || coarse_net_counts[e] != count) continue;
      const VertexId* epins =
          bufs[static_cast<std::size_t>(kept_thread[e])].data() + kept_off[e];
      if (std::equal(pins, pins + count, epins)) break;
    }
    if (existing != kInvalidIndex) {
      coarse_net_costs[static_cast<std::size_t>(existing)] += cost;
      continue;
    }

    table[slot] = static_cast<Index>(coarse_net_counts.size());
    kept_off.push_back(net_off[static_cast<std::size_t>(ni)]);
    kept_thread.push_back(cur_thread);
    kept_hash.push_back(hash);
    coarse_net_counts.push_back(count);
    coarse_net_costs.push_back(cost);
  }

  // Phase C: prefix-sum the kept counts and copy pin lists into place.
  const Index num_kept = static_cast<Index>(coarse_net_counts.size());
  std::vector<Index> offsets = counts_to_offsets(std::move(coarse_net_counts));
  std::vector<VertexId> coarse_pins(
      static_cast<std::size_t>(offsets.back()));
  parallel_chunks(pool, num_kept, [&](int /*t*/, Index begin, Index end) {
    for (Index j = begin; j < end; ++j) {
      const std::vector<VertexId>& src =
          bufs[static_cast<std::size_t>(kept_thread[
              static_cast<std::size_t>(j)])];
      const VertexId* pins = src.data() + kept_off[static_cast<std::size_t>(j)];
      const Index count = offsets[static_cast<std::size_t>(j) + 1] -
                          offsets[static_cast<std::size_t>(j)];
      std::copy(pins, pins + count,
                coarse_pins.begin() + offsets[static_cast<std::size_t>(j)]);
    }
  });

  if (ws != nullptr)
    for (int t = 0; t < num_threads; ++t)
      ws->for_thread(t).give(std::move(bufs[static_cast<std::size_t>(t)]));

  // hgr-lint: raw-ok (handing storage to the Hypergraph raw constructor)
  out.coarse = Hypergraph(std::move(offsets), std::move(coarse_pins),
                          std::move(weights.raw()), std::move(sizes.raw()),
                          std::move(coarse_net_costs),
                          any_fixed ? std::move(fixed.raw())
                                    : std::vector<PartId>{});
  return out;
}

}  // namespace hgr

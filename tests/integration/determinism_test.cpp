// Whole-pipeline determinism: identical configs must produce bit-identical
// results at every level of the stack — the property that makes the
// figure benches and trial averaging reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/epoch_driver.hpp"
#include "core/repartitioner.hpp"
#include "graphpart/gpartitioner.hpp"
#include "hypergraph/convert.hpp"
#include "hypergraph/io.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/partitioner.hpp"
#include "serve/server.hpp"
#include "workload/datasets.hpp"
#include "workload/experiment.hpp"
#include "workload/perturb.hpp"

namespace hgr {
namespace {

TEST(Determinism, DatasetsAreSeedStable) {
  for (const DatasetInfo& info : dataset_catalog()) {
    const Graph a = make_dataset(info.name, 0.05, 77);
    const Graph b = make_dataset(info.name, 0.05, 77);
    ASSERT_EQ(a.num_vertices(), b.num_vertices()) << info.name;
    ASSERT_EQ(a.num_edges(), b.num_edges()) << info.name;
    for (Index v = 0; v < a.num_vertices(); ++v) {
      ASSERT_EQ(a.degree(v), b.degree(v)) << info.name;
      ASSERT_EQ(a.vertex_size(v), b.vertex_size(v)) << info.name;
    }
  }
}

TEST(Determinism, EpochRunsAreReproducible) {
  const auto run_once = [] {
    StructuralPerturbScenario scenario(make_dataset("auto-like", 0.03, 5),
                                       StructuralPerturbOptions{}, 9);
    RepartitionerConfig cfg;
    cfg.alpha = 10;
    cfg.partition.num_parts = 4;
    cfg.partition.seed = 11;
    return run_epochs(scenario, RepartAlgorithm::kHypergraphRepart, cfg, 3);
  };
  const EpochRunSummary a = run_once();
  const EpochRunSummary b = run_once();
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].cost.comm_volume, b.epochs[e].cost.comm_volume);
    EXPECT_EQ(a.epochs[e].cost.migration_volume,
              b.epochs[e].cost.migration_volume);
    EXPECT_EQ(a.epochs[e].num_migrated, b.epochs[e].num_migrated);
  }
}

TEST(Determinism, ExperimentCellsAreReproducible) {
  ExperimentConfig cfg;
  cfg.dataset = "auto-like";
  cfg.scale = 0.02;
  cfg.k_values = {4};
  cfg.alphas = {10};
  cfg.num_epochs = 2;
  cfg.num_trials = 2;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].comm_volume, b[i].comm_volume);
    EXPECT_DOUBLE_EQ(a[i].migration_volume, b[i].migration_volume);
    EXPECT_DOUBLE_EQ(a[i].normalized_total, b[i].normalized_total);
  }
}

TEST(Determinism, DifferentSeedsChangeTheSequence) {
  const auto run_with = [](std::uint64_t seed) {
    StructuralPerturbScenario scenario(make_dataset("auto-like", 0.03, 5),
                                       StructuralPerturbOptions{}, seed);
    RepartitionerConfig cfg;
    cfg.alpha = 10;
    cfg.partition.num_parts = 4;
    cfg.partition.seed = seed;
    return run_epochs(scenario, RepartAlgorithm::kHypergraphRepart, cfg, 3);
  };
  const EpochRunSummary a = run_with(1);
  const EpochRunSummary b = run_with(2);
  // With different perturbation + partitioner seeds, at least one recorded
  // quantity must differ.
  bool any_diff = false;
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    any_diff |= a.epochs[e].cost.comm_volume != b.epochs[e].cost.comm_volume;
    any_diff |= a.epochs[e].cost.migration_volume !=
                b.epochs[e].cost.migration_volume;
  }
  EXPECT_TRUE(any_diff);
}

/// FNV-1a over the part id of every vertex, in vertex order.
std::uint64_t assignment_hash(const Partition& p) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const PartId q : p.assignment) {
    auto bits = static_cast<std::uint32_t>(q.v);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= bits & 0xFFU;
      hash *= 1099511628211ULL;
      bits >>= 8;
    }
  }
  return hash;
}

struct GoldenRow {
  const char* dataset;
  std::uint64_t seed;
  std::uint64_t rb;             // recursive bisection
  std::uint64_t kway;           // direct k-way
  std::uint64_t rb_post;        // RB + k-way post-pass + one V-cycle
  std::uint64_t par_global;     // 2 ranks, global IPM
  std::uint64_t par_local;      // 2 ranks, local IPM
  std::uint64_t repart;         // hypergraph_repartition, alpha = 100
};

// Partitions of the five Table-1 analogs at scale 0.02 under every
// hypergraph entry point. Any change to RNG draw order, coarsening stop
// rules or refinement moves shows up here; regenerate only when the
// algorithm changes on purpose.
constexpr GoldenRow kGolden[] = {
  {"xyce680s-like", 1, 0xe60fb1795a689c7dULL, 0x66f6b8ba3472c83cULL,
   0x06003cbcedda350bULL, 0x067d27879a37ec89ULL, 0x5ca75cb3ae793f7aULL,
   0xa6a131fab1ca9aafULL},
  {"xyce680s-like", 17, 0xa1539f9c925ebdfdULL, 0x4d2044f0aef49e66ULL,
   0xa4c0db1fe7e53dabULL, 0x6c392745efd713acULL, 0x091a7d81596ec3a1ULL,
   0x43871aaa85a9a06cULL},
  {"2DLipid-like", 1, 0x7aa230b0c4397e28ULL, 0x20ed53467fee533aULL,
   0x9d9124c33b1b5c48ULL, 0xc8da205d69d92e28ULL, 0xc8da205d69d92e28ULL,
   0x792fca41ee432a28ULL},
  {"2DLipid-like", 17, 0xa70407ab86791e78ULL, 0xcf3b659d4fdfae98ULL,
   0xcd408b890fec3952ULL, 0xee97a08f204f1a5aULL, 0xee97a08f204f1a5aULL,
   0x792fca41ee432a28ULL},
  {"auto-like", 1, 0x62206aa39f0d0de5ULL, 0x7410784b0559142eULL,
   0xc032d1cfbc6608edULL, 0x246e66ea49f18d69ULL, 0x4201310b1c40ac1aULL,
   0x41916b9e72081225ULL},
  {"auto-like", 17, 0xd0b4b410881de005ULL, 0x82414f5a48f39a72ULL,
   0xd0b4b410881de005ULL, 0xf6b689d936610a86ULL, 0x5875bd9f4aeb06dcULL,
   0x41916b9e72081225ULL},
  {"apoa1-like", 1, 0x0fddbbc00ef244fdULL, 0x406cbbb1aa5d7375ULL,
   0x6e25b6138f6f34f5ULL, 0x9ad3f1a0920821b5ULL, 0x9ad3f1a0920821b5ULL,
   0x089ff519c9b741cdULL},
  {"apoa1-like", 17, 0x42783fc89698cb4dULL, 0x0627cd8d788f2f45ULL,
   0xb88a3bd8f08acfc5ULL, 0x9b0981611377c4e5ULL, 0x9b0981611377c4e5ULL,
   0x089ff519c9b741cdULL},
  {"cage14-like", 1, 0x82cf9ca5587350b0ULL, 0xf72162b4dd8e88d4ULL,
   0x39d853fee80644afULL, 0x05731c45a4a8a899ULL, 0x8b717e8bfe2a4a93ULL,
   0x1a3de6cebece9231ULL},
  {"cage14-like", 17, 0xf490e390bfd96611ULL, 0x42dc05c86d62f223ULL,
   0xb1c3bfe181f6428eULL, 0x53db589019e5cc64ULL, 0x6c77e5a8d4b4acb6ULL,
   0x34d53aeefc3ee2a0ULL},
};

TEST(Determinism, GoldenPartitionHashes) {
  constexpr Index kParts = 16;
  for (const GoldenRow& row : kGolden) {
    SCOPED_TRACE(std::string(row.dataset) + " seed " +
                 std::to_string(row.seed));
    const Hypergraph h =
        graph_to_hypergraph(make_dataset(row.dataset, 0.02, 1));
    PartitionConfig cfg;
    cfg.num_parts = kParts;
    cfg.seed = row.seed;

    EXPECT_EQ(assignment_hash(partition_hypergraph(h, cfg)), row.rb);

    PartitionConfig kway = cfg;
    kway.kway_method = KwayMethod::kDirectKway;
    EXPECT_EQ(assignment_hash(partition_hypergraph(h, kway)), row.kway);

    PartitionConfig post = cfg;
    post.kway_postpass = true;
    post.num_vcycles = 1;
    EXPECT_EQ(assignment_hash(partition_hypergraph(h, post)), row.rb_post);

    ParallelPartitionConfig par;
    par.num_ranks = 2;
    par.base = cfg;
    EXPECT_EQ(assignment_hash(parallel_partition_hypergraph(h, par).partition),
              row.par_global);
    par.local_matching = true;
    EXPECT_EQ(assignment_hash(parallel_partition_hypergraph(h, par).partition),
              row.par_local);

    PartitionConfig old_cfg = cfg;
    old_cfg.seed = 99;
    const Partition old_p = partition_hypergraph(h, old_cfg);
    RepartitionerConfig rcfg;
    rcfg.partition = cfg;
    rcfg.alpha = 100;
    EXPECT_EQ(assignment_hash(hypergraph_repartition(h, old_p, rcfg).partition),
              row.repart);
  }
}

struct GoldenGraphRow {
  const char* dataset;
  std::uint64_t seed;
  std::uint64_t partkway;       // partition_graph
  std::uint64_t adaptive;       // graph_repartition, alpha = 100
  std::uint64_t graph_scratch;  // graph_scratch (partition_graph + remap)
};

// The same analogs, seeds and k under the graph-family entry points (the
// paper's ParMETIS baselines). Regenerate only when a graph algorithm
// changes on purpose.
constexpr GoldenGraphRow kGoldenGraph[] = {
  {"xyce680s-like", 1, 0xb213e9aac6e481a4ULL, 0xba9c8ce9550a7fa5ULL,
   0xf0d0146d6f626b99ULL},
  {"xyce680s-like", 17, 0x95b5689e7a279454ULL, 0x21a6ffe278299ed4ULL,
   0xa45185d91eae14a3ULL},
  {"2DLipid-like", 1, 0x4246b2ae35e80374ULL, 0x246ba67cc48f9256ULL,
   0xf32adb0e2cd3ba80ULL},
  {"2DLipid-like", 17, 0x424c156caae872a7ULL, 0x41ebee8b2eb79125ULL,
   0xdd8e4895ec229e94ULL},
  {"auto-like", 1, 0x84708e1aef47c346ULL, 0x95a535b1a0851be9ULL,
   0x9f9953e638717585ULL},
  {"auto-like", 17, 0xd7b54fbeb3788ae2ULL, 0x95a535b1a0851be9ULL,
   0x1aa5ef94e5041a5dULL},
  {"apoa1-like", 1, 0x1154553ac5e02c65ULL, 0x7847dcd1b4854185ULL,
   0x6c5d2adddc0e65a5ULL},
  {"apoa1-like", 17, 0x43e2e32a61aebb84ULL, 0x7847dcd1b4854185ULL,
   0xb171bb7f6ce46002ULL},
  {"cage14-like", 1, 0x64d91f3ca3ec8306ULL, 0x6026f3b16b5adf85ULL,
   0xce4681ac21896037ULL},
  {"cage14-like", 17, 0x59c0d621e573083bULL, 0x8c747c4680b2f4e5ULL,
   0xd1b1ca83df7472abULL},
};

TEST(Determinism, GoldenGraphPartitionHashes) {
  constexpr Index kParts = 16;
  for (const GoldenGraphRow& row : kGoldenGraph) {
    SCOPED_TRACE(std::string(row.dataset) + " seed " +
                 std::to_string(row.seed));
    const Graph g = make_dataset(row.dataset, 0.02, 1);
    PartitionConfig cfg;
    cfg.num_parts = kParts;
    cfg.seed = row.seed;

    EXPECT_EQ(assignment_hash(partition_graph(g, cfg)), row.partkway);

    PartitionConfig old_cfg = cfg;
    old_cfg.seed = 99;
    const Partition old_p = partition_graph(g, old_cfg);
    RepartitionerConfig rcfg;
    rcfg.partition = cfg;
    rcfg.alpha = 100;
    EXPECT_EQ(assignment_hash(graph_repartition(g, old_p, rcfg).partition),
              row.adaptive);
    EXPECT_EQ(assignment_hash(graph_scratch(g, old_p, rcfg).partition),
              row.graph_scratch);
  }
}

struct GoldenParallelRepartRow {
  const char* dataset;
  std::uint64_t seed;
  std::uint64_t repart;  // the epoch policy's hg-repart on 2 ranks
};

// The same analogs, seeds and k under the parallel repartition path
// churn-ranks runs: run_repartition_with_policy with num_ranks = 2,
// alpha = 100, from a seed-99 partition_hypergraph start. Regenerate only
// when the parallel solver changes on purpose.
constexpr GoldenParallelRepartRow kGoldenParallelRepart[] = {
  {"xyce680s-like", 1, 0xd0b4e1bd1c1a97fbULL},
  {"xyce680s-like", 17, 0xab879550da5a3338ULL},
  {"2DLipid-like", 1, 0x37c8b2dd7efe57a9ULL},
  {"2DLipid-like", 17, 0x1a1e1e887c3e0f88ULL},
  {"auto-like", 1, 0x1e37aaf19d4958efULL},
  {"auto-like", 17, 0x6f0a2b39b90e75eaULL},
  {"apoa1-like", 1, 0xcfbbf6d9e1a64925ULL},
  {"apoa1-like", 17, 0x43d51fba6a8fdfb5ULL},
  {"cage14-like", 1, 0xb468a604d09f99c5ULL},
  {"cage14-like", 17, 0x52e354760fd83329ULL},
};

TEST(Determinism, GoldenParallelRepartitionHashes) {
  constexpr Index kParts = 16;
  for (const GoldenParallelRepartRow& row : kGoldenParallelRepart) {
    SCOPED_TRACE(std::string(row.dataset) + " seed " +
                 std::to_string(row.seed));
    const Graph g = make_dataset(row.dataset, 0.02, 1);
    const Hypergraph h = graph_to_hypergraph(g);
    RepartitionerConfig rcfg;
    rcfg.partition.num_parts = kParts;
    rcfg.partition.seed = 99;
    const Partition old_p = partition_hypergraph(h, rcfg.partition);
    rcfg.partition.seed = row.seed;
    rcfg.alpha = 100;
    rcfg.num_ranks = 2;
    const GuardedRepartitionResult r = run_repartition_with_policy(
        RepartAlgorithm::kHypergraphRepart, h, g, old_p, rcfg);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.retries, 0);
    EXPECT_EQ(assignment_hash(r.result.partition), row.repart);
  }
}

/// FNV-1a over the eight bytes of `word`, continuing from `hash`.
std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= word & 0xFFU;
    hash *= 1099511628211ULL;
    word >>= 8;
  }
  return hash;
}

/// Passes a scenario's epochs through unchanged and keeps the hash of
/// every partition the epoch loop records.
class RecordingScenario final : public EpochScenario {
 public:
  explicit RecordingScenario(EpochScenario& inner) : inner_(inner) {}
  EpochProblem next_epoch() override { return inner_.next_epoch(); }
  void record_partition(const Partition& p) override {
    hashes.push_back(assignment_hash(p));
    inner_.record_partition(p);
  }
  std::vector<std::uint64_t> hashes;

 private:
  EpochScenario& inner_;
};

struct GoldenEpochRun {
  bool structural;
  IncrementalMode mode;
  const char* tiers;  // one letter per epoch: s(tatic), f(ull), i(ncremental)
  std::uint64_t hash;  // every epoch's assignment hash, comm and mig
};

constexpr Index kGoldenEpochs = 5;

// run_epochs over both paper scenarios on auto-like at scale 0.02, under
// each incremental routing mode. The rows pin the epoch loop's answers
// (partitions and reported costs) and which tier gave them; regenerate
// only when an algorithm or the routing changes on purpose.
constexpr GoldenEpochRun kGoldenEpochRuns[] = {
  {false, IncrementalMode::kOff, "sffff", 0x98f43249e12f2b45ULL},
  {false, IncrementalMode::kAuto, "sfiff", 0xc802bae672cbd1e2ULL},
  {false, IncrementalMode::kOn, "sfiff", 0xc802bae672cbd1e2ULL},
  {true, IncrementalMode::kOff, "sffff", 0xf0aaded99bc5fce2ULL},
  {true, IncrementalMode::kAuto, "sffff", 0xf0aaded99bc5fce2ULL},
  {true, IncrementalMode::kOn, "sfiii", 0x8cdc6e967c2cf122ULL},
};

// A scripted hgr_serve stream on the same graph, one batch per request
// (drained after each, so nothing coalesces): LOAD, three DELTAs, ADD,
// REMOVE, REPART. The replies carry every cut, migration volume and tier.
const char* const kGoldenServeReplies[] = {
    "OK 1 graph=g n=216 nets=1040 k=8 cut=364 tier=static",
    "OK 2 graph=g cut=378 mig=30 tier=incremental degraded=0 retries=0 coalesced=0",
    "OK 3 graph=g cut=382 mig=25 tier=incremental degraded=0 retries=0 coalesced=0",
    "OK 4 graph=g cut=396 mig=65 tier=incremental degraded=0 retries=0 coalesced=0",
    "OK 5 graph=g cut=361 mig=187 tier=full degraded=0 retries=0 coalesced=0",
    "OK 6 graph=g cut=355 mig=7 tier=full degraded=0 retries=0 coalesced=0",
    "OK 7 graph=g cut=355 mig=0 tier=full degraded=0 retries=0 coalesced=0",
};

TEST(Determinism, GoldenEpochRows) {
  const Graph base = make_dataset("auto-like", 0.02, 1);
  // Milder refinement than the paper's 1.5-7.5x, so the fast path
  // absorbs some weight epochs and escalates others.
  WeightPerturbOptions refine;
  refine.max_factor = 5.0;
  for (const GoldenEpochRun& row : kGoldenEpochRuns) {
    SCOPED_TRACE(std::string(row.structural ? "structural" : "weights") +
                 " incremental=" + to_string(row.mode));
    RepartitionerConfig cfg;
    cfg.alpha = 10;
    cfg.partition.num_parts = 8;
    cfg.partition.seed = 11;
    cfg.partition.incremental = row.mode;
    cfg.partition.incremental_max_delta_frac = 0.5;
    std::unique_ptr<EpochScenario> inner;
    if (row.structural)
      inner = std::make_unique<StructuralPerturbScenario>(
          base, StructuralPerturbOptions{}, 5);
    else
      inner = std::make_unique<WeightPerturbScenario>(base, refine, 5);
    RecordingScenario scenario(*inner);
    const EpochRunSummary s = run_epochs(
        scenario, RepartAlgorithm::kHypergraphRepart, cfg, kGoldenEpochs);
    ASSERT_EQ(s.epochs.size(), static_cast<std::size_t>(kGoldenEpochs));
    ASSERT_EQ(scenario.hashes.size(), s.epochs.size());
    std::string tiers;
    std::uint64_t hash = 14695981039346656037ULL;
    for (std::size_t e = 0; e < s.epochs.size(); ++e) {
      tiers += to_string(s.epochs[e].tier)[0];
      hash = fnv_mix(hash, scenario.hashes[e]);
      hash = fnv_mix(hash, static_cast<std::uint64_t>(
                               s.epochs[e].cost.comm_volume));
      hash = fnv_mix(hash, static_cast<std::uint64_t>(
                               s.epochs[e].cost.migration_volume));
    }
    EXPECT_EQ(tiers, row.tiers);
    EXPECT_EQ(hash, row.hash);
  }

  const std::string path = ::testing::TempDir() + "/golden_epoch_rows.hgr";
  write_hmetis_file(graph_to_hypergraph(base), path);
  std::mutex mutex;
  std::vector<std::string> replies;
  serve::ServeConfig scfg;
  scfg.default_alpha = 10;
  scfg.seed = 11;
  serve::Server server(scfg, [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex);
    replies.push_back(line);
  });
  for (const char* request :
       {"LOAD g PATH k=8", "DELTA g 3:9", "DELTA g 40:1 41:7",
        "DELTA g 100:12", "ADD g 3 5 2", "REMOVE g 0 7 64", "REPART g"}) {
    std::string line = request;
    if (const auto at = line.find("PATH"); at != std::string::npos)
      line.replace(at, 4, path);
    server.submit(line);
    server.drain();
  }
  server.shutdown();
  const std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(replies.size(), std::size(kGoldenServeReplies));
  for (std::size_t i = 0; i < replies.size(); ++i)
    EXPECT_EQ(replies[i], kGoldenServeReplies[i]) << "reply " << i;
}

}  // namespace
}  // namespace hgr

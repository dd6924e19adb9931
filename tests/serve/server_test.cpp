// In-process Server tests (src/serve/server.hpp): request lifecycle and
// replies, DELTA coalescing into one epoch dispatch, bounded-queue
// backpressure, shutdown shedding, structural updates (ADD / REMOVE /
// SWAP), and the idle-loop stats-dump flush.
//
// Determinism device: a `delay@serve` fault rule parks the worker inside
// its first batch, giving the test a window to stack requests behind it
// before the worker sees them — that is what makes coalescing and
// backpressure observable without sleeping and hoping.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>  // hgr-lint: thread-ok (polling sleeps in tests)
#include <utility>
#include <vector>

#include "core/epoch_session.hpp"
#include "hypergraph/convert.hpp"
#include "hypergraph/io.hpp"
#include "metrics/cut.hpp"
#include "obs/stats_stream.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"
#include "workload/generators.hpp"

namespace hgr::serve {
namespace {

/// Thread-safe reply sink: completions arrive from the worker thread,
/// parse errors and sheds from the submitting thread.
class ReplyLog {
 public:
  void operator()(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(line);
  }
  std::vector<std::string> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }
  std::size_t count_containing(const std::string& needle) const {
    std::size_t n = 0;
    for (const std::string& line : snapshot())
      if (line.find(needle) != std::string::npos) ++n;
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

ReplyFn log_into(ReplyLog& log) {
  return [&log](const std::string& line) { log(line); };
}

/// A small hMETIS file the daemon can LOAD: the 4x4x4 grid (64 vertices).
std::string grid_hgr_path(const std::string& stem) {
  const std::string path = ::testing::TempDir() + "/" + stem + ".hgr";
  write_hmetis_file(graph_to_hypergraph(make_grid3d(4, 4, 4, false)), path);
  return path;
}

ServeConfig serial_cfg() {
  ServeConfig cfg;
  cfg.default_k = 4;
  cfg.default_alpha = 10;
  cfg.default_epsilon = 0.1;
  cfg.seed = 7;
  return cfg;
}

/// Spin until the worker has dequeued everything submitted so far (the
/// queue is empty; a batch may still be in flight).
void wait_until_dequeued(const Server& server) {
  while (server.queue_depth() != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(ServeServer, LoadThenRepartReplies) {
  ReplyLog log;
  Server server(serial_cfg(), log_into(log));
  const std::string path = grid_hgr_path("serve_load");
  const std::uint64_t load_id = server.submit("LOAD g " + path + " k=4");
  EXPECT_GT(load_id, 0u);
  server.submit("REPART g");
  server.drain();
  const std::vector<std::string> replies = log.snapshot();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[0].find("OK 1"), std::string::npos) << replies[0];
  EXPECT_NE(replies[0].find("graph=g"), std::string::npos);
  EXPECT_NE(replies[0].find("n=64"), std::string::npos);
  EXPECT_NE(replies[0].find("k=4"), std::string::npos);
  EXPECT_NE(replies[0].find("tier=static"), std::string::npos);
  EXPECT_NE(replies[1].find("OK 2"), std::string::npos) << replies[1];
  EXPECT_NE(replies[1].find("tier=full"), std::string::npos);
  EXPECT_EQ(server.replied(), 2u);
  server.shutdown();
}

TEST(ServeServer, ParseErrorAndUnknownGraphGetErrReplies) {
  ReplyLog log;
  Server server(serial_cfg(), log_into(log));
  // Malformed input is answered synchronously, before any queueing.
  const std::uint64_t bad_id = server.submit("FROB g");
  EXPECT_EQ(log.count_containing("ERR " + std::to_string(bad_id)), 1u);
  // A well-formed request against a graph nobody loaded fails in dispatch.
  server.submit("DELTA nope 0:5");
  server.drain();
  EXPECT_EQ(log.count_containing("unknown graph 'nope'"), 1u);
  // Blank lines and comments are not requests: no id, no reply.
  EXPECT_EQ(server.submit(""), 0u);
  EXPECT_EQ(server.submit("   "), 0u);
  EXPECT_EQ(server.submit("# comment"), 0u);
  server.drain();
  EXPECT_EQ(server.replied(), 2u);
  server.shutdown();
}

TEST(ServeServer, ConsecutiveDeltasCoalesceIntoOneDispatch) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  ReplyLog log;
  ServeConfig cfg = serial_cfg();
  // Park the worker inside the LOAD batch long enough to stack deltas
  // behind it. The delay waits on the server's stop token, so even a
  // pathological scheduler cannot wedge shutdown.
  cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::parse("delay@serve:ms=300"));
  Server server(cfg, log_into(log));
  server.submit("LOAD g " + grid_hgr_path("serve_coalesce") + " k=4");
  wait_until_dequeued(server);  // LOAD is in flight, delayed
  server.submit("DELTA g 0:9");
  server.submit("DELTA g 1:9 2:9");
  server.submit("DELTA g 3:9");
  server.submit("DELTA g 0:2");  // same vertex again: last write wins
  server.drain();
  // One LOAD reply + four DELTA replies, all four from ONE dispatch.
  EXPECT_EQ(server.replied(), 5u);
  EXPECT_EQ(log.count_containing("coalesced=3"), 4u);
  EXPECT_EQ(reg.counter_value("serve.coalesced"), 3u);
  EXPECT_EQ(reg.counter_value("serve.batches"), 2u);  // LOAD + delta batch
  EXPECT_EQ(reg.counter_value("serve.requests"), 5u);
  EXPECT_EQ(reg.counter_value("serve.shed"), 0u);
  server.shutdown();
}

/// The reply to request `id`, minus its "OK <id>" prefix ("" if none).
std::string reply_tail(const ReplyLog& log, std::uint64_t id) {
  const std::string prefix = "OK " + std::to_string(id) + " ";
  for (const std::string& line : log.snapshot())
    if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
  return "";
}

// The resident gain cache changes no answer: DELTA batches that are not
// coalesced reply with the cut=/mig= of a replay that rebuilds the cache
// for every request (a fresh EpochSession each time). The
// second DELTA escalates to the full tier, so the third must sync the
// cache to a partition it never produced.
TEST(ServeServer, SeparateDeltaBatchesMatchARebuildingReplay) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  ReplyLog log;
  const ServeConfig cfg = serial_cfg();
  Server server(cfg, log_into(log));
  const std::string path = grid_hgr_path("serve_resident");
  server.submit("LOAD g " + path + " k=4");
  server.drain();
  const std::vector<std::pair<Index, Weight>> updates = {
      {0, 4}, {40, 5}, {20, 4}, {50, 4}};
  std::vector<std::uint64_t> ids;
  for (const auto& [v, w] : updates) {
    ids.push_back(server.submit("DELTA g " + std::to_string(v) + ":" +
                                std::to_string(w)));
    server.drain();  // one batch per DELTA
  }
  EXPECT_EQ(reg.counter_value("incremental.attempts"), updates.size());
  EXPECT_EQ(reg.counter_value("incremental.cache_builds"), 1u);
  EXPECT_EQ(reg.counter_value("epoch.escalations"), 1u);

  RepartitionerConfig rcfg;
  rcfg.partition.num_parts = 4;
  rcfg.partition.epsilon = cfg.default_epsilon;
  rcfg.partition.seed = cfg.seed;
  rcfg.partition.incremental = cfg.incremental;
  rcfg.alpha = cfg.default_alpha;
  Hypergraph h = read_hmetis_file(path);
  Partition p = partition_hypergraph(h, rcfg.partition);
  Partition baseline_p = p;  // its cut is the drift baseline
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const VertexId v{updates[i].first};
    h.set_vertex_weight(v, updates[i].second);
    EpochDelta delta;
    delta.changed = {v};
    delta.known = true;
    EpochSession fresh;
    fresh.bootstrap(Hypergraph(h), baseline_p);
    fresh.set_partition(p);
    const GuardedRepartitionResult want =
        fresh.repartition(RepartAlgorithm::kHypergraphRepart, delta, rcfg);
    EXPECT_EQ(reply_tail(log, ids[i]),
              "graph=g cut=" + std::to_string(want.result.cost.comm_volume) +
                  " mig=" +
                  std::to_string(want.result.cost.migration_volume) +
                  " tier=" + to_string(want.tier) +
                  " degraded=0 retries=0 coalesced=0");
    p = fresh.partition();
    if (want.tier == RepartTier::kFull) baseline_p = p;
  }
  server.shutdown();
}

TEST(ServeServer, BadDeltaInCoalescedRunFailsOnlyItself) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  ServeConfig cfg = serial_cfg();
  cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::parse("delay@serve:ms=150,count=0"));  // every batch
  const std::string path = grid_hgr_path("serve_bad_delta");

  ReplyLog log;
  Server server(cfg, log_into(log));
  server.submit("LOAD g " + path + " k=4");
  wait_until_dequeued(server);  // LOAD is in flight, delayed
  const std::uint64_t first = server.submit("DELTA g 0:9");
  const std::uint64_t bad = server.submit("DELTA g 999:9");
  const std::uint64_t last = server.submit("DELTA g 1:9");
  server.drain();
  EXPECT_EQ(log.count_containing("ERR " + std::to_string(bad) +
                                 " DELTA: vertex 999 out of range"),
            1u);
  EXPECT_EQ(log.count_containing("ERR "), 1u);
  EXPECT_NE(reply_tail(log, first).find("coalesced=1"), std::string::npos);
  EXPECT_NE(reply_tail(log, last).find("coalesced=1"), std::string::npos);
  EXPECT_EQ(reg.counter_value("serve.errors"), 1u);

  // An all-ERR run (each request's first update is valid) must change no
  // weight: the REPART after it matches a twin server that never saw it.
  server.submit("REPART g");
  wait_until_dequeued(server);  // REPART is in flight, delayed
  server.submit("DELTA g 0:1000 64:1");
  server.submit("DELTA g 5:1000 999:1");
  const std::uint64_t after = server.submit("REPART g");
  server.drain();
  EXPECT_EQ(log.count_containing("ERR "), 3u);
  EXPECT_EQ(reg.counter_value("serve.errors"), 3u);
  EXPECT_EQ(reg.counter_value("serve.coalesced"), 3u);  // both runs folded
  server.shutdown();

  ReplyLog twin_log;
  Server twin(cfg, log_into(twin_log));
  twin.submit("LOAD g " + path + " k=4");
  wait_until_dequeued(twin);
  twin.submit("DELTA g 0:9");
  twin.submit("DELTA g 1:9");
  twin.drain();
  twin.submit("REPART g");
  const std::uint64_t twin_after = twin.submit("REPART g");
  twin.drain();
  EXPECT_EQ(twin_log.count_containing("coalesced=1"), 2u);
  ASSERT_FALSE(reply_tail(twin_log, twin_after).empty());
  EXPECT_EQ(reply_tail(log, after), reply_tail(twin_log, twin_after));
  twin.shutdown();
}

TEST(ServeServer, FullQueueShedsWithBusyReply) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  ReplyLog log;
  ServeConfig cfg = serial_cfg();
  cfg.queue_capacity = 2;
  cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::parse("delay@serve:ms=300"));
  Server server(cfg, log_into(log));
  server.submit("LOAD g " + grid_hgr_path("serve_busy") + " k=4");
  wait_until_dequeued(server);  // worker busy; queue is empty again
  server.submit("DELTA g 0:1");
  server.submit("DELTA g 1:1");
  EXPECT_EQ(server.queue_depth(), 2u);
  const std::uint64_t shed_id = server.submit("DELTA g 2:1");
  // Backpressure is synchronous: the reply arrives before submit returns.
  EXPECT_EQ(log.count_containing("BUSY " + std::to_string(shed_id) +
                                 " queue full"),
            1u);
  EXPECT_EQ(reg.counter_value("serve.shed"), 1u);
  server.drain();
  EXPECT_EQ(server.replied(), 4u);  // LOAD + 2 deltas + 1 shed
  server.shutdown();
}

TEST(ServeServer, StopShedsQueuedRequestsWithOneReplyEach) {
  ReplyLog log;
  ServeConfig cfg = serial_cfg();
  cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::parse("delay@serve:ms=10000"));
  Server server(cfg, log_into(log));
  server.submit("LOAD g " + grid_hgr_path("serve_stop") + " k=4");
  wait_until_dequeued(server);  // LOAD parked in its 10s delay
  server.submit("DELTA g 0:1");
  server.submit("DELTA g 1:1");
  server.submit("REPART g");
  server.stop();  // interrupts the delay, sheds everything still queued
  EXPECT_EQ(log.count_containing("server stopping"), 3u);
  EXPECT_EQ(server.replied(), 4u);
  // Post-stop submissions are shed immediately, still with a reply.
  const std::uint64_t late = server.submit("DELTA g 2:1");
  EXPECT_EQ(log.count_containing("BUSY " + std::to_string(late) +
                                 " server stopping"),
            1u);
}

TEST(ServeServer, AddRemoveSwapAdjustTheVertexSpace) {
  ReplyLog log;
  Server server(serial_cfg(), log_into(log));
  server.submit("LOAD g " + grid_hgr_path("serve_struct") + " k=4");
  server.submit("ADD g 3 4");     // 64 -> 66 vertices
  server.submit("REMOVE g 0 1");  // 66 -> 64
  server.drain();
  const std::vector<std::string> replies = log.snapshot();
  ASSERT_EQ(replies.size(), 3u);
  for (const std::string& r : replies)
    EXPECT_EQ(r.rfind("OK ", 0), 0u) << r;
  // SWAP to a structurally different hypergraph repartitions statically.
  const std::string bigger = ::testing::TempDir() + "/serve_struct_big.hgr";
  write_hmetis_file(graph_to_hypergraph(make_grid3d(5, 5, 5, false)), bigger);
  server.submit("SWAP g " + bigger);
  // SWAP to a same-size structure keeps the assignment, full epoch decides.
  server.submit("SWAP g " + bigger);
  server.drain();
  const std::vector<std::string> all = log.snapshot();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_NE(all[3].find("n=125"), std::string::npos) << all[3];
  EXPECT_NE(all[3].find("tier=static"), std::string::npos) << all[3];
  EXPECT_NE(all[4].find("tier=full"), std::string::npos) << all[4];
  server.shutdown();
}

// A same-size SWAP brings an unrelated structure: the old graph's cut is
// no baseline for it, so even --incremental=on answers from the full
// tier, whose cut then serves the next DELTA.
TEST(ServeServer, SameSizeSwapDropsTheDriftBaseline) {
  ReplyLog log;
  ServeConfig cfg = serial_cfg();
  cfg.incremental = IncrementalMode::kOn;
  Server server(cfg, log_into(log));
  server.submit("LOAD g " + grid_hgr_path("serve_swap_baseline") + " k=4");
  // A 64-vertex chain: the fast path repairs the grid's assignment to a
  // cut below the grid's, so a stale baseline would accept it.
  const std::string chain = ::testing::TempDir() + "/serve_swap_chain.hgr";
  write_hmetis_file(graph_to_hypergraph(make_grid3d(64, 1, 1, false)), chain);
  const std::uint64_t swap = server.submit("SWAP g " + chain);
  const std::uint64_t repart = server.submit("REPART g");
  server.drain();
  EXPECT_EQ(reply_tail(log, swap).rfind("graph=g ", 0), 0u)
      << reply_tail(log, swap);
  EXPECT_NE(reply_tail(log, swap).find(" tier=full "), std::string::npos)
      << reply_tail(log, swap);
  EXPECT_NE(reply_tail(log, repart).find(" tier=incremental "),
            std::string::npos)
      << reply_tail(log, repart);
  server.shutdown();
}

// A LOAD over a loaded graph releases its resident cache before reading
// the new file. When the file is missing the graph stays as it was: its
// next DELTA rebuilds the cache once and answers exactly as a twin graph
// that was never reloaded.
TEST(ServeServer, FailedReloadKeepsTheGraphAndRebuildsItsCache) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  ReplyLog log;
  Server server(serial_cfg(), log_into(log));
  const std::string path = grid_hgr_path("serve_reload");
  for (const std::string graph : {"g", "twin"}) {
    server.submit("LOAD " + graph + " " + path + " k=4");
    server.submit("DELTA " + graph + " 0:4");
    server.drain();
  }
  const std::uint64_t builds = reg.counter_value("incremental.cache_builds");
  ASSERT_EQ(builds, 2u);

  const std::uint64_t reload = server.submit(
      "LOAD g " + ::testing::TempDir() + "/serve_reload_missing.hgr k=4");
  const std::uint64_t delta = server.submit("DELTA g 40:5");
  server.drain();
  EXPECT_EQ(log.count_containing("ERR " + std::to_string(reload) + " "), 1u);
  EXPECT_EQ(reg.counter_value("incremental.cache_builds"), builds + 1);

  const std::uint64_t twin = server.submit("DELTA twin 40:5");
  server.drain();
  EXPECT_EQ(reg.counter_value("incremental.cache_builds"), builds + 1);
  const std::string got = reply_tail(log, delta);
  const std::string want = reply_tail(log, twin);
  ASSERT_EQ(got.rfind("graph=g ", 0), 0u) << got;
  ASSERT_EQ(want.rfind("graph=twin ", 0), 0u) << want;
  EXPECT_EQ(got.substr(std::string("graph=g").size()),
            want.substr(std::string("graph=twin").size()));
  server.shutdown();
}

TEST(ServeServer, IdleWorkerFlushesPendingStatsDump) {
  // The satellite-3 end-to-end check: SIGUSR1's request_stats_dump() used
  // to sit pending until the next phase close — which an idle daemon never
  // reaches. The serve worker's idle loop now services it.
  obs::set_stats_stream_enabled(false);
  obs::set_stats_stream_path("");
  obs::reset_stats_stream();
  const std::string dump = ::testing::TempDir() + "/serve_idle_dump.jsonl";
  std::remove(dump.c_str());
  obs::set_stats_stream_enabled(true);
  obs::set_stats_stream_path(dump);
  ReplyLog log;
  Server server(serial_cfg(), log_into(log));
  // The LOAD's partition phases push samples into the ring.
  server.submit("LOAD g " + grid_hgr_path("serve_dump") + " k=4");
  server.drain();
  obs::request_stats_dump();  // what the SIGUSR1 handler does
  // No further requests arrive: only the idle loop can flush this.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool flushed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!obs::stats_dump_pending() && std::ifstream(dump).good()) {
      flushed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.shutdown();
  obs::set_stats_stream_enabled(false);
  obs::set_stats_stream_path("");
  obs::reset_stats_stream();
  ASSERT_TRUE(flushed) << "idle worker never flushed the requested dump";
  std::ifstream in(dump);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("hgr-stats-v1"), std::string::npos);
}

}  // namespace
}  // namespace hgr::serve

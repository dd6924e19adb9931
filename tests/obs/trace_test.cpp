#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "mini_json.hpp"

namespace hgr {
namespace {

using testjson::JsonArray;
using testjson::JsonObject;
using testjson::JsonParser;
using testjson::JsonValue;
using testjson::as_array;
using testjson::as_number;
using testjson::as_object;
using testjson::as_string;

const JsonValue* find_child_phase(const JsonValue& phase,
                                  const std::string& name) {
  const JsonObject& obj = as_object(phase);
  const auto it = obj.find("children");
  if (it == obj.end()) return nullptr;
  for (const auto& child : as_array(*it->second))
    if (as_string(*as_object(*child).at("name")) == name) return child.get();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Counter basics
// ---------------------------------------------------------------------------

TEST(ObsCounters, CreateAndAccumulate) {
  obs::Registry reg;
  EXPECT_EQ(reg.counter_value("a.b"), 0u);
  reg.counter("a.b") += 3;
  reg.counter("a.b") += 4;
  EXPECT_EQ(reg.counter_value("a.b"), 7u);
  const auto all = reg.counters();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.at("a.b"), 7u);
}

TEST(ObsCounters, GlobalInjection) {
  obs::Registry reg;
  {
    obs::ScopedRegistry scope(reg);
    obs::counter("injected") += 5;
  }
  EXPECT_EQ(reg.counter_value("injected"), 5u);
  // After the scope exits, the same counter name routes elsewhere.
  obs::counter("injected") += 1;
  EXPECT_EQ(reg.counter_value("injected"), 5u);
}

TEST(ObsCounters, ThreadSafeIncrements) {
  obs::Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&reg] {
      for (int i = 0; i < 1000; ++i) reg.counter("contended") += 1;
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter_value("contended"), 4000u);
}

// ---------------------------------------------------------------------------
// Phase tree
// ---------------------------------------------------------------------------

TEST(ObsTrace, ScopesNestAndMerge) {
  obs::Registry reg;
  {
    obs::TraceScope outer("outer", &reg);
    {
      obs::TraceScope inner("inner", &reg);
    }
    {
      obs::TraceScope inner("inner", &reg);  // merges with the first
    }
    {
      obs::TraceScope other("other", &reg);
    }
  }
  {
    obs::TraceScope outer("outer", &reg);  // second call of the root phase
  }
  const obs::PhaseSnapshot tree = reg.phase_tree();
  ASSERT_EQ(tree.children.size(), 1u);
  const obs::PhaseSnapshot& outer = tree.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.calls, 2u);
  ASSERT_EQ(outer.children.size(), 2u);

  const obs::PhaseSnapshot* inner = obs::find_phase(tree, {"outer", "inner"});
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 2u);
  EXPECT_GE(inner->seconds, 0.0);
  const obs::PhaseSnapshot* other = obs::find_phase(tree, {"outer", "other"});
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->calls, 1u);
  EXPECT_EQ(obs::find_phase(tree, {"outer", "missing"}), nullptr);
  // Parent time includes child time.
  EXPECT_GE(outer.seconds, inner->seconds + other->seconds - 1e-9);
}

TEST(ObsTrace, PerThreadStacksMergeByName) {
  obs::Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t)
    threads.emplace_back([&reg] {
      obs::TraceScope scope("worker", &reg);
      obs::TraceScope inner("step", &reg);
    });
  for (auto& t : threads) t.join();
  const obs::PhaseSnapshot tree = reg.phase_tree();
  const obs::PhaseSnapshot* worker = obs::find_phase(tree, {"worker"});
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->calls, 3u);
  const obs::PhaseSnapshot* step = obs::find_phase(tree, {"worker", "step"});
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->calls, 3u);
}

TEST(ObsTrace, ResetClearsEverything) {
  obs::Registry reg;
  reg.counter("x") += 1;
  {
    obs::TraceScope scope("p", &reg);
  }
  reg.reset();
  EXPECT_EQ(reg.counter_value("x"), 0u);
  EXPECT_TRUE(reg.phase_tree().children.empty());
}

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

TEST(ObsTrace, JsonRoundTrip) {
  obs::Registry reg;
  {
    obs::TraceScope partition("partition", &reg);
    {
      obs::TraceScope coarsen("coarsen", &reg);
    }
    {
      obs::TraceScope refine("refine", &reg);
    }
  }
  reg.counter("refine.moves") += 42;
  reg.counter("comm.allgather.bytes") += 1024;
  reg.histogram("fm.move_gain").record(-3);
  reg.histogram("fm.move_gain").record(5);
  reg.gauge("epoch.current").set(7);

  const std::string json = obs::trace_to_json(reg);
  JsonParser parser(json);
  const auto doc = parser.parse();
  const JsonObject& root = as_object(*doc);

  EXPECT_EQ(as_string(*root.at("schema")), "hgr-trace-v2");

  const JsonArray& phases = as_array(*root.at("phases"));
  ASSERT_EQ(phases.size(), 1u);
  const JsonValue& partition = *phases[0];
  EXPECT_EQ(as_string(*as_object(partition).at("name")), "partition");
  EXPECT_EQ(as_number(*as_object(partition).at("calls")), 1.0);
  EXPECT_GE(as_number(*as_object(partition).at("seconds")), 0.0);
  EXPECT_NE(find_child_phase(partition, "coarsen"), nullptr);
  EXPECT_NE(find_child_phase(partition, "refine"), nullptr);
  EXPECT_EQ(find_child_phase(partition, "initial"), nullptr);

  const JsonObject& counters = as_object(*root.at("counters"));
  EXPECT_EQ(as_number(*counters.at("refine.moves")), 42.0);
  EXPECT_EQ(as_number(*counters.at("comm.allgather.bytes")), 1024.0);

  const JsonObject& hists = as_object(*root.at("histograms"));
  const JsonObject& gain = as_object(*hists.at("fm.move_gain"));
  EXPECT_EQ(as_number(*gain.at("count")), 2.0);
  EXPECT_EQ(as_number(*gain.at("sum")), 2.0);
  EXPECT_EQ(as_number(*gain.at("min")), -3.0);
  EXPECT_EQ(as_number(*gain.at("max")), 5.0);
  EXPECT_GE(as_number(*gain.at("p99")), as_number(*gain.at("p50")));

  const JsonObject& gauges = as_object(*root.at("gauges"));
  EXPECT_EQ(as_number(*gauges.at("epoch.current")), 7.0);
}

TEST(ObsTrace, JsonEscapesSpecialCharacters) {
  obs::Registry reg;
  reg.counter("weird\"name\\with\nstuff") += 1;
  const std::string json = obs::trace_to_json(reg);
  JsonParser parser(json);
  const auto doc = parser.parse();
  const JsonObject& counters = as_object(*as_object(*doc).at("counters"));
  EXPECT_EQ(as_number(*counters.at("weird\"name\\with\nstuff")), 1.0);
}

TEST(ObsTrace, EmptyRegistrySerializes) {
  obs::Registry reg;
  const std::string json = obs::trace_to_json(reg);
  JsonParser parser(json);
  const auto doc = parser.parse();
  EXPECT_TRUE(as_array(*as_object(*doc).at("phases")).empty());
  EXPECT_TRUE(as_object(*as_object(*doc).at("counters")).empty());
}

TEST(ObsTrace, WriteTraceJsonFile) {
  obs::Registry reg;
  reg.counter("k") += 9;
  const std::string path = ::testing::TempDir() + "/trace_test_out.json";
  ASSERT_TRUE(obs::write_trace_json(path, reg));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  JsonParser parser(content);
  const auto doc = parser.parse();
  EXPECT_EQ(
      as_number(*as_object(*as_object(*doc).at("counters")).at("k")), 9.0);
  EXPECT_FALSE(obs::write_trace_json("/nonexistent-dir/x/y.json", reg));
}

// ---------------------------------------------------------------------------
// Per-call max/min seconds
// ---------------------------------------------------------------------------

TEST(ObsTrace, MaxMinSecondsPerMergedScope) {
  obs::Registry reg;
  {
    obs::TraceScope scope("work", &reg);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  {
    obs::TraceScope scope("work", &reg);  // much shorter second call
  }
  const obs::PhaseSnapshot tree = reg.phase_tree();  // find_phase points into it
  const obs::PhaseSnapshot* work = obs::find_phase(tree, {"work"});
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->calls, 2u);
  EXPECT_GE(work->max_seconds, 0.015);
  EXPECT_LT(work->min_seconds, work->max_seconds);
  EXPECT_GE(work->min_seconds, 0.0);
  // seconds is the sum of both calls, so it brackets max alone.
  EXPECT_GE(work->seconds, work->max_seconds);
  EXPECT_LE(work->max_seconds + work->min_seconds, work->seconds + 1e-9);
}

TEST(ObsTrace, JsonCarriesMaxMinSeconds) {
  obs::Registry reg;
  {
    obs::TraceScope scope("p", &reg);
  }
  const std::string json = obs::trace_to_json(reg);
  JsonParser parser(json);
  const auto doc = parser.parse();
  const JsonObject& phase =
      as_object(*as_array(*as_object(*doc).at("phases"))[0]);
  ASSERT_TRUE(phase.count("max_seconds"));
  ASSERT_TRUE(phase.count("min_seconds"));
  // One call: max == min == seconds.
  EXPECT_DOUBLE_EQ(as_number(*phase.at("max_seconds")),
                   as_number(*phase.at("min_seconds")));
}

// ---------------------------------------------------------------------------
// CachedCounter
// ---------------------------------------------------------------------------

TEST(ObsCachedCounter, BumpsResolveToCurrentRegistry) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  obs::CachedCounter c("cached.basic");
  c += 3;
  c += 4;
  EXPECT_EQ(reg.counter_value("cached.basic"), 7u);
}

TEST(ObsCachedCounter, SurvivesRegistrySwap) {
  obs::CachedCounter c("cached.swap");
  obs::Registry first;
  {
    obs::ScopedRegistry scope(first);
    c += 2;
  }
  obs::Registry second;
  {
    obs::ScopedRegistry scope(second);
    // The handle cached `first`'s cell; the id mismatch must re-resolve.
    c += 5;
  }
  EXPECT_EQ(first.counter_value("cached.swap"), 2u);
  EXPECT_EQ(second.counter_value("cached.swap"), 5u);
  {
    // Swapping back to an earlier registry re-resolves again.
    obs::ScopedRegistry scope(first);
    c += 1;
  }
  EXPECT_EQ(first.counter_value("cached.swap"), 3u);
  EXPECT_EQ(second.counter_value("cached.swap"), 5u);
}

TEST(ObsCachedCounter, ConcurrentBumpsLandExactly) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  obs::CachedCounter c("cached.contended");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c += 1;
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter_value("cached.contended"), 4000u);
}

// ---------------------------------------------------------------------------
// Attached sections
// ---------------------------------------------------------------------------

TEST(ObsTrace, SectionsAppearAsTopLevelKeys) {
  obs::Registry reg;
  reg.set_section("comm", "{\"num_ranks\":3}");
  reg.set_section("comm", "{\"num_ranks\":4}");  // overwrite wins
  reg.set_section("extra", "[1,2]");
  const std::string json = obs::trace_to_json(reg);
  JsonParser parser(json);
  const auto doc = parser.parse();
  const JsonObject& root = as_object(*doc);
  ASSERT_TRUE(root.count("comm"));
  EXPECT_EQ(as_number(*as_object(*root.at("comm")).at("num_ranks")), 4.0);
  ASSERT_TRUE(root.count("extra"));
  EXPECT_EQ(as_array(*root.at("extra")).size(), 2u);
  reg.reset();
  EXPECT_TRUE(reg.sections().empty());
}

}  // namespace
}  // namespace hgr

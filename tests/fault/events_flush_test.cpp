// Regression: exporting the per-rank event timeline on an exception or
// degradation path must yield a well-formed Chrome trace. A mid-run export
// (the catch-block or SIGUSR1 dump) sees begin events whose scopes are
// still open; chrome_trace_json must synthesize the matching end events
// ("flushedSpans") instead of emitting an unbalanced timeline, and the
// degradation path must leave its instant markers in the capture.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/repartitioner.hpp"
#include "fault/fault_plan.hpp"
#include "hypergraph/convert.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "workload/generators.hpp"

namespace hgr {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(Chaos, DegradedRunKeepsMidRunTimelineExportBalanced) {
  obs::reset_events();
  obs::set_event_ring_capacity(4096);
  obs::set_events_enabled(true);

  const Hypergraph h = graph_to_hypergraph(make_grid3d(5, 5, 5, false));
  Partition old_p(4, h.num_vertices());
  for (Index v = 0; v < h.num_vertices(); ++v)
    old_p[VertexId{v}] = PartId{v % 4};
  RepartitionerConfig cfg;
  cfg.alpha = 10;
  cfg.partition.num_parts = 4;
  cfg.partition.epsilon = 0.1;
  cfg.partition.seed = 7;
  cfg.num_ranks = 2;
  cfg.deadlock_timeout = 0.25;
  cfg.max_retries = 1;
  cfg.partition.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::parse("throw@any:count=0"));

  std::string json;
  {
    // Deliberately export while this span is still open, exactly like a
    // crash-path dump taken before the stack unwinds.
    obs::TraceScope outer("chaos.run");
    const GuardedRepartitionResult guarded = run_repartition_with_policy(
        RepartAlgorithm::kHypergraphRepart, h, Graph{}, old_p, cfg);
    EXPECT_TRUE(guarded.degraded);
    json = obs::chrome_trace_json();
  }
  obs::set_events_enabled(false);
  obs::reset_events();

  // The degradation path left its markers on the timeline.
  EXPECT_NE(json.find("epoch.repart_failure"), std::string::npos);
  EXPECT_NE(json.find("epoch.degraded"), std::string::npos);
  // Every begin has an end — the open span was closed synthetically.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
  const std::size_t flushed = json.find("\"flushedSpans\":");
  ASSERT_NE(flushed, std::string::npos);
  EXPECT_NE(json.find("\"flushedSpans\":0", flushed), flushed)
      << "the open chaos.run span must be counted as flushed";
}

}  // namespace
}  // namespace hgr

// Golden bytes of every obs exporter: the trace JSON (phases, counters,
// histograms, gauges, attached sections), one stats-stream line, the comm
// telemetry section, the critical-path section and the Chrome timeline.
// The registry is driven by hand with fixed phase seconds, so the output is
// fully deterministic; the only masked fields are process-history values
// (span ids, which are process-unique) and capture timestamps.
//
// These strings pin the wire format. A serializer refactor must reproduce
// them exactly; an intended format change is a new schema, not an edit here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/critical_path.hpp"
#include "obs/events.hpp"
#include "obs/stats_stream.hpp"
#include "obs/trace.hpp"
#include "parallel/comm_telemetry.hpp"

namespace hgr {
namespace {

// Replace the number after every `"key":` with '#'.
std::string mask_numbers(std::string json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at)) {
    at += needle.size();
    std::size_t end = at;
    while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
    json.replace(at, end - at, "#");
  }
  return json;
}

CommTelemetry three_rank_telemetry() {
  CommTelemetry t;
  t.resize(3);
  t.runs = 1;
  t.run_seconds = 2.0;
  t.ranks[0].bytes_sent = 1;
  t.ranks[1].bytes_sent = 2;
  t.ranks[2].bytes_sent = 4;
  t.ranks[0].bytes_recv = 6;
  t.ranks[1].messages_sent = 3;
  t.ranks[2].messages_recv = 5;
  t.ranks[0].barrier_wait_seconds = 0.5;
  t.ranks[1].barrier_wait_seconds = 0.1;
  t.ranks[2].barrier_wait_seconds = 1.0 / 3.0;
  t.ranks[2].collective_calls[0] = 2;
  t.ranks[2].collective_calls[4] = UINT64_MAX;
  t.p2p_bytes_at(0, 1) = 1;
  t.p2p_bytes_at(2, 0) = 4;
  t.p2p_messages[1 * 3 + 2] = 3;
  return t;
}

TEST(ObsExport, GoldenBytes) {
  // --- trace_to_json: escaped names, merged phases, extreme counters,
  // an empty and a populated histogram, a negative gauge, sections.
  obs::Registry reg;
  reg.begin_phase("partition");
  reg.begin_phase("co\"ar\nsen\t");
  reg.end_phase(0.1);
  reg.end_phase(0.25);
  reg.begin_phase("partition");
  reg.end_phase(0.2);
  reg.begin_phase("refine");
  reg.end_phase(1.0 / 3.0);
  reg.counter("a.b") += 3;
  reg.counter("max") += UINT64_MAX;
  reg.counter("q\"u\\o\nte") += 1;
  reg.histogram("empty");
  for (const std::int64_t v : {1, 5, 100, -7, 3})
    reg.histogram("lat").record(v);
  reg.gauge("neg").set(-42);
  reg.gauge("pos").set(7);
  reg.set_section("comm", three_rank_telemetry().to_json());
  reg.set_section("extra", "[1,2]");
  EXPECT_EQ(obs::trace_to_json(reg),
            "{\"schema\":\"hgr-trace-v2\",\"phases\":[{\"name\":\"partition"
            "\",\"seconds\":0.45,\"calls\":2,\"max_seconds\":0.25,\"min_sec"
            "onds\":0.2,\"children\":[{\"name\":\"co\\\"ar\\nsen\\t\",\"sec"
            "onds\":0.1,\"calls\":1,\"max_seconds\":0.1,\"min_seconds\":0.1"
            "}]},{\"name\":\"refine\",\"seconds\":0.333333333,\"calls\":1,"
            "\"max_seconds\":0.333333333,\"min_seconds\":0.333333333}],\"co"
            "unters\":{\"a.b\":3,\"max\":18446744073709551615,\"q\\\"u\\\\o"
            "\\nte\":1},\"histograms\":{\"empty\":{\"count\":0,\"sum\":0,\""
            "min\":0,\"max\":0,\"mean\":0,\"p50\":0,\"p95\":0,\"p99\":0},\""
            "lat\":{\"count\":5,\"sum\":102,\"min\":-7,\"max\":100,\"mean\""
            ":20.4,\"p50\":2,\"p95\":95,\"p99\":95}},\"gauges\":{\"neg\":-4"
            "2,\"pos\":7},\"comm\":{\"num_ranks\":3,\"runs\":1,\"run_second"
            "s\":2,\"send_byte_imbalance\":1.71429,\"max_wait_fraction\":0."
            "25,\"ranks\":[{\"rank\":0,\"bytes_sent\":1,\"bytes_recv\":6,\""
            "messages_sent\":0,\"messages_recv\":0,\"barrier_wait_seconds\""
            ":0.5,\"wait_fraction\":0.25,\"collectives\":{\"barrier\":0,\"a"
            "llgather\":0,\"allreduce\":0,\"bcast\":0,\"alltoallv\":0}},{\""
            "rank\":1,\"bytes_sent\":2,\"bytes_recv\":0,\"messages_sent\":3"
            ",\"messages_recv\":0,\"barrier_wait_seconds\":0.1,\"wait_fract"
            "ion\":0.05,\"collectives\":{\"barrier\":0,\"allgather\":0,\"al"
            "lreduce\":0,\"bcast\":0,\"alltoallv\":0}},{\"rank\":2,\"bytes_"
            "sent\":4,\"bytes_recv\":0,\"messages_sent\":0,\"messages_recv"
            "\":5,\"barrier_wait_seconds\":0.333333333,\"wait_fraction\":0."
            "166667,\"collectives\":{\"barrier\":2,\"allgather\":0,\"allred"
            "uce\":0,\"bcast\":0,\"alltoallv\":18446744073709551615}}],\"p2"
            "p_bytes\":[[0,1,0],[0,0,0],[4,0,0]],\"p2p_messages\":[[0,0,0],"
            "[0,0,3],[0,0,0]]},\"extra\":[1,2]}");

  // --- one stats-stream line.
  obs::StatsSnapshot snap;
  snap.seq = 12;
  snap.ts_ns = 987654321;
  snap.phase = "re\tpart\"ition";
  snap.seconds = 0.1 + 0.2;
  snap.counters = {{"big", UINT64_MAX}, {"n\\m", 0}};
  snap.gauges = {{"depth", -3}, {"zero", 0}};
  EXPECT_EQ(snap.to_json(),
            "{\"schema\":\"hgr-stats-v1\",\"seq\":12,\"ts_ns\":987654321,\""
            "phase\":\"re\\tpart\\\"ition\",\"seconds\":0.3,\"counters\":{"
            "\"big\":18446744073709551615,\"n\\\\m\":0},\"gauges\":{\"depth"
            "\":-3,\"zero\":0}}");
  EXPECT_EQ(obs::StatsSnapshot{}.to_json(),
            "{\"schema\":\"hgr-stats-v1\",\"seq\":0,\"ts_ns\":0,\"phase\":"
            "\"\",\"seconds\":0,\"counters\":{},\"gauges\":{}}");

  // --- comm telemetry: 3 ranks and an empty communicator.
  EXPECT_EQ(three_rank_telemetry().to_json(),
            "{\"num_ranks\":3,\"runs\":1,\"run_seconds\":2,\"send_byte_imba"
            "lance\":1.71429,\"max_wait_fraction\":0.25,\"ranks\":[{\"rank"
            "\":0,\"bytes_sent\":1,\"bytes_recv\":6,\"messages_sent\":0,\"m"
            "essages_recv\":0,\"barrier_wait_seconds\":0.5,\"wait_fraction"
            "\":0.25,\"collectives\":{\"barrier\":0,\"allgather\":0,\"allre"
            "duce\":0,\"bcast\":0,\"alltoallv\":0}},{\"rank\":1,\"bytes_sen"
            "t\":2,\"bytes_recv\":0,\"messages_sent\":3,\"messages_recv\":0"
            ",\"barrier_wait_seconds\":0.1,\"wait_fraction\":0.05,\"collect"
            "ives\":{\"barrier\":0,\"allgather\":0,\"allreduce\":0,\"bcast"
            "\":0,\"alltoallv\":0}},{\"rank\":2,\"bytes_sent\":4,\"bytes_re"
            "cv\":0,\"messages_sent\":0,\"messages_recv\":5,\"barrier_wait_"
            "seconds\":0.333333333,\"wait_fraction\":0.166667,\"collectives"
            "\":{\"barrier\":2,\"allgather\":0,\"allreduce\":0,\"bcast\":0,"
            "\"alltoallv\":18446744073709551615}}],\"p2p_bytes\":[[0,1,0],["
            "0,0,0],[4,0,0]],\"p2p_messages\":[[0,0,0],[0,0,3],[0,0,0]]}");
  EXPECT_EQ(CommTelemetry{}.to_json(),
            "{\"num_ranks\":0,\"runs\":0,\"run_seconds\":0,\"send_byte_imba"
            "lance\":0,\"max_wait_fraction\":0,\"ranks\":[],\"p2p_bytes\":["
            "],\"p2p_messages\":[]}");

  // --- critical path: one ended span over two ranks, one open span.
  {
    obs::Registry cp_reg;
    obs::ScopedRegistry scope(cp_reg);
    obs::reset_critical_path();
    obs::set_current_epoch(4);
    const std::uint64_t span = obs::begin_epoch_span();
    obs::record_rank_phase(span, 1, "coarsen", 0.75, 0.25);
    obs::record_rank_phase(span, 0, "in\"it\nial", 0.5, 0.0);
    obs::record_rank_phase(span, 1, "refine", 1.0 / 3.0, 0.1);
    obs::end_epoch_span(span);
    obs::begin_epoch_span();  // never ended: not exported
    EXPECT_EQ(mask_numbers(obs::critical_path_to_json(), "span_id"),
              "{\"spans\":[{\"span_id\":#,\"epoch\":4,\"critical_rank\":1,\"c"
              "ritical_phase\":\"coarsen\",\"critical_seconds\":1.08333333,\""
              "wait_frac\":0.323077,\"ranks\":[{\"rank\":0,\"phases\":[{\"nam"
              "e\":\"in\\\"it\\nial\",\"seconds\":0.5,\"wait_seconds\":0}]},{"
              "\"rank\":1,\"phases\":[{\"name\":\"coarsen\",\"seconds\":0.75,"
              "\"wait_seconds\":0.25},{\"name\":\"refine\",\"seconds\":0.3333"
              "33333,\"wait_seconds\":0.1}]}]}]}");
    obs::reset_critical_path();
    obs::set_current_epoch(-1);
    EXPECT_EQ(obs::critical_path_to_json(), "{\"spans\":[]}");
  }

  // --- Chrome timeline: two rank tracks, an instant with a payload, and a
  // span left open at export (synthesized end).
  obs::set_events_enabled(false);
  obs::reset_events();
  obs::set_event_ring_capacity(4096);
  obs::set_events_enabled(true);
  obs::set_thread_rank(0);
  obs::emit_begin("partition");
  obs::emit_instant("send", "comm", 512);
  obs::emit_end("partition");
  obs::set_thread_rank(1);
  obs::emit_begin("refine");
  obs::emit_begin("alltoallv", "comm");
  obs::emit_end("alltoallv", "comm");
  obs::emit_instant("tick");
  const std::string chrome = obs::chrome_trace_json();
  obs::set_events_enabled(false);
  obs::reset_events();
  obs::set_thread_rank(-1);
  EXPECT_EQ(mask_numbers(chrome, "ts"),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"ph\":\"M\",\"p"
            "id\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
            "\"hgr\"}},{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_"
            "name\",\"args\":{\"name\":\"rank 0\"}},{\"ph\":\"M\",\"pid\":0"
            ",\"tid\":0,\"name\":\"thread_sort_index\",\"args\":{\"sort_ind"
            "ex\":0}},{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_n"
            "ame\",\"args\":{\"name\":\"rank 1\"}},{\"ph\":\"M\",\"pid\":0,"
            "\"tid\":1,\"name\":\"thread_sort_index\",\"args\":{\"sort_inde"
            "x\":1}},{\"name\":\"partition\",\"cat\":\"phase\",\"ph\":\"B\""
            ",\"pid\":0,\"tid\":0,\"ts\":#},{\"name\":\"send\",\"cat\":\"co"
            "mm\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":#,\"s\":\"t\",\"a"
            "rgs\":{\"bytes\":512}},{\"name\":\"partition\",\"cat\":\"phase"
            "\",\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":#},{\"name\":\"refi"
            "ne\",\"cat\":\"phase\",\"ph\":\"B\",\"pid\":0,\"tid\":1,\"ts\""
            ":#},{\"name\":\"alltoallv\",\"cat\":\"comm\",\"ph\":\"B\",\"pi"
            "d\":0,\"tid\":1,\"ts\":#},{\"name\":\"alltoallv\",\"cat\":\"co"
            "mm\",\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":#},{\"name\":\"ti"
            "ck\",\"cat\":\"phase\",\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\""
            ":#,\"s\":\"t\"},{\"name\":\"refine\",\"cat\":\"phase\",\"ph\":"
            "\"E\",\"pid\":0,\"tid\":1,\"ts\":#}],\"otherData\":{\"droppedE"
            "vents\":0,\"flushedSpans\":1}}");
}

}  // namespace
}  // namespace hgr

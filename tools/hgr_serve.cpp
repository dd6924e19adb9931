// hgr_serve — the resident repartitioning service (docs/SERVING.md).
//
//   hgr_serve [--k=4] [--alpha=100] [--eps=0.05] [--seed=1] [--threads=N]
//             [--ranks=P] [--queue-capacity=64] [--epoch-retries=N]
//             [--epoch-backoff=S] [--epoch-timeout=S]
//             [--fallback=keep-old|scratch] [--incremental=on|off|auto]
//             [--validate=off|cheap|paranoid] [--fault-plan=SPEC]
//             [--trace-json=FILE] [--stats-stream=FILE]
//
// Reads one request per line from stdin (LOAD / DELTA / ADD / REMOVE /
// SWAP / REPART — see src/serve/request.hpp) and writes one reply per
// request to stdout. Works equally over a FIFO or a socket wrapper
// (`nc -lU` / socat), keeping the daemon itself transport-free.
//
// Two daemon-level commands sidestep the queue:
//   STATS   reply immediately with queue depth, serve.* counter values and
//           the O(delta) tier's incremental.attempts / cache_builds
//   QUIT    drain the queue, reply "BYE", exit cleanly
// EOF on stdin behaves like QUIT. SIGUSR1 requests a stats-stream dump;
// an idle daemon flushes it from the serve idle loop (the fix this PR
// ships) rather than waiting for the next phase close.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "check/check_level.hpp"
#include "fault/fault_plan.hpp"
#include "obs/stats_stream.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace hgr {
namespace {

struct ServeOptions {
  serve::ServeConfig server;
  std::string trace_json_path;
  std::string stats_stream_path;
  std::string fault_plan_spec;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "hgr_serve: %s\n", why);
  std::fprintf(
      stderr,
      "usage: hgr_serve [--k=N] [--alpha=A] [--eps=F] [--seed=S]\n"
      "                 [--threads=N] [--ranks=P] [--queue-capacity=N]\n"
      "                 [--epoch-retries=N] [--epoch-backoff=S]\n"
      "                 [--epoch-timeout=S] [--fallback=keep-old|scratch]\n"
      "                 [--incremental=on|off|auto]\n"
      "                 [--validate=off|cheap|paranoid] [--fault-plan=SPEC]\n"
      "                 [--trace-json=FILE] [--stats-stream=FILE]\n");
  std::exit(2);
}

ServeOptions parse(int argc, char** argv) {
  ServeOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--k") {
      opt.server.default_k = static_cast<Index>(std::stol(value));
      if (opt.server.default_k < 2) usage("--k must be >= 2");
    } else if (key == "--alpha") {
      opt.server.default_alpha = static_cast<Weight>(std::stoll(value));
    } else if (key == "--eps") {
      opt.server.default_epsilon = std::stod(value);
    } else if (key == "--seed") {
      opt.server.seed = std::stoull(value);
    } else if (key == "--threads") {
      opt.server.num_threads = static_cast<Index>(std::stol(value));
      if (opt.server.num_threads < 1) usage("--threads must be >= 1");
    } else if (key == "--ranks") {
      opt.server.num_ranks = static_cast<int>(std::stol(value));
    } else if (key == "--queue-capacity") {
      opt.server.queue_capacity =
          static_cast<std::size_t>(std::stoul(value));
    } else if (key == "--epoch-retries") {
      opt.server.max_retries = static_cast<int>(std::stol(value));
    } else if (key == "--epoch-backoff") {
      opt.server.retry_backoff_seconds = std::stod(value);
    } else if (key == "--epoch-timeout") {
      opt.server.epoch_time_budget = std::stod(value);
    } else if (key == "--fallback") {
      if (value == "keep-old")
        opt.server.fallback = EpochFallback::kKeepOld;
      else if (value == "scratch")
        opt.server.fallback = EpochFallback::kScratch;
      else
        usage("bad --fallback (expected keep-old|scratch)");
    } else if (key == "--incremental") {
      if (value == "on")
        opt.server.incremental = IncrementalMode::kOn;
      else if (value == "off")
        opt.server.incremental = IncrementalMode::kOff;
      else if (value == "auto")
        opt.server.incremental = IncrementalMode::kAuto;
      else
        usage("bad --incremental mode (expected on|off|auto)");
    } else if (key == "--validate") {
      if (!check::parse_check_level(value, opt.server.check_level))
        usage("bad --validate level (expected off|cheap|paranoid)");
    } else if (key == "--fault-plan") {
      opt.fault_plan_spec = value;
    } else if (key == "--trace-json") {
      opt.trace_json_path = value;
    } else if (key == "--stats-stream") {
      opt.stats_stream_path = value;
    } else {
      usage(("unknown flag: " + arg).c_str());
    }
  }
  return opt;
}

std::string stats_line(const serve::Server& server) {
  const obs::Registry& reg = obs::global_registry();
  std::string out = "STATS queued=" + std::to_string(server.queue_depth()) +
                    " replied=" + std::to_string(server.replied());
  for (const char* name :
       {"serve.requests", "serve.batches", "serve.coalesced", "serve.shed",
        "serve.errors", "serve.degraded", "incremental.attempts",
        "incremental.cache_builds"}) {
    out += ' ';
    out += name;
    out += '=';
    out += std::to_string(reg.counter_value(name));
  }
  return out;
}

int run(const ServeOptions& opt) {
  serve::ServeConfig cfg = opt.server;
  if (!opt.fault_plan_spec.empty()) {
    try {
      cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
          fault::FaultPlan::parse(opt.fault_plan_spec));
    } catch (const std::exception& e) {
      usage(e.what());
    }
  }
  serve::Server server(cfg, [](const std::string& reply) {
    std::printf("%s\n", reply.c_str());
    std::fflush(stdout);
  });
  std::fprintf(stderr, "hgr_serve ready (k=%d, queue=%zu)\n",
               cfg.default_k, cfg.queue_capacity);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "QUIT") break;
    if (line == "STATS") {
      std::printf("%s\n", stats_line(server).c_str());
      std::fflush(stdout);
      continue;
    }
    server.submit(line);
  }
  server.shutdown();
  std::printf("BYE\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace hgr

int main(int argc, char** argv) {
  const hgr::ServeOptions opt = hgr::parse(argc, argv);
  if (!opt.stats_stream_path.empty()) {
    hgr::obs::set_stats_stream_enabled(true);
    hgr::obs::set_stats_stream_path(opt.stats_stream_path);
#ifdef SIGUSR1
    // `kill -USR1 <pid>` flushes the stats ring: at the next phase close
    // while busy, or from the serve idle loop while idle.
    std::signal(SIGUSR1, [](int) { hgr::obs::request_stats_dump(); });
#endif
  }
  const int rc = hgr::run(opt);
  // Exit paths flush everything a client might still want: any pending
  // triggered dump, the final ring contents, and the trace.
  if (!opt.stats_stream_path.empty()) {
    hgr::obs::set_stats_stream_enabled(false);  // flushes pending dumps
    hgr::obs::write_stats_stream(opt.stats_stream_path);
  }
  if (!opt.trace_json_path.empty()) {
    if (!hgr::obs::write_trace_json(opt.trace_json_path))
      std::fprintf(stderr, "failed to write trace to %s\n",
                   opt.trace_json_path.c_str());
  }
  return rc;
}

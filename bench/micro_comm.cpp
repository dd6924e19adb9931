// Microbenchmark of the in-process comm runtime's collectives.
//
// Measures ns/call of alltoallv, allgather, and allreduce at p in {2,4,8}
// with small (64 B per destination slice) and large (64 KiB per slice)
// payloads. This is the latency tax every IPM coarsening round and
// refinement pass-pair pays (paper Section 4); the flat-buffer comm core
// exists to shrink it, and this binary is the proof.
//
// --json=FILE emits one hgr-bench-v1 document whose metrics are flat
// "<collective>_<size>_p<ranks>_ns_per_call" numbers so
// tools/bench_report.py tracks them in BENCH_partition.json alongside the
// end-to-end partition timings. Other flags: --iters-small= --iters-large=
// --seed= (payload fill only; timings do not depend on it).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/timer.hpp"
#include "parallel/comm.hpp"

namespace {

using namespace hgr;

struct CommBenchOptions {
  std::string json_path;
  int iters_small = 3000;
  int iters_large = 300;
  int warmup = 50;
};

constexpr std::size_t kSmallWords = 8;     // 64 B of int64 per slice
constexpr std::size_t kLargeWords = 8192;  // 64 KiB of int64 per slice

/// Run `op(ctx)` iters times on every rank of a p-rank communicator and
/// return the wall nanoseconds per call measured by rank 0 between two
/// barriers (all ranks execute the same loop, so the measurement is the
/// per-call latency of the congruent collective).
template <typename Op>
double time_collective(int ranks, int warmup, int iters, Op&& op) {
  Comm comm(ranks);
  double seconds = 0.0;
  comm.run([&](RankContext& ctx) {
    for (int i = 0; i < warmup; ++i) op(ctx);
    ctx.barrier();
    WallTimer timer;
    for (int i = 0; i < iters; ++i) op(ctx);
    ctx.barrier();
    if (ctx.rank() == 0) seconds = timer.seconds();
  });
  return seconds * 1e9 / iters;
}

/// Primary metric: the flat count/commit/fill API every migrated caller
/// uses (FlatBuffer built from the rank's pool each call, so steady-state
/// pool recycling is part of what is measured).
double bench_alltoallv(int ranks, std::size_t words, int warmup, int iters) {
  return time_collective(ranks, warmup, iters, [words](RankContext& ctx) {
    FlatBuffer<std::int64_t> outgoing = ctx.make_buffer<std::int64_t>();
    for (int d = 0; d < ctx.size(); ++d) outgoing.count(d) = words;
    outgoing.commit_counts();
    for (int d = 0; d < ctx.size(); ++d) {
      const std::int64_t value = static_cast<std::int64_t>(ctx.rank()) * 100 + d;
      for (std::int64_t& out : outgoing.push_n(d, words)) out = value;
    }
    const FlatBuffer<std::int64_t> incoming = ctx.alltoallv(outgoing);
    if (incoming.total() != words * static_cast<std::size_t>(ctx.size()))
      throw std::runtime_error("alltoallv shape mismatch");
  });
}

double bench_allgather(int ranks, std::size_t words, int warmup, int iters) {
  return time_collective(ranks, warmup, iters, [words](RankContext& ctx) {
    const std::vector<std::int64_t> mine(
        words, static_cast<std::int64_t>(ctx.rank()));
    const FlatBuffer<std::int64_t> all =
        ctx.allgatherv<std::int64_t>({mine.data(), mine.size()});
    if (all.slots() != ctx.size())
      throw std::runtime_error("allgather shape mismatch");
  });
}

double bench_allreduce(int ranks, int warmup, int iters) {
  return time_collective(ranks, warmup, iters, [](RankContext& ctx) {
    const std::int64_t sum =
        ctx.allreduce_sum<std::int64_t>(ctx.rank() + 1);
    const std::int64_t expect =
        static_cast<std::int64_t>(ctx.size()) * (ctx.size() + 1) / 2;
    if (sum != expect) throw std::runtime_error("allreduce value mismatch");
  });
}

int run(const CommBenchOptions& opt) {
  std::string metrics = "{";
  bool first = true;
  const auto add = [&metrics, &first](const std::string& name, double ns) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6g", first ? "" : ",",
                  name.c_str(), ns);
    metrics += buf;
    first = false;
    std::fprintf(stderr, "  %-32s %12.1f ns/call\n", name.c_str(), ns);
  };

  for (const int p : {2, 4, 8}) {
    const std::string suffix = "_p" + std::to_string(p) + "_ns_per_call";
    add("alltoallv_small" + suffix,
        bench_alltoallv(p, kSmallWords, opt.warmup, opt.iters_small));
    add("alltoallv_large" + suffix,
        bench_alltoallv(p, kLargeWords, opt.warmup, opt.iters_large));
    add("allgather_small" + suffix,
        bench_allgather(p, kSmallWords, opt.warmup, opt.iters_small));
    add("allgather_large" + suffix,
        bench_allgather(p, kLargeWords, opt.warmup, opt.iters_large));
    add("allreduce" + suffix, bench_allreduce(p, opt.warmup, opt.iters_small));
  }
  metrics += "}";

  if (opt.json_path.empty()) return 0;
  bench::BenchJson doc("micro_comm");
  doc.add_string("dataset", "collectives");
  char config[160];
  std::snprintf(config, sizeof(config),
                "{\"iters_small\":%d,\"iters_large\":%d,\"warmup\":%d,"
                "\"small_words\":%zu,\"large_words\":%zu}",
                opt.iters_small, opt.iters_large, opt.warmup, kSmallWords,
                kLargeWords);
  doc.add_raw("config", config);
  doc.add_raw("metrics", metrics);
  if (!doc.write(opt.json_path)) {
    std::fprintf(stderr, "error: could not write %s\n", opt.json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote bench json to %s\n", opt.json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CommBenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--json") {
      opt.json_path = value;
    } else if (key == "--iters-small") {
      opt.iters_small = std::stoi(value);
    } else if (key == "--iters-large") {
      opt.iters_large = std::stoi(value);
    } else if (key == "--warmup") {
      opt.warmup = std::stoi(value);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  return run(opt);
}

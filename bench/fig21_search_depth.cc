// Figure 21: impact of the search-depth hyperparameter (§8.7).
//
//   (a) per-job scheduling overhead grows with depth (paper: 0.88s -> 5.98s;
//       absolute numbers differ on this substrate -- the simulator evaluates
//       cached analytical estimates instead of RPC-ing a real cluster -- but
//       the growth shape is the claim);
//   (b/c) deeper search lowers average JCT (paper: -14.6%) and nudges average
//       throughput up (paper: +1.03%).
//
// Following the paper, job-submission density is increased to stress the
// scheduler ("extremely heavy workloads").

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  Cluster cluster = MakePhysicalTestbed();
  PerformanceOracle oracle(cluster, 42);

  TraceConfig config = PhillySixHourConfig();
  config.name = "philly-6h-dense";
  config.seed = 7201;
  config.num_jobs = 360;
  config.load = 2.2;  // extremely heavy
  const auto trace = GenerateTrace(cluster, oracle, config);
  std::printf("Search-depth trace: %zu jobs, offered load %.1fx capacity\n", trace.size(),
              config.load);

  Table table("Fig. 21 Search-depth sweep");
  table.SetHeader({"depth", "sched time/call (ms)", "sched calls", "avg JCT", "JCT vs depth 0",
                   "avg thr", "thr vs depth 0"});

  double jct0 = 0.0;
  double thr0 = 0.0;
  for (int depth : {0, 1, 2, 3, 5, 8}) {
    CriusConfig cc;
    cc.search_depth = depth;
    CriusScheduler crius(&oracle, cc);
    TimedScheduler timed(&crius);
    Simulator sim(cluster, SimConfig{});
    const SimResult r = sim.Run(timed, oracle, trace);
    if (depth == 0) {
      jct0 = r.avg_jct;
      thr0 = r.avg_throughput;
    }
    table.AddRow({Table::FmtInt(depth),
                  Table::Fmt(timed.total_seconds() / std::max(1, timed.calls()) * 1e3, 3),
                  Table::FmtInt(timed.calls()), Minutes(r.avg_jct),
                  depth == 0 ? "-" : Table::FmtPercent(r.avg_jct / jct0 - 1.0),
                  Table::Fmt(r.avg_throughput, 2),
                  depth == 0 ? "-" : Table::FmtPercent(r.avg_throughput / thr0 - 1.0)});
  }
  table.Print();
  std::printf("\nExpected shape: overhead grows with depth; JCT improves (paper -14.6%% at the\n"
              "deepest setting) and throughput improves slightly (paper +1.03%%).\n");
  return 0;
}

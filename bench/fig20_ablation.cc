// Figure 20: ablation of Crius's two resource-scaling dimensions (§8.6).
//
//   Crius-NA -- adaptivity scaling disabled (GPU counts pinned to the request)
//   Crius-NH -- heterogeneity scaling disabled (GPU types pinned)
//
// Paper: Crius-NA suffers 2.54x higher avg JCT, -8.69% finished jobs, -13.6%
// avg / -14.1% peak throughput; Crius-NH is worse still (3.53x JCT, 83.2%
// completion, -17.3% / -17.7% throughput) because the simulated cluster has
// four GPU types -- heterogeneity matters more than adaptivity there.

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  Cluster cluster = MakeSimulatedCluster();
  PerformanceOracle oracle(cluster, 42);

  TraceConfig config = PhillyWeekHeavyConfig();
  config.num_jobs = 1500;  // 4-day slice keeps the three runs brisk
  config.duration = 4.0 * kDay;
  const auto trace = GenerateTrace(cluster, oracle, config);
  std::printf("Ablation trace: %zu jobs on %d GPUs\n", trace.size(), cluster.TotalGpus());

  std::vector<std::unique_ptr<Scheduler>> scheds;
  scheds.push_back(std::make_unique<CriusScheduler>(&oracle, CriusConfig{}));
  scheds.push_back(
      std::make_unique<CriusScheduler>(&oracle, CriusConfig{.adaptivity_scaling = false}));
  scheds.push_back(
      std::make_unique<CriusScheduler>(&oracle, CriusConfig{.heterogeneity_scaling = false}));

  std::vector<SimResult> results;
  for (auto& sched : scheds) {
    Simulator sim(cluster, SimConfig{});
    results.push_back(sim.Run(*sched, oracle, trace));
    std::printf("  %-10s done\n", results.back().scheduler.c_str());
    std::fflush(stdout);
  }
  const SimResult& full = results.front();

  Table table("Fig. 20 Ablation: adaptivity vs heterogeneity scaling");
  table.SetHeader({"variant", "avg JCT", "JCT vs Crius", "finished", "finish share",
                   "avg thr", "thr delta", "peak thr", "peak delta"});
  for (const SimResult& r : results) {
    table.AddRow({r.scheduler, Hours(r.avg_jct), Ratio(r.avg_jct, full.avg_jct),
                  Table::FmtInt(r.finished_jobs),
                  Table::FmtPercent(static_cast<double>(r.finished_jobs) /
                                    std::max(1, full.finished_jobs)),
                  Table::Fmt(r.avg_throughput, 0),
                  Table::FmtPercent(r.avg_throughput / full.avg_throughput - 1.0),
                  Table::Fmt(r.peak_throughput, 0),
                  Table::FmtPercent(r.peak_throughput / full.peak_throughput - 1.0)});
  }
  table.Print();

  std::printf("\nExpected shape: both ablations hurt. On this 4-type cluster disabling\n"
              "heterogeneity scaling (Crius-NH) costs more JCT than disabling adaptivity\n"
              "scaling (Crius-NA) -- the same reason Gavel is the strongest baseline here\n"
              "but not on the 2-type physical testbed. (On throughput the substitution's\n"
              "over-requested jobs make NA the bigger loss; see EXPERIMENTS.md.)\n");
  return 0;
}

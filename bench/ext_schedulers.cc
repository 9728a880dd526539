// Extension: the full scheduler zoo, including policies beyond the paper's
// comparison set -- Tiresias (least-attained-service, cited as [17]) and
// Crius-Fair (the max-min objective variant) -- on both evaluation clusters.

#include <cstdio>

#include "bench/bench_util.h"

namespace crius {
namespace {

void RunZoo(const char* label, Cluster cluster, const TraceConfig& config) {
  PerformanceOracle oracle(cluster, 42);
  const auto trace = GenerateTrace(cluster, oracle, config);
  std::printf("\n%s: %zu jobs on %d GPUs\n", label, trace.size(), cluster.TotalGpus());

  std::vector<std::unique_ptr<Scheduler>> scheds = MakeAllSchedulers(&oracle);
  scheds.insert(scheds.begin() + 2, std::make_unique<TiresiasScheduler>(&oracle));
  scheds.push_back(std::make_unique<CriusScheduler>(
      &oracle, CriusConfig{.objective = CriusObjective::kMaxMinFairness}));

  Table table(std::string("Extended scheduler comparison -- ") + label);
  table.SetHeader({"scheduler", "avg JCT", "median JCT", "avg queue", "avg thr",
                   "gpu util", "p99 slowdown", "fairness"});
  for (auto& sched : scheds) {
    Simulator sim(cluster, SimConfig{});
    const SimResult r = sim.Run(*sched, oracle, trace);
    table.AddRow({r.scheduler, Minutes(r.avg_jct), Minutes(r.median_jct),
                  Minutes(r.avg_queue_time), Table::Fmt(r.avg_throughput, 1),
                  Table::FmtPercent(r.avg_gpu_utilization), Table::Fmt(r.p99_slowdown, 1),
                  Table::Fmt(r.fairness_index, 3)});
  }
  table.Print();
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  RunZoo("64-GPU physical testbed", MakePhysicalTestbed(), PhillySixHourConfig());
  TraceConfig helios = HeliosModerateConfig();
  helios.num_jobs = 450;
  RunZoo("1,280-GPU simulated cluster", MakeSimulatedCluster(), helios);
  return 0;
}

// Figure 19: deadline-aware scheduling (§8.5).
//
// Crius-DDL gives strict per-job deadline guarantees (early-dropping hopeless
// jobs) while optimizing cluster performance; compared against ElasticFlow's
// primary deadline policy. Paper: 1.69x deadline satisfactory ratio, -33.1%
// JCT, 1.72x average / 1.96x peak throughput.

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  Cluster cluster = MakeSimulatedCluster();
  PerformanceOracle oracle(cluster, 42);

  TraceConfig config = HeliosModerateConfig();
  config.name = "helios-deadline";
  config.seed = 7105;
  config.load = 1.1;  // deadline pressure requires contention
  config.deadline_fraction = 1.0;
  config.deadline_slack_min = 1.3;
  config.deadline_slack_max = 5.0;
  const auto trace = GenerateTrace(cluster, oracle, config);
  std::printf("Deadline trace: %zu jobs, every job carries a deadline\n", trace.size());

  std::vector<std::unique_ptr<Scheduler>> scheds;
  scheds.push_back(
      std::make_unique<ElasticFlowScheduler>(&oracle, ElasticFlowConfig{.loose_deadlines = false}));
  scheds.push_back(
      std::make_unique<ElasticFlowScheduler>(&oracle, ElasticFlowConfig{.loose_deadlines = true}));
  scheds.push_back(std::make_unique<CriusScheduler>(&oracle, CriusConfig{.deadline_aware = true}));

  std::vector<SimResult> results;
  for (auto& sched : scheds) {
    Simulator sim(cluster, SimConfig{});
    results.push_back(sim.Run(*sched, oracle, trace));
  }
  const SimResult& crius = results.back();
  const SimResult& ef = results.front();

  Table table("Fig. 19 Deadline-aware comparison");
  table.SetHeader({"scheduler", "deadline ratio", "dropped", "avg JCT", "avg thr", "peak thr"});
  for (const SimResult& r : results) {
    table.AddRow({r.scheduler, Table::FmtPercent(r.deadline_ratio),
                  Table::FmtInt(r.dropped_jobs), Hours(r.avg_jct),
                  Table::Fmt(r.avg_throughput, 0), Table::Fmt(r.peak_throughput, 0)});
  }
  table.Print();

  std::printf("\nCrius-DDL vs ElasticFlow: deadline ratio %.2fx (paper 1.69x), "
              "JCT %+.1f%% (paper -33.1%%), avg thr %.2fx (paper 1.72x), peak thr %.2fx"
              " (paper 1.96x)\n",
              crius.deadline_ratio / std::max(1e-9, ef.deadline_ratio),
              (crius.avg_jct / ef.avg_jct - 1.0) * 100.0,
              crius.avg_throughput / ef.avg_throughput,
              crius.peak_throughput / ef.peak_throughput);
  return 0;
}

// Figure 14: performance on the 64-GPU physical testbed (16x2 A40 + 16x2 A10)
// with the 244-job / 6-hour Philly-like trace.
//
//   (a) average JCT          (paper: Crius up to -48.9%)
//   (b) average queuing time (paper: up to -71.0%)
//   (c) cluster throughput   (paper: up to 1.49x avg / 1.36x peak)
//
// The "physical" runs carry execution jitter (real-testbed variance); the
// §8.3 fidelity paragraph is reproduced by re-running the identical
// configuration without jitter and reporting the relative error (paper:
// 3.16% on throughput, 7.31% on JCT).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  Cluster cluster = MakePhysicalTestbed();
  PerformanceOracle oracle(cluster, 42);
  const auto trace = GenerateTrace(cluster, oracle, PhillySixHourConfig());
  std::printf("Trace: %zu jobs over 6 hours on %d GPUs\n", trace.size(), cluster.TotalGpus());

  SimConfig physical;
  physical.execution_jitter = 0.06;
  SimConfig simulation;  // jitter-free

  Table table("Fig. 14 Physical-testbed comparison (244-job Philly trace)");
  table.SetHeader({"scheduler", "avg JCT", "p95 JCT", "p99 JCT", "vs Crius", "avg queue",
                   "p99 queue", "vs Crius", "avg thr", "peak thr", "finished", "restarts"});

  struct Row {
    SimResult physical;
    SimResult simulated;
  };
  std::vector<Row> rows;
  auto schedulers = MakeAllSchedulers(&oracle);
  for (auto& sched : schedulers) {
    Simulator sim_phys(cluster, physical);
    Simulator sim_pure(cluster, simulation);
    Row row;
    row.physical = sim_phys.Run(*sched, oracle, trace);
    row.simulated = sim_pure.Run(*sched, oracle, trace);
    rows.push_back(std::move(row));
  }
  const SimResult& crius = rows.back().physical;
  for (const Row& row : rows) {
    const SimResult& r = row.physical;
    table.AddRow({r.scheduler, Minutes(r.avg_jct), Minutes(r.p95_jct), Minutes(r.p99_jct),
                  Ratio(r.avg_jct, crius.avg_jct), Minutes(r.avg_queue_time),
                  Minutes(r.p99_queue_time), Ratio(r.avg_queue_time, crius.avg_queue_time),
                  Table::Fmt(r.avg_throughput, 1), Table::Fmt(r.peak_throughput, 1),
                  Table::FmtInt(r.finished_jobs), Table::Fmt(r.avg_restarts, 2)});
  }
  table.Print();

  // Headline reductions vs the strongest / weakest baselines.
  double worst_jct = 0.0;
  double worst_queue = 0.0;
  double worst_thr = 1e30;
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    worst_jct = std::max(worst_jct, rows[i].physical.avg_jct);
    worst_queue = std::max(worst_queue, rows[i].physical.avg_queue_time);
    worst_thr = std::min(worst_thr, rows[i].physical.avg_throughput);
  }
  std::printf("\nCrius vs baselines: JCT up to -%.1f%% (paper -48.9%%), queue up to -%.1f%%"
              " (paper -71.0%%), avg throughput up to %.2fx (paper 1.49x)\n",
              (1.0 - crius.avg_jct / worst_jct) * 100.0,
              (1.0 - crius.avg_queue_time / worst_queue) * 100.0,
              crius.avg_throughput / worst_thr);

  // §8.3 fidelity: simulation vs "physical".
  std::vector<double> thr_err;
  std::vector<double> jct_err;
  for (const Row& row : rows) {
    thr_err.push_back(std::abs(row.simulated.avg_throughput - row.physical.avg_throughput) /
                      row.physical.avg_throughput);
    jct_err.push_back(std::abs(row.simulated.avg_jct - row.physical.avg_jct) /
                      row.physical.avg_jct);
  }
  std::printf("Simulation fidelity: avg throughput error %.2f%% (paper 3.16%%), "
              "avg JCT error %.2f%% (paper 7.31%%)\n",
              Mean(thr_err) * 100.0, Mean(jct_err) * 100.0);
  return 0;
}

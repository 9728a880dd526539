// Extension ablation: does estimation accuracy actually buy scheduling
// quality?
//
// The paper's central thesis (§2.3) is that efficient scheduling requires
// *accurate* low-overhead performance data -- inaccurate estimates lead to
// inefficient scheduling. This experiment tests that causal link directly on
// our substrate: the estimator's two noise sources (single-device compute
// measurement scatter and offline communication-profile scatter) are swept
// from clean to badly degraded, and for each level we report
//   (a) the resulting Cell-estimation accuracy (Fig. 12a's metric), and
//   (b) Crius's end-to-end scheduling quality on the testbed trace.
// Crius's advantage should erode as its estimates blur toward the baselines'
// ignorance.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  // The 4-type simulated cluster: mis-ranked GPU types / sizes actually
  // cost something here, unlike on the near-homogeneous 2-type testbed.
  Cluster cluster = MakeSimulatedCluster();

  Table table("Ablation: estimator noise vs scheduling quality");
  table.SetHeader({"noise level", "compute/comm jitter", "estimation accuracy", "avg JCT",
                   "avg queue", "avg thr"});

  const struct {
    const char* label;
    double compute;
    double comm;
  } levels[] = {
      {"clean", 0.0, 0.0},          {"default", 0.05, 0.04},   {"noisy", 0.15, 0.12},
      {"very noisy", 0.30, 0.25},   {"garbage", 0.60, 0.50},
  };

  for (const auto& level : levels) {
    OracleConfig oc;
    oc.compute_jitter = level.compute;
    oc.comm_jitter = level.comm;
    PerformanceOracle oracle(cluster, 42, oc);

    // (a) Estimation accuracy over a fixed probe set, one batched estimator
    // call per (spec, type) probe row.
    std::vector<double> accuracies;
    CellBatchResult batch;
    for (const ModelSpec spec :
         {ModelSpec{ModelFamily::kBert, 1.3, 128}, ModelSpec{ModelFamily::kBert, 2.6, 128},
          ModelSpec{ModelFamily::kWideResNet, 2.0, 256}, ModelSpec{ModelFamily::kMoe, 2.4, 256}}) {
      for (GpuType type : {GpuType::kA100, GpuType::kA40, GpuType::kV100}) {
        const std::vector<Cell> cells = {Cell{type, 8, 1}, Cell{type, 8, 2}, Cell{type, 8, 4}};
        oracle.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &batch);
        for (size_t ci = 0; ci < cells.size(); ++ci) {
          const CellEstimate& est = *batch.estimates[ci];
          if (!est.feasible) {
            continue;
          }
          const JobContext& ctx = oracle.ContextFor(spec, type);
          const PlanEval measured = oracle.perf_model().Evaluate(ctx, est.plan);
          accuracies.push_back(1.0 - std::abs(est.iter_time - measured.iter_time) /
                                         measured.iter_time);
        }
      }
    }

    // (b) End-to-end scheduling quality on the standard testbed trace.
    TraceConfig tc = HeliosModerateConfig();
    tc.load = 1.0;
    const auto trace = GenerateTrace(cluster, oracle, tc);
    CriusScheduler crius(&oracle, CriusConfig{});
    Simulator sim(cluster, SimConfig{});
    const SimResult r = sim.Run(crius, oracle, trace);

    table.AddRow({level.label,
                  Table::FmtPercent(level.compute, 0) + "/" + Table::FmtPercent(level.comm, 0),
                  Table::FmtPercent(Mean(accuracies)), Minutes(r.avg_jct),
                  Minutes(r.avg_queue_time), Table::Fmt(r.avg_throughput, 2)});
  }
  table.Print();

  std::printf("\nExpected shape: estimation accuracy decays with the injected noise and\n"
              "Crius's JCT / queuing / throughput degrade with it -- the §2.3 claim that\n"
              "inaccurate performance data produces inefficient scheduling.\n");
  return 0;
}

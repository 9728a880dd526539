// Figure 12: accuracy and GPU-time reduction of the agile Cell estimator.
//
//   (a) estimation accuracy = 1 - |T_e - T_d| / T_d, where T_e is the Cell
//       estimate and T_d is direct measurement of the same generated plan
//       (paper: 93.4% average, 90.5% worst);
//   (b) GPU-time reduction of single-device distributed profiling vs directly
//       profiling the job on its allocated GPUs (paper: 18.1x average, 2.55x
//       minimum).
//
// Following the paper, the model size grows with the GPU count.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/oracle.h"
#include "src/util/stats.h"

namespace crius {
namespace {

struct Config {
  ModelSpec spec;
  int ngpus;
};

const Config kConfigs[] = {
    {{ModelFamily::kWideResNet, 1.0, 256}, 4},  {{ModelFamily::kBert, 1.3, 128}, 4},
    {{ModelFamily::kMoe, 1.3, 256}, 4},         {{ModelFamily::kWideResNet, 2.0, 256}, 8},
    {{ModelFamily::kBert, 2.6, 128}, 8},        {{ModelFamily::kMoe, 2.4, 256}, 8},
    {{ModelFamily::kWideResNet, 4.0, 256}, 16}, {{ModelFamily::kBert, 6.7, 128}, 16},
    {{ModelFamily::kMoe, 10.0, 256}, 16},
};

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  Cluster cluster = MakeSimulatedCluster();
  PerformanceOracle oracle(cluster, 42);

  Table table("Fig. 12 Cell estimation: accuracy and GPU-time reduction");
  table.SetHeader({"config", "gpu type", "cell", "estimated (s)", "measured (s)", "accuracy",
                   "direct gpu-time", "estimator gpu-time", "reduction"});

  std::vector<double> accuracies;
  std::vector<double> reductions;
  std::vector<double> per_cell_seconds;

  CellBatchResult batch;
  for (const auto& config : kConfigs) {
    for (GpuType type : {GpuType::kA100, GpuType::kA40, GpuType::kV100}) {
      // One batched estimator call per (config, type) sweep row.
      const std::vector<Cell> cells = {Cell{type, config.ngpus, 1},
                                       Cell{type, config.ngpus, 2},
                                       Cell{type, config.ngpus, 4}};
      oracle.EstimateCellBatch(CellBatchRequest{&config.spec, cells.data(), cells.size()},
                               &batch);
      for (size_t ci = 0; ci < cells.size(); ++ci) {
        const Cell& cell = cells[ci];
        const int nstages = cell.nstages;
        const CellEstimate& est = *batch.estimates[ci];
        if (!est.feasible) {
          continue;
        }
        const JobContext& ctx = oracle.ContextFor(config.spec, type);
        const PlanEval measured = oracle.perf_model().Evaluate(ctx, est.plan);
        const double acc =
            1.0 - std::abs(est.iter_time - measured.iter_time) / measured.iter_time;
        const double direct = oracle.perf_model().DirectProfileGpuSeconds(ctx, est.plan);
        const double reduction = direct / est.profile_gpu_seconds;
        accuracies.push_back(acc);
        reductions.push_back(reduction);
        per_cell_seconds.push_back(est.profile_gpu_seconds);
        if (nstages == 2) {  // one representative row per (config, type)
          table.AddRow({config.spec.Name() + " x" + std::to_string(config.ngpus),
                        GpuName(type), cell.ToString(), Table::Fmt(est.iter_time, 3),
                        Table::Fmt(measured.iter_time, 3), Table::FmtPercent(acc),
                        Table::Fmt(direct, 0) + "s", Table::Fmt(est.profile_gpu_seconds, 0) + "s",
                        Table::FmtFactor(reduction)});
        }
      }
    }
  }
  table.Print();

  Table summary("Fig. 12 summary (paper: accuracy 93.4% avg / 90.5% worst; reduction 18.1x avg / 2.55x min)");
  summary.SetHeader({"metric", "average", "worst"});
  summary.AddRow({"estimation accuracy", Table::FmtPercent(Mean(accuracies)),
                  Table::FmtPercent(Min(accuracies))});
  summary.AddRow({"GPU-time reduction", Table::FmtFactor(Mean(reductions)),
                  Table::FmtFactor(Min(reductions))});
  summary.Print();

  // §8.2 profiling-budget claims.
  std::printf("\nPer-Cell single-GPU profiling time: avg %.0fs, max %.0fs (paper: ~1 minute)\n",
              Mean(per_cell_seconds), Max(per_cell_seconds));
  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kMoe, 10.0, 256};
  job.requested_gpus = 16;
  job.requested_type = GpuType::kA100;
  CriusScheduler crius(&oracle, CriusConfig{});
  std::printf("Whole-job Cell-initialization profiling delay: %.0fs (paper bound: 30 min)\n",
              crius.ProfilingDelay(job, cluster));
  std::printf("Offline communication-profiling sweep: %.1f GPU-hours (amortized once)\n",
              oracle.comm_profile().offline_gpu_seconds() / 3600.0);
  return 0;
}

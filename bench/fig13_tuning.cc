// Figure 13: Cell-guided parallelism tuning.
//
//   (a) tuning accuracy = 1 - (T_c - T_o)/T_o where T_c is the iteration time
//       of the plan found by Cell-guided (pruned) tuning and T_o is the
//       full-space optimum (paper: 96.2% average);
//   (b) tuning-time reduction: GPU time of the unpruned in-Cell search over
//       the pruned one (paper: 5.48x average, 10.88x maximum).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/oracle.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  Cluster cluster = MakeSimulatedCluster();
  PerformanceOracle oracle(cluster, 42);
  const Explorer& explorer = oracle.explorer();
  CellTuner tuner(&explorer);

  struct Config {
    ModelSpec spec;
    int ngpus;
  };
  const Config configs[] = {
      {{ModelFamily::kWideResNet, 1.0, 256}, 4},  {{ModelFamily::kBert, 1.3, 128}, 4},
      {{ModelFamily::kMoe, 1.3, 256}, 4},         {{ModelFamily::kWideResNet, 2.0, 256}, 8},
      {{ModelFamily::kBert, 2.6, 128}, 8},        {{ModelFamily::kMoe, 2.4, 256}, 8},
      {{ModelFamily::kWideResNet, 4.0, 256}, 16}, {{ModelFamily::kBert, 6.7, 128}, 16},
      {{ModelFamily::kMoe, 10.0, 256}, 16},
  };

  Table table("Fig. 13 Cell-guided tuning: accuracy and time reduction");
  table.SetHeader({"config", "gpu type", "cell", "tuned (s)", "optimal (s)", "accuracy",
                   "unpruned gpu-time", "pruned gpu-time", "reduction"});

  std::vector<double> accuracies;
  std::vector<double> reductions;

  CellBatchResult batch;
  for (const auto& config : configs) {
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
        const TuneResult tuned = tuner.Tune(ctx, cell, est);
        const TuneResult full = tuner.TuneUnpruned(ctx, cell);
        if (!tuned.best.has_value() || !full.best.has_value()) {
          continue;
        }
        const double acc =
            1.0 - (tuned.best->iter_time - full.best->iter_time) / full.best->iter_time;
        const double reduction =
            full.tune_gpu_seconds / std::max(1.0, tuned.tune_gpu_seconds);
        accuracies.push_back(acc);
        reductions.push_back(reduction);
        if (nstages == 2) {
          table.AddRow({config.spec.Name() + " x" + std::to_string(config.ngpus),
                        GpuName(type), cell.ToString(), Table::Fmt(tuned.best->iter_time, 3),
                        Table::Fmt(full.best->iter_time, 3), Table::FmtPercent(acc),
                        Table::Fmt(full.tune_gpu_seconds, 0) + "s",
                        Table::Fmt(tuned.tune_gpu_seconds, 0) + "s",
                        Table::FmtFactor(reduction)});
        }
      }
    }
  }
  table.Print();

  Table summary("Fig. 13 summary (paper: accuracy 96.2% avg; reduction 5.48x avg / 10.88x max)");
  summary.SetHeader({"metric", "average", "extreme"});
  summary.AddRow({"tuning accuracy", Table::FmtPercent(Mean(accuracies)),
                  Table::FmtPercent(Min(accuracies)) + " (worst)"});
  summary.AddRow({"tuning-time reduction", Table::FmtFactor(Mean(reductions)),
                  Table::FmtFactor(Max(reductions)) + " (max)"});
  summary.Print();
  return 0;
}

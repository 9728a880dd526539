// Figure 4: how the optimal parallelism plan and throughput change with
// (a) GPU number, (b) GPU type, and (c) GPU topology.
//
// The paper's observations to reproduce:
//   (a) MoE-1.3B scales up nearly linearly while others approach the
//       performance ceiling;
//   (b/c) BERT and MoE models swing hardest across type/topology because
//       their optimal plans change (memory walls force tensor parallelism,
//       PCIe punishes it).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/oracle.h"

namespace crius {
namespace {

const ModelSpec kModels[] = {
    {ModelFamily::kWideResNet, 1.0, 256},
    {ModelFamily::kBert, 1.3, 128},
    {ModelFamily::kBert, 2.6, 128},
    {ModelFamily::kMoe, 1.3, 256},
    {ModelFamily::kMoe, 2.4, 256},
};

std::string PlanCell(PerformanceOracle& oracle, const ModelSpec& spec, GpuType type, int n) {
  const auto& best = oracle.BestAdaptive(spec, type, n);
  if (!best.has_value()) {
    return "OOM";
  }
  const double thr = spec.global_batch / best->iter_time;
  return Table::Fmt(thr, 1) + " [" + best->plan.ShortForm() + "]";
}

void GpuNumberSweep(PerformanceOracle& oracle) {
  Table table("Fig. 4(a) Optimal plan / throughput vs GPU number (A100)");
  table.SetHeader({"model", "n=1", "n=2", "n=4", "n=8", "n=16", "speedup 1->16"});
  for (const ModelSpec& spec : kModels) {
    std::vector<std::string> row = {spec.Name()};
    double thr1 = 0.0;
    double thr16 = 0.0;
    for (int n : {1, 2, 4, 8, 16}) {
      row.push_back(PlanCell(oracle, spec, GpuType::kA100, n));
      const auto& best = oracle.BestAdaptive(spec, GpuType::kA100, n);
      if (best.has_value()) {
        const double thr = spec.global_batch / best->iter_time;
        if (n == 1) {
          thr1 = thr;
        }
        if (n == 16) {
          thr16 = thr;
        }
      }
    }
    row.push_back(thr1 > 0.0 ? Ratio(thr16, thr1) : "-");
    table.AddRow(row);
  }
  table.Print();
}

void GpuTypeSweep(PerformanceOracle& oracle) {
  Table table("Fig. 4(b) Optimal plan / throughput vs GPU type (4 GPUs)");
  table.SetHeader({"model", "A100", "A40", "A10", "V100", "max/min"});
  for (const ModelSpec& spec : kModels) {
    std::vector<std::string> row = {spec.Name()};
    double lo = 1e30;
    double hi = 0.0;
    for (GpuType type : AllGpuTypes()) {
      row.push_back(PlanCell(oracle, spec, type, 4));
      const auto& best = oracle.BestAdaptive(spec, type, 4);
      if (best.has_value()) {
        const double thr = spec.global_batch / best->iter_time;
        lo = std::min(lo, thr);
        hi = std::max(hi, thr);
      }
    }
    row.push_back(lo < 1e30 ? Ratio(hi, lo) : "-");
    table.AddRow(row);
  }
  table.Print();
}

void TopologySweep() {
  // Same 8 A100 GPUs, three topologies: 8-per-node (all NVLink), 4-per-node
  // (NVLink inside, InfiniBand across) and 1-per-node (everything crosses the
  // network).
  Table table("Fig. 4(c) Optimal plan / throughput vs GPU topology (8x A100)");
  table.SetHeader({"model", "8/node (NVLink)", "4/node", "1/node (network)", "max/min"});

  std::vector<std::unique_ptr<PerformanceOracle>> oracles;
  for (int per_node : {8, 4, 1}) {
    Cluster cluster;
    cluster.AddNodes(GpuType::kA100, 16 / per_node, per_node);
    oracles.push_back(std::make_unique<PerformanceOracle>(cluster, 42));
  }
  for (const ModelSpec& spec : kModels) {
    std::vector<std::string> row = {spec.Name()};
    double lo = 1e30;
    double hi = 0.0;
    for (auto& oracle : oracles) {
      row.push_back(PlanCell(*oracle, spec, GpuType::kA100, 8));
      const auto& best = oracle->BestAdaptive(spec, GpuType::kA100, 8);
      if (best.has_value()) {
        const double thr = spec.global_batch / best->iter_time;
        lo = std::min(lo, thr);
        hi = std::max(hi, thr);
      }
    }
    row.push_back(lo < 1e30 ? Ratio(hi, lo) : "-");
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\nExpected shapes: MoE-1.3B scales near-linearly in (a); BERT/MoE have the\n"
      "largest variance in (b)/(c) because their optimal plans change.\n");
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  crius::RequireNoArgs(argc, argv);
  crius::Cluster cluster = crius::MakeSimulatedCluster();
  crius::PerformanceOracle oracle(cluster, 42);
  crius::GpuNumberSweep(oracle);
  crius::GpuTypeSweep(oracle);
  crius::TopologySweep();
  return 0;
}

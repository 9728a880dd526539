// Figure 3: throughput of different scheduling choices with adaptive
// parallelism.
//
//   (a) Homogeneous scaling -- four queuing jobs (WRes-2B, MoE-2.4B,
//       BERT-1.3B, MoE-1.3B) share 8 A100 GPUs; allocation plans like
//       (4,2,2,0) trade jobs against each other. The cluster throughput
//       varies significantly across schemes because equal resources buy very
//       unequal throughput (WRes-2B claims a lot, contributes little).
//   (b) Heterogeneous exchange -- two models on 4xA100 + 4xV100; swapping who
//       gets which hardware changes total throughput sharply because
//       BERT-2.6B collapses to tensor parallelism on the 32-GiB V100s.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/oracle.h"

namespace crius {
namespace {

struct JobSlot {
  ModelSpec spec;
  const char* label;
};

void RunScalingStudy(PerformanceOracle& oracle) {
  const JobSlot jobs[4] = {
      {{ModelFamily::kWideResNet, 2.0, 256}, "WRes-2B"},
      {{ModelFamily::kMoe, 2.4, 256}, "MoE-2.4B"},
      {{ModelFamily::kBert, 1.3, 128}, "BERT-1.3B"},
      {{ModelFamily::kMoe, 1.3, 256}, "MoE-1.3B"},
  };
  // Allocation schemes over 8 A100 GPUs, (g0, g1, g2, g3); 0 = queued.
  const int schemes[5][4] = {
      {8, 0, 0, 0}, {4, 4, 0, 0}, {4, 2, 2, 0}, {2, 2, 2, 2}, {0, 4, 2, 2},
  };

  Table table("Fig. 3(a) Scaling homogeneous resources (8x A100)");
  table.SetHeader({"scheme", "WRes-2B", "MoE-2.4B", "BERT-1.3B", "MoE-1.3B",
                   "total thr (samples/s)"});
  for (const auto& scheme : schemes) {
    std::vector<std::string> row;
    std::string name = "(";
    for (int j = 0; j < 4; ++j) {
      name += std::to_string(scheme[j]);
      name += j < 3 ? "," : ")";
    }
    row.push_back(name);
    double total = 0.0;
    for (int j = 0; j < 4; ++j) {
      if (scheme[j] == 0) {
        row.push_back("queued");
        continue;
      }
      const auto& best = oracle.BestAdaptive(jobs[j].spec, GpuType::kA100, scheme[j]);
      if (!best.has_value()) {
        row.push_back("OOM");
        continue;
      }
      const double thr = jobs[j].spec.global_batch / best->iter_time;
      total += thr;
      row.push_back(Table::Fmt(thr, 1) + " (" + best->plan.ShortForm() + ")");
    }
    row.push_back(Table::Fmt(total, 1));
    table.AddRow(row);
  }
  table.Print();
}

void RunExchangeStudy(PerformanceOracle& oracle) {
  const ModelSpec wres{ModelFamily::kWideResNet, 2.0, 256};
  const ModelSpec bert{ModelFamily::kBert, 2.6, 128};

  Table table("Fig. 3(b) Exchanging heterogeneous resources (4x A100 + 4x V100)");
  table.SetHeader({"scheme", "WRes-2B", "BERT-2.6B", "total thr", "vs other"});

  auto eval = [&](const ModelSpec& spec, GpuType type) {
    const auto& best = oracle.BestAdaptive(spec, type, 4);
    struct R {
      double thr;
      std::string text;
    };
    if (!best.has_value()) {
      return R{0.0, "OOM"};
    }
    const double thr = spec.global_batch / best->iter_time;
    return R{thr, Table::Fmt(thr, 1) + " on " + GpuName(type) + " (" +
                      best->plan.ShortForm() + ")"};
  };

  const auto a_wres = eval(wres, GpuType::kV100);
  const auto a_bert = eval(bert, GpuType::kA100);
  const auto b_wres = eval(wres, GpuType::kA100);
  const auto b_bert = eval(bert, GpuType::kV100);
  const double total_a = a_wres.thr + a_bert.thr;
  const double total_b = b_wres.thr + b_bert.thr;
  table.AddRow({"A: WRes->V100, BERT->A100", a_wres.text, a_bert.text,
                Table::Fmt(total_a, 1), Ratio(total_a, total_b)});
  table.AddRow({"B: WRes->A100, BERT->V100", b_wres.text, b_bert.text,
                Table::Fmt(total_b, 1), Ratio(total_b, total_a)});
  table.Print();

  const double gap = (std::max(total_a, total_b) / std::min(total_a, total_b) - 1.0) * 100.0;
  std::printf("\nThroughput gap between schemes: %.1f%% (paper: 61.9%%)\n", gap);
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  crius::RequireNoArgs(argc, argv);
  // 2 NVLink A100 nodes (8 GPUs, for the scaling study) + 1 V100 node (for
  // the exchange study).
  crius::Cluster cluster;
  cluster.AddNodes(crius::GpuType::kA100, 2, 4);
  cluster.AddNodes(crius::GpuType::kV100, 1, 4);
  crius::PerformanceOracle oracle(cluster, 42);
  crius::RunScalingStudy(oracle);
  crius::RunExchangeStudy(oracle);
  return 0;
}

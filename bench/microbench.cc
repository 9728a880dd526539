// Component microbenchmarks (google-benchmark): how expensive the building
// blocks are on this substrate. These back the §8.7 overhead discussion --
// Cell estimation and scheduling must stay cheap enough to run every round.
// The numbers are for reading, not gating: perfbench/ measures timings
// end to end.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/oracle.h"
#include "src/parallel/explorer.h"
#include "src/sched/crius_sched.h"
#include "src/sim/trace.h"

namespace crius {
namespace {

const ModelSpec kBert13{ModelFamily::kBert, 1.3, 128};
const ModelSpec kMoe10{ModelFamily::kMoe, 10.0, 256};

void BM_StagePartition(benchmark::State& state) {
  const OpGraph& g = GetOpGraph(kMoe10);
  const int nstages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionStages(g, 64, nstages));
  }
}
BENCHMARK(BM_StagePartition)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_PlanEvaluate(benchmark::State& state) {
  static Cluster cluster = MakeSimulatedCluster();
  static PerfModel model(cluster);
  const JobContext ctx = model.MakeContext(kBert13, GpuType::kA100);
  ParallelPlan plan;
  plan.gpu_type = GpuType::kA100;
  const auto ranges = PartitionStages(*ctx.graph, 8, 4);
  for (const StageRange& r : ranges) {
    plan.stages.push_back(StagePlan{r.op_begin, r.op_end, r.gpus, r.gpus, 1});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Evaluate(ctx, plan));
  }
}
BENCHMARK(BM_PlanEvaluate);

void BM_FullExplore(benchmark::State& state) {
  static Cluster cluster = MakeSimulatedCluster();
  static PerfModel model(cluster);
  static Explorer explorer(&model);
  const JobContext ctx = model.MakeContext(kBert13, GpuType::kA40);
  const int ngpus = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.FullExplore(ctx, ngpus));
  }
}
BENCHMARK(BM_FullExplore)->Arg(4)->Arg(16)->Arg(64);

void BM_CellEstimate(benchmark::State& state) {
  static Cluster cluster = MakeSimulatedCluster();
  static PerfModel model(cluster);
  static CommProfile comm(cluster, 42);
  static CellEstimator estimator(&model, &comm, 42);
  const JobContext ctx = model.MakeContext(kMoe10, GpuType::kA100);
  const Cell cell{GpuType::kA100, 16, static_cast<int>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(ctx, cell));
  }
}
BENCHMARK(BM_CellEstimate)->Arg(1)->Arg(4)->Arg(16);

void BM_CriusScheduleRound(benchmark::State& state) {
  static Cluster cluster = MakeSimulatedCluster();
  static PerformanceOracle oracle(cluster, 42);
  const int num_jobs = static_cast<int>(state.range(0));

  std::vector<JobState> states(static_cast<size_t>(num_jobs));
  std::vector<const JobState*> views;
  for (int i = 0; i < num_jobs; ++i) {
    JobState& js = states[static_cast<size_t>(i)];
    js.job.id = i;
    js.job.spec = (i % 2 == 0) ? kBert13 : kMoe10;
    js.job.requested_gpus = (i % 3 == 0) ? 16 : 4;
    js.job.requested_type = AllGpuTypes()[static_cast<size_t>(i) % AllGpuTypes().size()];
    js.job.iterations = 1000;
    js.job.submit_time = i;
    js.phase = JobPhase::kQueued;
    views.push_back(&js);
  }
  CriusScheduler sched(&oracle, CriusConfig{});
  // Warm the estimate caches so steady-state rounds are measured.
  sched.Schedule(RoundContext(0.0, views, cluster));
  for (auto _ : state) {
    CriusScheduler fresh(&oracle, CriusConfig{});
    benchmark::DoNotOptimize(fresh.Schedule(RoundContext(0.0, views, cluster)));
  }
}
BENCHMARK(BM_CriusScheduleRound)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace crius

BENCHMARK_MAIN();

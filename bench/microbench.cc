// Component microbenchmarks (google-benchmark): how expensive the building
// blocks are on this substrate. These back the §8.7 overhead discussion --
// Cell estimation and scheduling must stay cheap enough to run every round.
//
// Extra flags (on top of google-benchmark's own):
//   --json F   write a BENCH_micro.json perf-trajectory report (per-benchmark
//              real time in ns) for crius_benchdiff
//   --smoke    cap --benchmark_min_time at 0.01s for a fast CI pass
//
// A custom main (instead of benchmark::benchmark_main) threads a capturing
// reporter through RunSpecifiedBenchmarks so the same run both prints the
// console table and feeds the JSON report.

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
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

// ConsoleReporter subclass that also captures per-benchmark real time.
// Aggregate rows (mean/median/stddev of repetitions) are skipped -- each
// non-aggregate run contributes its adjusted real time (ns per iteration).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Aggregate rows only; the skipped/error field is not stable across
      // google-benchmark 1.7/1.8, so errored runs are filtered by their
      // zero iteration count instead.
      if (run.run_type == Run::RT_Aggregate || run.iterations == 0) {
        continue;
      }
      captured_[run.benchmark_name()] = run.GetAdjustedRealTime();
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& captured() const { return captured_; }

 private:
  std::map<std::string, double> captured_;
};

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  std::string report_path;
  bool smoke = false;
  // Take our own flags out of argv before google-benchmark sees it (it
  // rejects unknown --flags), and translate --smoke into a short min_time.
  std::vector<char*> bench_argv;
  std::string min_time_flag = "--benchmark_min_time=0.01";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      report_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      report_path = argv[i] + 7;
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  if (smoke) {
    bench_argv.push_back(min_time_flag.data());
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!report_path.empty()) {
    BenchReport report;
    report.bench = "microbench";
    report.meta["mode"] = smoke ? "smoke" : "full";
    for (const auto& [name, real_ns] : reporter.captured()) {
      // Loose threshold: single-iteration CI timings of cache-heavy code are
      // noisy; the gate is for order-of-magnitude regressions.
      report.AddMetric(name + ".real_ns", real_ns, "ns", "lower", 4.0);
    }
    if (!EmitBenchReport(report, report_path)) {
      return 1;
    }
  }
  return 0;
}

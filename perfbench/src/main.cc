// perfbench_driver: runs one benchmark workload and prints its result line.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result line carries every end-to-end metric; with
// --trace 1 every per-layer metric, and the run's spans are written as a
// Chrome trace under .perfbench_out/. Exits 1 when a correctness check
// fails, 2 on bad arguments.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/util/logging.h"
#include "src/workloads.h"

namespace perfbench {

void SetLayerDefaults(Report* report) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"sched.busy_s", "s"},
      {"sched.rounds", "count"},
      {"sched.round_p50_ms", "ms"},
      {"sched.round_p99_ms", "ms"},
      {"sched.steady_round_p50_ms", "ms"},
      {"sched.event_round_p99_ms", "ms"},
      {"sched.profiling_s", "s"},
      {"sched.share", "1"},
      {"sched.cells_considered", "count"},
      {"sched.cells_full_reranks", "count"},
      {"sched.cells_steady_rounds", "count"},
      {"sim.run_s", "s"},
      {"sim.engine_self_s", "s"},
      {"sim.engine_share", "1"},
      {"sim.timeline_samples", "count"},
      {"sim.restarts", "count"},
      {"core.estimate_busy_s", "s"},
      {"core.estimate_p50_ms", "ms"},
      {"core.estimate_p99_ms", "ms"},
      {"core.cells_per_s", "1/s"},
      {"core.tune_busy_s", "s"},
      {"core.share", "1"},
      {"core.plans_assembled", "count"},
      {"core.batch_hit_ratio", "1"},
      {"parallel.explore_busy_s", "s"},
      {"parallel.plans_evaluated", "count"},
      {"serve.submit_ack_p50_ms", "ms"},
      {"serve.submit_ack_p99_ms", "ms"},
      {"serve.query_ack_p50_ms", "ms"},
      {"serve.query_ack_p99_ms", "ms"},
      {"serve.decision_p50_ms", "ms"},
      {"serve.decision_p99_ms", "ms"},
      {"serve.tick_drain_p50_ms", "ms"},
      {"serve.tick_drain_p99_ms", "ms"},
      {"serve.tick_apply_p50_ms", "ms"},
      {"serve.tick_apply_p99_ms", "ms"},
      {"serve.tick_schedule_p50_ms", "ms"},
      {"serve.tick_schedule_p99_ms", "ms"},
      {"serve.tick_log_p50_ms", "ms"},
      {"serve.tick_log_p99_ms", "ms"},
      {"serve.ticks", "count"},
      {"serve.rejected", "count"},
      {"serve.unanswered", "count"},
      {"serve.gen_late_p99_ms", "ms"},
      {"serve.gen_late_max_ms", "ms"},
      {"model.opgraph_build_s", "s"},
      {"trace.overhead_frac", "1"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    report->Set(name, 0.0, unit);
  }
}

void WriteTraceFile(const RunOptions& options, const std::vector<Span>& spans, Report* report) {
  ::mkdir(kOutDir, 0755);
  const std::string path = std::string(kOutDir) + "/trace-" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  const bool ok = WriteChromeTrace(spans, path);
  report->Check("trace.chrome_json_written", ok, path + " (" + std::to_string(spans.size()) +
                                                     " spans)");
}

}  // namespace perfbench

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sim-week-crius|sim-scale-fcfs|plan-cold|serve-mixed "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) {
    return Usage(argv[0]);
  }
  crius::SetLogLevel(crius::LogLevel::kWarning);

  Report report;
  if (options.workload == "sim-week-crius" || options.workload == "sim-scale-fcfs") {
    RunSimWorkload(options, &report);
  } else if (options.workload == "plan-cold") {
    RunPlanWorkload(options, &report);
  } else if (options.workload == "serve-mixed") {
    RunServeWorkload(options, &report);
  } else {
    return Usage(argv[0]);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

// Extension: scheduler behavior under hardware failures (src/fault).
//
// The paper evaluates Crius on healthy clusters; this study injects
// MTBF-driven node failures and straggler windows into the testbed workload
// and compares how much useful work each scheduler salvages. Failure-driven
// reconfiguration is where adaptive parallelism should shine: Crius re-derives
// a plan against the surviving hardware while the baselines requeue jobs at
// their fixed shapes. Reported per failure rate: goodput (useful / total
// GPU-seconds), avg JCT, lost GPU-hours, failure kills, and recovery latency.

#include <cstdio>
#include <limits>

#include "bench/bench_util.h"
#include "src/fault/failure_injector.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  Cluster cluster = MakePhysicalTestbed();
  constexpr uint64_t kSeed = 42;

  PerformanceOracle oracle(cluster, kSeed);
  TraceConfig trace_config = PhillySixHourConfig();
  trace_config.seed = kSeed;
  const auto trace = GenerateTrace(cluster, oracle, trace_config);
  double trace_end = 0.0;
  for (const TrainingJob& job : trace) {
    trace_end = std::max(trace_end, job.submit_time);
  }

  // Node-MTBF sweep, healthy -> harsh. 0 = no injection (the control).
  const double mtbf_hours[] = {0.0, 24.0, 8.0, 2.0};
  const int num_rates = static_cast<int>(std::size(mtbf_hours));
  constexpr double kStragglerRate = 0.01;  // windows per node per hour
  constexpr double kCheckpointIntervalS = 30.0 * kMinute;

  std::vector<std::string> names;
  // [rate][scheduler]
  std::vector<std::vector<SimResult>> results(static_cast<size_t>(num_rates));

  for (int ri = 0; ri < num_rates; ++ri) {
    SimConfig config;
    config.checkpoint.interval = kCheckpointIntervalS;
    if (mtbf_hours[ri] > 0.0) {
      FailureInjectorConfig faults;
      faults.node_mtbf_hours = mtbf_hours[ri];
      faults.straggler_rate = kStragglerRate;
      faults.seed = kSeed;
      faults.horizon = std::max(trace_end, 1.0) * config.max_time_factor + 24.0 * kHour;
      config.failures = GenerateFailureSchedule(cluster, faults);
      config.node_mtbf = mtbf_hours[ri] * kHour;
    }
    Simulator sim(cluster, config);
    auto schedulers = MakeAllSchedulers(&oracle);
    for (auto& scheduler : schedulers) {
      results[static_cast<size_t>(ri)].push_back(sim.Run(*scheduler, oracle, trace));
      if (ri == 0) {
        names.push_back(results[0].back().scheduler);
      }
    }
  }

  auto rate_label = [&](int ri) {
    return mtbf_hours[ri] <= 0.0 ? std::string("healthy")
                                 : "MTBF " + Table::Fmt(mtbf_hours[ri], 0) + "h";
  };

  Table goodput("Goodput (useful / total GPU-seconds) vs node failure rate, "
                "244-job testbed trace");
  Table jct("Avg JCT vs node failure rate");
  Table lost("Lost GPU-hours (work rolled back by failures)");
  Table kills("Failure kills / failure-initiated restarts per run");
  Table recovery("Avg recovery latency (failure kill -> job computing again)");
  {
    std::vector<std::string> header = {"scheduler"};
    for (int ri = 0; ri < num_rates; ++ri) {
      header.push_back(rate_label(ri));
    }
    goodput.SetHeader(header);
    jct.SetHeader(header);
    lost.SetHeader(header);
    kills.SetHeader(header);
    recovery.SetHeader(header);
  }
  for (size_t sc = 0; sc < names.size(); ++sc) {
    std::vector<std::string> g = {names[sc]}, j = {names[sc]}, l = {names[sc]},
                             k = {names[sc]}, rl = {names[sc]};
    for (int ri = 0; ri < num_rates; ++ri) {
      const SimResult& r = results[static_cast<size_t>(ri)][sc];
      g.push_back(Table::FmtPercent(r.goodput));
      j.push_back(Minutes(r.avg_jct));
      l.push_back(Table::Fmt(r.lost_gpu_seconds / kHour, 1));
      k.push_back(Table::FmtInt(r.failure_kills));
      rl.push_back(r.recovery_latencies.empty() ? "-" : Minutes(r.avg_recovery_latency));
    }
    goodput.AddRow(g);
    jct.AddRow(j);
    lost.AddRow(l);
    kills.AddRow(k);
    recovery.AddRow(rl);
  }
  goodput.Print();
  jct.Print();
  lost.Print();
  kills.Print();
  recovery.Print();

  // Headline: Crius's goodput margin at the harshest failure rate.
  const auto& harsh = results[static_cast<size_t>(num_rates - 1)];
  const SimResult& crius = harsh.back();
  double best_baseline = -std::numeric_limits<double>::infinity();
  for (size_t sc = 0; sc + 1 < harsh.size(); ++sc) {
    best_baseline = std::max(best_baseline, harsh[sc].goodput);
  }
  std::printf("\nAt MTBF %.0fh: Crius goodput %.1f%%, best baseline %.1f%% (%+.1f pts)\n",
              mtbf_hours[num_rates - 1], 100.0 * crius.goodput, 100.0 * best_baseline,
              100.0 * (crius.goodput - best_baseline));
  return 0;
}

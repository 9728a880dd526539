// sim-week-crius and sim-scale-fcfs: whole-trace simulations through
// Simulator::Run.
//
// Each measured Run gets a fresh oracle and scheduler (cold estimate cache
// included), so a Run's decisions depend on its trace alone. Every Run
// simulates the next trace of the seed's stream of jittered copies.
// The scheduler is wrapped in a decorator that times Schedule() and
// ProfilingDelay() from outside. Runs, rounds and set-ups are timed in CPU
// time of the one thread that runs them, and each Run (with its rounds) and
// set-up is scaled to reference speed by a SpeedMeter reading over it. An
// untraced Run ticks the meter between rounds; a traced Run does not, so the
// kernel stays out of its spans.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>

#include "src/hw/cluster.h"
#include "src/model/models.h"
#include "src/sched/factory.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"
#include "src/util/counters.h"
#include "src/util/threadpool.h"
#include "src/timed_scheduler.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

// Both sim workloads run the pool at one thread: at two, the Run time of
// sim-week-crius varied about 5% between identical runs, at one about 1%.
constexpr int kPoolThreads = 1;

using crius::Cluster;
using crius::TrainingJob;

struct SimWorkload {
  const char* cluster_spec;
  int num_jobs;
  const char* scheduler;
  // Runs made even when the window is over; the decision-quality metrics
  // are taken over these first traces, so they depend on the seed alone.
  int min_runs;
};

SimWorkload WorkloadFor(const std::string& name) {
  if (name == "sim-week-crius") {
    // The paper's large-scale setup: 2600 jobs on the 1280-GPU cluster.
    return {"simulated", 2600, "crius", 4};
  }
  // The same trace shape at 4x scale (5120 GPUs, 10400 jobs) under fcfs.
  return {"A100:320x4,A40:640x2,A10:640x2,V100:80x16", 10400, "fcfs", 2};
}

struct SimInputs {
  Cluster cluster;
  std::vector<TrainingJob> canonical;
};

// The seed moves every arrival later by up to one scheduling interval (5
// virtual minutes) and re-numbers the jobs in arrival order. The job set --
// models, sizes, durations -- stays the canonical trace's, so seeds change
// the scheduling decisions but hardly the amount of work.
void JitterArrivals(uint64_t seed, std::vector<TrainingJob>* trace) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> delay(0.0, crius::SimConfig{}.schedule_interval);
  for (TrainingJob& job : *trace) {
    job.submit_time += delay(rng);
  }
  std::stable_sort(trace->begin(), trace->end(), [](const TrainingJob& a, const TrainingJob& b) {
    return a.submit_time < b.submit_time;
  });
  for (size_t i = 0; i < trace->size(); ++i) {
    (*trace)[i].id = static_cast<int64_t>(i);
  }
}

// One set-up: build every model graph (what the first GetOpGraph calls of a
// fresh process pay), the cluster and the canonical trace.
SimInputs SetUp(const SimWorkload& w, double* opgraph_s) {
  const double t0 = ThreadCpuSeconds();
  size_t ops = 0;
  for (const crius::ModelSpec& spec : crius::AllModelConfigs()) {
    ops += crius::BuildOpGraph(spec).size();
  }
  *opgraph_s = ThreadCpuSeconds() - t0;
  if (ops == 0) {
    std::fprintf(stderr, "perfbench: empty model graphs\n");
  }
  SimInputs in{crius::MakeNamedCluster(w.cluster_spec), {}};
  crius::TraceConfig config = crius::PhillyWeekHeavyConfig();
  config.num_jobs = w.num_jobs;
  crius::PerformanceOracle trace_oracle(in.cluster, config.seed);
  in.canonical = crius::GenerateTrace(in.cluster, trace_oracle, config);
  return in;
}

// Trace k of the seed's stream: the canonical trace with jittered arrivals.
std::vector<TrainingJob> Variant(const SimInputs& in, uint64_t seed, int k) {
  std::vector<TrainingJob> trace = in.canonical;
  JitterArrivals(seed * 1000 + static_cast<uint64_t>(k), &trace);
  return trace;
}

// What a Run's checks and metrics need from its SimResult. Only this is
// kept, so memory does not grow with the number of Runs in the window.
struct RunSummary {
  int finished = 0, unfinished = 0, dropped = 0;
  bool useful_le_total = true;
  double avg_throughput = 0.0, avg_jct = 0.0, p99_jct = 0.0;
  size_t timeline_samples = 0;
};

struct RunOutcome {
  double run_s = 0.0;
  uint64_t digest = 0;
  RunSummary summary;
  std::unique_ptr<TimedScheduler> timed;
};

// `meter` (optional) is ticked between rounds; the caller subtracts the
// kernel's time from run_s.
RunOutcome RunOnce(const SimWorkload& w, const Cluster& cluster,
                   const std::vector<TrainingJob>& trace, SpeedMeter* meter = nullptr) {
  crius::PerformanceOracle oracle(cluster, crius::PhillyWeekHeavyConfig().seed);
  std::unique_ptr<crius::Scheduler> sched = crius::MakeNamedScheduler(w.scheduler, &oracle);
  RunOutcome out;
  out.timed = std::make_unique<TimedScheduler>(sched.get(), meter);
  crius::SimConfig config;
  config.record_events = true;
  crius::Simulator sim(cluster, config);
  crius::SimResult result;
  {
    ScopedSpan span("sim.Run");
    const double t0 = ThreadCpuSeconds();
    result = sim.Run(*out.timed, oracle, trace);
    out.run_s = ThreadCpuSeconds() - t0;
  }
  std::ostringstream csv;
  crius::WriteJobRecordsCsv(result, csv);
  crius::WriteEventsCsv(result, csv);
  out.digest = Fnv1a(csv.str());
  out.summary = {result.finished_jobs,
                 result.unfinished_jobs,
                 result.dropped_jobs,
                 result.useful_gpu_seconds <= result.total_gpu_seconds * (1.0 + 1e-12),
                 result.avg_throughput,
                 result.avg_jct,
                 result.p99_jct,
                 result.timeline.size()};
  return out;
}

double HistSum(const std::string& name, const crius::MetricLabels& labels = {}) {
  return crius::CounterRegistry::Global()
      .HistogramValues(crius::CanonicalMetricName(name, labels))
      .sum;
}

}  // namespace

void RunSimWorkload(const RunOptions& options, Report* report) {
  const SimWorkload w = WorkloadFor(options.workload);
  std::printf("workload %s: cluster %s, %d jobs per Run, scheduler %s, pool %d threads, "
              "seed %llu\n",
              options.workload.c_str(), w.cluster_spec, w.num_jobs, w.scheduler, kPoolThreads,
              static_cast<unsigned long long>(options.seed));
  crius::ThreadPool::SetGlobalThreads(kPoolThreads);

  SpeedMeter meter;
  std::vector<double> setup_s, opgraph_s;
  SimInputs in;
  for (const Clock::time_point first = Clock::now();
       MoreSetups(setup_s.size(), SecondsSince(first));) {
    meter.Begin();
    const double t0 = ThreadCpuSeconds();
    double graph_s = 0.0;
    in = SetUp(w, &graph_s);
    const double raw_s = ThreadCpuSeconds() - t0;
    const double speed = meter.End().factor;
    setup_s.push_back(raw_s * speed);
    opgraph_s.push_back(graph_s * speed);
  }

  // Measured window: Run after Run, each on the next trace of the seed's
  // stream, so a run averages over as many distinct decision sequences as
  // fit (the cost of a Run depends on the decisions its jitter leads to).
  // A traced run follows each untraced Run with a traced Run of the same
  // trace, so the tracing overhead is measured on the same inputs and the
  // two digests must match. Counters are reset before the first traced Run
  // and count every Run after it; span totals count the traced Runs only.
  // Both are reported per Run.
  std::vector<double> untraced_s, traced_s;  // per Run, at reference speed
  std::vector<double> raw_untraced_s;          // per Run, as measured
  std::vector<double> round_ms, traced_round_ms, steady_ms, event_ms;
  std::vector<RunSummary> results;             // per untraced Run
  uint64_t first_digest = 0;
  bool digests_equal = true;
  int runs_since_reset = 0;
  const Clock::time_point window = Clock::now();
  for (int k = 0; k < w.min_runs || SecondsSince(window) < options.seconds; ++k) {
    const std::vector<TrainingJob> trace = Variant(in, options.seed, k);
    uint64_t untraced_digest = 0;
    for (const bool traced : {false, true}) {
      if (traced && !options.trace) {
        break;
      }
      if (traced && traced_s.empty()) {
        crius::CounterRegistry::Global().Reset();
      }
      meter.Begin();
      Tracer::Get().SetEnabled(traced);
      RunOutcome run = RunOnce(w, in.cluster, trace, traced ? nullptr : &meter);
      Tracer::Get().SetEnabled(false);
      const SpeedMeter::Reading speed = meter.End();
      run.run_s -= speed.kernel_s;
      if (!traced) {
        raw_untraced_s.push_back(run.run_s);
      }
      run.run_s *= speed.factor;
      run.timed->Scale(speed.factor);
      runs_since_reset += traced || !traced_s.empty() ? 1 : 0;
      (traced ? traced_s : untraced_s).push_back(run.run_s);
      const TimedScheduler& ts = *run.timed;
      std::vector<double>& rounds = traced ? traced_round_ms : round_ms;
      rounds.insert(rounds.end(), ts.round_ms_.begin(), ts.round_ms_.end());
      if (traced) {
        steady_ms.insert(steady_ms.end(), ts.steady_ms_.begin(), ts.steady_ms_.end());
        event_ms.insert(event_ms.end(), ts.event_ms_.begin(), ts.event_ms_.end());
        digests_equal = digests_equal && run.digest == untraced_digest;
      } else {
        untraced_digest = run.digest;
        first_digest = k == 0 ? run.digest : first_digest;
        results.push_back(run.summary);
      }
    }
  }
  std::printf("measured %zu untraced and %zu traced Runs in %.2f s\n", untraced_s.size(),
              traced_s.size(), SecondsSince(window));

  // --- Correctness -----------------------------------------------------------
  const double jobs = static_cast<double>(w.num_jobs);
  const double attempted = jobs * static_cast<double>(results.size());
  double finished = 0.0, avg_throughput = 0.0, avg_jct = 0.0, p99_jct = 0.0;
  int64_t failed = 0;
  int accounting_errors = 0, gpu_seconds_errors = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const RunSummary& r = results[i];
    accounting_errors += r.finished + r.unfinished + r.dropped == w.num_jobs ? 0 : 1;
    gpu_seconds_errors += r.useful_le_total ? 0 : 1;
    finished += r.finished;
    failed += r.unfinished + r.dropped;
    if (i < static_cast<size_t>(w.min_runs)) {
      avg_throughput += r.avg_throughput / w.min_runs;
      avg_jct += r.avg_jct / w.min_runs;
      p99_jct += r.p99_jct / w.min_runs;
    }
  }
  const std::string of_runs = " of " + std::to_string(results.size()) + " Runs";
  report->Check("sim.job_accounting", accounting_errors == 0,
                "finished + unfinished + dropped != jobs in " +
                    std::to_string(accounting_errors) + of_runs);
  report->Check("sim.useful_le_total_gpu_seconds", gpu_seconds_errors == 0,
                "useful > total GPU-seconds in " + std::to_string(gpu_seconds_errors) + of_runs);
  if (options.trace) {
    report->Check("sim.digest_traced_eq_untraced", digests_equal);
  } else {
    // Decisions must not depend on the pool size (nor on running again):
    // re-run the first trace with two.
    crius::ThreadPool::SetGlobalThreads(2);
    const RunOutcome rerun = RunOnce(w, in.cluster, Variant(in, options.seed, 0));
    crius::ThreadPool::SetGlobalThreads(kPoolThreads);
    report->Check("sim.digest_pool1_eq_pool2", rerun.digest == first_digest);
  }
  report->attempted = static_cast<int64_t>(attempted);
  report->failed = failed;

  if (!options.trace) {
    const Dist rounds = Summarize(round_ms);
    const double run_s = Median(untraced_s);
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("ok_frac", finished / attempted, "1");
    report->Set("work_per_s", jobs / run_s, "1/s");
    report->Set("p50_ms", rounds.p50, "ms");
    report->Set("p99_ms", rounds.tail, "ms");
    report->Set("quality", avg_throughput, "1");
    report->Note("sim_jobs_per_s", jobs / run_s, "1/s");
    report->Note("run_s (median of " + std::to_string(untraced_s.size()) + ")", run_s, "s");
    report->Note("run_s (median, as measured)", Median(raw_untraced_s), "s");
    report->Note("speed_factor (median)", meter.MedianFactor(), "1");
    report->Note("decision_round_p50_ms", rounds.p50, "ms");
    report->Note("decision_round_p" + FormatPermille(rounds.tail_permille) +
                     "_ms (n=" + std::to_string(rounds.n) + ")",
                 rounds.tail, "ms");
    report->Note("avg_jct_min", avg_jct / 60.0, "min");
    report->Note("p99_jct_min", p99_jct / 60.0, "min");
    report->Note("cluster_throughput", avg_throughput, "1");
    report->Note("failed_frac", failed / attempted, "1");
    return;
  }

  // --- Per-layer (traced) ----------------------------------------------------
  SetLayerDefaults(report);
  const std::vector<Span> spans = Tracer::Get().Take();
  WriteTraceFile(options, spans, report);
  const std::map<std::string, SpanTotals> totals = TotalsByName(spans);
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const double traced_runs_n = static_cast<double>(traced_s.size());
  const double run_s = total("sim.Run").busy_s / traced_runs_n;
  const double sched_s = total("sched.Schedule").busy_s / traced_runs_n;
  const double profiling_s = total("sched.ProfilingDelay").busy_s / traced_runs_n;
  const Dist rounds = Summarize(traced_round_ms);
  const Dist steady = Summarize(steady_ms);
  const Dist event = Summarize(event_ms);
  const crius::CounterRegistry& reg = crius::CounterRegistry::Global();
  const double counted_runs = static_cast<double>(runs_since_reset);
  auto per_run = [&](const char* name) { return reg.CounterValue(name) / counted_runs; };

  report->Set("sched.busy_s", sched_s, "s");
  report->Set("sched.rounds", rounds.n / traced_runs_n, "count");
  report->Set("sched.round_p50_ms", rounds.p50, "ms");
  report->Set("sched.round_p99_ms", rounds.tail, "ms");
  report->Set("sched.steady_round_p50_ms", steady.p50, "ms");
  report->Set("sched.event_round_p99_ms", event.tail, "ms");
  report->Set("sched.profiling_s", profiling_s, "s");
  report->Set("sched.share", (sched_s + profiling_s) / run_s, "1");
  report->Set("sched.cells_considered", per_run("sched.cells_considered"), "count");
  report->Set("sched.cells_full_reranks", per_run("sched.cells_full_reranks"), "count");
  report->Set("sched.cells_steady_rounds", per_run("sched.cells_steady_rounds"), "count");
  report->Set("sim.run_s", run_s, "s");
  report->Set("sim.engine_self_s", total("sim.Run").self_s / traced_runs_n, "s");
  report->Set("sim.engine_share", total("sim.Run").self_s / traced_runs_n / run_s, "1");
  double timeline = 0.0;
  for (const RunSummary& r : results) {
    timeline += static_cast<double>(r.timeline_samples) / static_cast<double>(results.size());
  }
  report->Set("sim.timeline_samples", timeline, "count");
  report->Set("sim.restarts", per_run("sim.restarts"), "count");
  const double hits = per_run("oracle.batch_hits");
  const double misses = per_run("oracle.batch_misses");
  const double estimate_s =
      HistSum("sched.phase_ms", {{"phase", "estimator"}}) / 1e3 / counted_runs;
  report->Set("core.estimate_busy_s", estimate_s, "s");
  const crius::HistogramSnapshot eval = reg.HistogramValues("estimator.eval_ms");
  report->Set("core.estimate_p50_ms", eval.p50, "ms");
  report->Set("core.estimate_p99_ms", eval.p99, "ms");
  report->Set("core.cells_per_s", estimate_s > 0.0 ? (hits + misses) / estimate_s : 0.0, "1/s");
  report->Set("core.share", estimate_s / run_s, "1");
  report->Set("core.plans_assembled", HistSum("estimator.plans_assembled") / counted_runs,
              "count");
  report->Set("core.batch_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "1");
  // Explorer time inside a Run is not separable from outside (the scheduler's
  // "explorer" phase is its own placement search), so only its work counts.
  report->Set("parallel.plans_evaluated",
              (HistSum("explorer.plans_enumerated") + HistSum("tuner.plans_evaluated")) /
                  counted_runs,
              "count");
  report->Set("model.opgraph_build_s", Median(opgraph_s), "s");
  // Each traced Run against the untraced Run of the same trace before it.
  std::vector<double> overhead;
  for (size_t i = 0; i < traced_s.size(); ++i) {
    overhead.push_back(traced_s[i] / untraced_s[i] - 1.0);
  }
  report->Set("trace.overhead_frac", Median(overhead), "1");
}

}  // namespace perfbench

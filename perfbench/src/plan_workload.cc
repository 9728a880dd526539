// plan-cold: single-job planning requests against a cold PerformanceOracle.
//
// One pass serves 252 requests -- the 42 Table-2 model configs x {1, 2, 4, 8,
// 16, 32} requested GPUs -- against a fresh oracle, so every estimate, tune
// and exploration is a cache miss. A request is what a planning client asks
// for: GenerateCellsInto -> EstimateCellBatch -> TuneCell on the winning Cell
// -> BestAdaptive (full adaptive-parallelism exploration) for the winning
// Cell's shape, the baseline the tuned plan is checked against. Requests and
// set-ups are timed in CPU time of the one thread that serves them, and each
// pass and set-up is scaled to reference speed by the SpeedMeter samples
// taken before and after it (a pass is short enough not to need ticks).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "src/core/oracle.h"
#include "src/hw/cluster.h"
#include "src/model/job.h"
#include "src/model/models.h"
#include "src/util/counters.h"
#include "src/util/threadpool.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using crius::Cell;
using crius::PerformanceOracle;
using crius::TrainingJob;

constexpr int kPoolThreads = 1;
constexpr int kRequestGpus[] = {1, 2, 4, 8, 16, 32};

// The 252 requests in Table-2 order. The request set is fixed; the seed
// seeds the oracle's profiling jitter, which moves estimates, winning Cells
// and tuning work.
std::vector<TrainingJob> MakeRequests() {
  std::vector<TrainingJob> requests;
  for (const crius::ModelSpec& spec : crius::AllModelConfigs()) {
    for (const int gpus : kRequestGpus) {
      TrainingJob job;
      job.id = static_cast<int64_t>(requests.size());
      job.spec = spec;
      job.requested_gpus = gpus;
      job.requested_type = crius::GpuType::kA100;
      requests.push_back(job);
    }
  }
  return requests;
}

struct PlanOutcome {
  double latency_ms = 0.0;
  double estimate_s = 0.0;
  size_t cells = 0, hits = 0, misses = 0;
  double plans_assembled = 0.0;
  int tune_plans = 0;
  bool planned = false;     // a feasible estimated Cell was found and tuned
  bool adaptive_fits = false;  // unplanned, but BestAdaptive fits some shape
  bool tuned_ge_best = true;   // tuned iteration time >= BestAdaptive's
  uint64_t digest = 0;         // winner, estimate and tuned plan
  // Estimate vs direct measurement of the estimated plan, per feasible Cell
  // (filled only when asked).
  std::vector<double> accuracy;
  int reference_checked = 0, reference_mismatches = 0;
};

uint64_t Mix(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (h ^ bits) * 0x100000001b3ull;
}

// Serves one planning request. `reference` (when non-null) re-derives a
// sample of the batch's estimates with the golden scalar estimator, and
// `measure_accuracy` evaluates every feasible estimate's plan exactly; both
// run outside the timed sections.
PlanOutcome ServeRequest(PerformanceOracle& oracle, const crius::Cluster& cluster,
                         const TrainingJob& job, std::vector<Cell>* cells,
                         crius::CellBatchResult* batch, const crius::CellEstimator* reference,
                         bool measure_accuracy) {
  PlanOutcome out;
  ScopedSpan request("plan.request", job.id);
  const double t0 = ThreadCpuSeconds();

  {
    ScopedSpan span("core.GenerateCellsInto", job.id);
    crius::GenerateCellsInto(job, cluster, cells);
  }
  const double t = ThreadCpuSeconds();
  {
    ScopedSpan span("core.EstimateCellBatch", job.id);
    oracle.EstimateCellBatch(crius::CellBatchRequest{&job.spec, cells->data(), cells->size()},
                             batch);
  }
  out.estimate_s = ThreadCpuSeconds() - t;
  out.cells = cells->size();
  out.hits = batch->hits;
  out.misses = batch->misses;

  size_t winner = cells->size();
  for (size_t i = 0; i < cells->size(); ++i) {
    out.plans_assembled += batch->estimates[i]->plans_assembled;
    if (batch->throughput[i] > 0.0 &&
        (winner == cells->size() || batch->throughput[i] > batch->throughput[winner])) {
      winner = i;
    }
  }

  const crius::TuneResult* tuned = nullptr;
  const std::optional<crius::PlanChoice>* best = nullptr;
  if (winner < cells->size()) {
    const Cell& cell = (*cells)[winner];
    {
      ScopedSpan span("core.TuneCell", job.id);
      tuned = &oracle.TuneCell(job.spec, cell);
    }
    {
      ScopedSpan span("parallel.BestAdaptive", job.id);
      best = &oracle.BestAdaptive(job.spec, cell.gpu_type, cell.ngpus);
    }
    out.tune_plans = tuned->plans_evaluated;
    out.planned = tuned->best.has_value();
  }
  out.latency_ms = (ThreadCpuSeconds() - t0) * 1e3;

  // --- Untimed: checks and decision digest ------------------------------------
  uint64_t h = 0xcbf29ce484222325ull;
  h = Mix(h, static_cast<double>(winner));
  if (out.planned) {
    out.tuned_ge_best = best->has_value() && tuned->best->iter_time >= (*best)->iter_time;
    h = Mix(h, batch->estimates[winner]->iter_time);
    h = Mix(h, tuned->best->iter_time);
  } else if (measure_accuracy) {
    // No plan: a failure if full exploration fits some candidate shape,
    // otherwise the model fits nowhere and the request is infeasible.
    for (const Cell& cell : *cells) {
      out.adaptive_fits = out.adaptive_fits ||
                          oracle.BestAdaptive(job.spec, cell.gpu_type, cell.ngpus).has_value();
    }
  }
  out.digest = h;
  for (size_t i = 0; i < cells->size(); ++i) {
    const crius::CellEstimate& est = *batch->estimates[i];
    const crius::JobContext& ctx = oracle.ContextFor(job.spec, (*cells)[i].gpu_type);
    if (measure_accuracy && est.feasible) {
      const double direct = oracle.perf_model().Evaluate(ctx, est.plan).iter_time;
      out.accuracy.push_back(1.0 - std::abs(est.iter_time - direct) / direct);
    }
    if (reference != nullptr && (job.id + static_cast<int64_t>(i)) % 8 == 0) {
      const crius::CellEstimate ref = reference->EstimateReference(ctx, (*cells)[i]);
      ++out.reference_checked;
      const bool same = ref.feasible == est.feasible &&
                        (!est.feasible || (ref.iter_time == est.iter_time &&
                                           ref.plans_assembled == est.plans_assembled &&
                                           ref.stage_prefers_tp == est.stage_prefers_tp));
      out.reference_mismatches += same ? 0 : 1;
    }
  }
  return out;
}

struct PassOutcome {
  double request_s = 0.0;  // summed request latency (oracle construction excluded)
  std::vector<PlanOutcome> plans;
  uint64_t digest = 0;
};

PassOutcome RunPass(const crius::Cluster& cluster, const std::vector<TrainingJob>& requests,
                    uint64_t seed, bool checks) {
  PerformanceOracle oracle(cluster, seed);
  std::unique_ptr<crius::CellEstimator> reference;
  if (checks) {
    reference = std::make_unique<crius::CellEstimator>(
        &oracle.perf_model(), &oracle.comm_profile(), seed, crius::OracleConfig{}.compute_jitter);
  }
  PassOutcome pass;
  std::vector<Cell> cells;
  crius::CellBatchResult batch;
  uint64_t h = 0xcbf29ce484222325ull;
  for (const TrainingJob& job : requests) {
    pass.plans.push_back(
        ServeRequest(oracle, cluster, job, &cells, &batch, reference.get(), checks));
    pass.request_s += pass.plans.back().latency_ms / 1e3;
    h = (h ^ pass.plans.back().digest) * 0x100000001b3ull;
  }
  pass.digest = h;
  return pass;
}

}  // namespace

void RunPlanWorkload(const RunOptions& options, Report* report) {
  std::printf("workload plan-cold: 42 model configs x 6 GPU counts on the simulated cluster, "
              "fresh oracle per pass, pool %d threads, seed %llu\n",
              kPoolThreads, static_cast<unsigned long long>(options.seed));
  crius::ThreadPool::SetGlobalThreads(kPoolThreads);

  SpeedMeter meter;
  std::vector<double> setup_s, opgraph_s;
  crius::Cluster cluster;
  std::vector<TrainingJob> requests;
  for (const Clock::time_point first = Clock::now();
       MoreSetups(setup_s.size(), SecondsSince(first));) {
    meter.Begin();
    const double t0 = ThreadCpuSeconds();
    for (const crius::ModelSpec& spec : crius::AllModelConfigs()) {
      crius::BuildOpGraph(spec);
    }
    const double graph_s = ThreadCpuSeconds() - t0;
    cluster = crius::MakeSimulatedCluster();
    requests = MakeRequests();
    PerformanceOracle warm(cluster, options.seed);
    const double raw_s = ThreadCpuSeconds() - t0;
    const double speed = meter.End().factor;
    setup_s.push_back(raw_s * speed);
    opgraph_s.push_back(graph_s * speed);
  }

  // Pass k's oracle is seeded from the run's seed and k, so a run averages
  // over as many oracle jitters as fit. The first pass (untimed for the
  // metrics) runs the correctness checks and the accuracy measurement on
  // pass 0's seed; the measured window follows.
  auto pass_seed = [&](int k) { return options.seed * 1000 + static_cast<uint64_t>(k); };
  const PassOutcome first = RunPass(cluster, requests, pass_seed(0), /*checks=*/true);

  // A traced run follows each untraced pass with a traced pass on the same
  // seed; both digests must match, and measured pass 0 must match the first.
  // Pass times at reference speed (see SpeedMeter), and as measured.
  std::vector<double> untraced_s, traced_s, latency_ms, estimate_ms;
  std::vector<std::vector<double>> request_ms(requests.size());  // per request, untraced
  std::vector<double> raw_untraced_s;
  std::vector<PassOutcome> traced_passes;
  bool digests_equal = true;
  int passes_since_reset = 0;  // the registry counts these passes
  const Clock::time_point window = Clock::now();
  for (int k = 0; k == 0 || SecondsSince(window) < options.seconds; ++k) {
    uint64_t untraced_digest = first.digest;
    for (const bool traced : {false, true}) {
      if (traced && !options.trace) {
        break;
      }
      if (traced && traced_s.empty()) {
        crius::CounterRegistry::Global().Reset();
      }
      passes_since_reset += traced || !traced_s.empty() ? 1 : 0;
      meter.Begin();
      Tracer::Get().SetEnabled(traced);
      PassOutcome pass = RunPass(cluster, requests, pass_seed(k), /*checks=*/false);
      Tracer::Get().SetEnabled(false);
      const double speed = meter.End().factor;
      if (traced || k == 0) {
        digests_equal = digests_equal && pass.digest == untraced_digest;
      }
      untraced_digest = pass.digest;
      (traced ? traced_s : untraced_s).push_back(pass.request_s * speed);
      if (!traced) {
        raw_untraced_s.push_back(pass.request_s);
      }
      for (const PlanOutcome& p : pass.plans) {
        if (traced) {
          estimate_ms.push_back(p.estimate_s * 1e3 * speed);
        } else {
          latency_ms.push_back(p.latency_ms * speed);
          request_ms[static_cast<size_t>(&p - pass.plans.data())].push_back(p.latency_ms * speed);
        }
      }
      if (traced) {
        traced_passes.push_back(std::move(pass));
      }
    }
  }
  std::printf("measured %zu untraced and %zu traced passes in %.2f s\n", untraced_s.size(),
              traced_s.size(), SecondsSince(window));

  // --- Correctness -----------------------------------------------------------
  int failed = 0, infeasible = 0, tuned_below_best = 0, checked = 0, mismatches = 0;
  std::vector<double> accuracy;
  for (const PlanOutcome& p : first.plans) {
    if (!p.planned) {
      (p.adaptive_fits ? failed : infeasible) += 1;
    }
    tuned_below_best += p.tuned_ge_best ? 0 : 1;
    checked += p.reference_checked;
    mismatches += p.reference_mismatches;
    accuracy.insert(accuracy.end(), p.accuracy.begin(), p.accuracy.end());
  }
  report->Check("plan.batch_eq_reference_estimator", checked > 0 && mismatches == 0,
                std::to_string(mismatches) + " of " + std::to_string(checked) +
                    " sampled Cells differ");
  report->Check("plan.tuned_ge_best_adaptive", tuned_below_best == 0,
                std::to_string(tuned_below_best) + " tuned plans beat BestAdaptive");
  report->Check(options.trace ? "plan.digest_traced_eq_untraced" : "plan.digest_repeat_passes",
                digests_equal);
  if (!options.trace) {
    crius::ThreadPool::SetGlobalThreads(2);
    const PassOutcome pooled = RunPass(cluster, requests, pass_seed(0), /*checks=*/false);
    crius::ThreadPool::SetGlobalThreads(kPoolThreads);
    report->Check("plan.digest_pool1_eq_pool2", pooled.digest == first.digest);
  }
  const double n = static_cast<double>(requests.size());
  report->attempted = static_cast<int64_t>(requests.size());
  report->failed = failed;

  if (!options.trace) {
    const Dist lat = Summarize(latency_ms);
    // The median request's latency, estimated so that it does not jump:
    // each request's median over the passes, then the mean of the middle
    // fifth of those (the 40%-trimmed mean). Request costs are lumpy around
    // the median -- one group of requests near it takes ~0.65 ms, the next
    // ~0.8 ms -- and host load does not slow the groups alike, so a plain
    // median jumped between the groups from run to run (by up to 25%).
    std::vector<double> per_request;
    for (const std::vector<double>& ms : request_ms) {
      per_request.push_back(Median(ms));
    }
    std::sort(per_request.begin(), per_request.end());
    const size_t lo = per_request.size() * 2 / 5, hi = per_request.size() * 3 / 5;
    double p50_ms = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      p50_ms += per_request[i] / static_cast<double>(hi - lo);
    }
    const double pass_s = Median(untraced_s);
    double acc = 0.0;
    for (const double a : accuracy) {
      acc += a / static_cast<double>(accuracy.size());
    }
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("ok_frac", 1.0 - failed / n, "1");
    report->Set("work_per_s", n / pass_s, "1/s");
    report->Set("p50_ms", p50_ms, "ms");
    report->Set("p99_ms", lat.tail, "ms");
    report->Set("quality", acc, "1");
    report->Note("plans_per_s", n / pass_s, "1/s");
    report->Note("plans_per_s (as measured)", n / Median(raw_untraced_s), "1/s");
    report->Note("speed_factor (median)", meter.MedianFactor(), "1");
    report->Note("plan_p50_ms (middle fifth of request medians)", p50_ms, "ms");
    report->Note("plan_p50_ms (pooled samples)", lat.p50, "ms");
    report->Note("plan_p" + FormatPermille(lat.tail_permille) + "_ms (n=" +
                     std::to_string(lat.n) + ")",
                 lat.tail, "ms");
    report->Note("est_accuracy (mean over " + std::to_string(accuracy.size()) + " Cells)", acc,
                 "1");
    report->Note("failed_frac", failed / n, "1");
    report->Note("infeasible requests (nothing fits)", infeasible, "count");
    return;
  }

  // --- Per-layer (traced) ----------------------------------------------------
  SetLayerDefaults(report);
  const std::vector<Span> spans = Tracer::Get().Take();
  WriteTraceFile(options, spans, report);
  const std::map<std::string, SpanTotals> totals = TotalsByName(spans);
  auto busy = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.busy_s;
  };
  const double passes = static_cast<double>(traced_passes.size());
  const double request_s = busy("plan.request") / passes;
  const double estimate_s = busy("core.EstimateCellBatch") / passes;
  const double tune_s = busy("core.TuneCell") / passes;
  const double generate_s = busy("core.GenerateCellsInto") / passes;
  const double explore_s = busy("parallel.BestAdaptive") / passes;
  double cells = 0.0, hits = 0.0, misses = 0.0, assembled = 0.0, tune_plans = 0.0;
  for (const PassOutcome& pass : traced_passes) {
    for (const PlanOutcome& p : pass.plans) {
      cells += p.cells;
      hits += p.hits;
      misses += p.misses;
      assembled += p.plans_assembled;
      tune_plans += p.tune_plans;
    }
  }
  const Dist est = Summarize(estimate_ms);
  const double explored =
      crius::CounterRegistry::Global().HistogramValues("explorer.plans_enumerated").sum;
  report->Set("core.estimate_busy_s", estimate_s, "s");
  report->Set("core.estimate_p50_ms", est.p50, "ms");
  report->Set("core.estimate_p99_ms", est.tail, "ms");
  report->Set("core.cells_per_s", estimate_s > 0.0 ? cells / passes / estimate_s : 0.0, "1/s");
  report->Set("core.tune_busy_s", tune_s, "s");
  report->Set("core.share", (estimate_s + tune_s + generate_s) / request_s, "1");
  report->Set("core.plans_assembled", assembled / passes, "count");
  report->Set("core.batch_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "1");
  report->Set("parallel.explore_busy_s", explore_s, "s");
  report->Set("parallel.plans_evaluated", explored / passes_since_reset + tune_plans / passes,
              "count");
  report->Set("model.opgraph_build_s", Median(opgraph_s), "s");
  // Each traced pass against the untraced pass on the same seed before it.
  std::vector<double> overhead;
  for (size_t i = 0; i < traced_s.size(); ++i) {
    overhead.push_back(traced_s[i] / untraced_s[i] - 1.0);
  }
  report->Set("trace.overhead_frac", Median(overhead), "1");
}

}  // namespace perfbench

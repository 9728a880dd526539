// Shared helpers for the figure-reproduction benchmark binaries.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/util/benchdiff.h"
#include "src/util/flags.h"
#include "src/util/table.h"
#include "src/util/threadpool.h"

namespace crius {

// Parses "--threads N" (or "--threads=N") for the benches whose pool does
// real work -- ext_robustness's per-seed runs and ext_serve's socket
// dispatch -- and sizes the global pool accordingly. Routed through
// FlagSet::ParseKnown so a malformed value warns and keeps the default
// instead of silently turning garbage into 0, and so flags owned by the
// bench binary itself pass through untouched. Results are bit-identical
// across thread counts.
inline void ConfigureBenchThreads(int argc, char** argv) {
  int64_t threads = 1;
  FlagSet flags("bench", "shared benchmark flags");
  flags.Int("threads", &threads, "worker threads");
  flags.ParseKnown(argc, argv);
  if (threads < 1 || threads > 4096) {
    std::fprintf(stderr, "warning: ignoring --threads value %lld (expected 1..4096); using 1\n",
                 static_cast<long long>(threads));
    threads = 1;
  }
  ThreadPool::SetGlobalThreads(static_cast<int>(threads));
}

// The five schedulers of §8.1, in the paper's presentation order.
inline std::vector<std::unique_ptr<Scheduler>> MakeAllSchedulers(PerformanceOracle* oracle) {
  std::vector<std::unique_ptr<Scheduler>> out;
  out.push_back(std::make_unique<FcfsScheduler>(oracle));
  out.push_back(std::make_unique<GandivaScheduler>(oracle));
  out.push_back(std::make_unique<GavelScheduler>(oracle));
  out.push_back(std::make_unique<ElasticFlowScheduler>(oracle, ElasticFlowConfig{}));
  out.push_back(std::make_unique<CriusScheduler>(oracle, CriusConfig{}));
  return out;
}

// Wraps a scheduler and accumulates wall-clock time of Schedule() calls
// (the §8.7 scheduling-overhead measurement).
class TimedScheduler : public Scheduler {
 public:
  explicit TimedScheduler(Scheduler* inner) : Scheduler(nullptr), inner_(inner) {}

  std::string name() const override { return inner_->name(); }

  ScheduleDecision Schedule(const RoundContext& round) override {
    const auto start = std::chrono::steady_clock::now();
    ScheduleDecision d = inner_->Schedule(round);
    const auto end = std::chrono::steady_clock::now();
    total_seconds_ += std::chrono::duration<double>(end - start).count();
    ++calls_;
    return d;
  }

  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override {
    return inner_->ProfilingDelay(job, cluster);
  }

  double total_seconds() const { return total_seconds_; }
  int calls() const { return calls_; }

 private:
  Scheduler* inner_;
  double total_seconds_ = 0.0;
  int calls_ = 0;
};

// Writes `report` to `path` (no-op when the bench's --json flag was absent). The emitted
// per-metric thresholds become the checked-in baseline's thresholds when a
// run is promoted to bench/baselines/, so benches stamp loose bounds on
// noisy wall-time metrics and tight ones on dimensionless ratios there.
inline bool EmitBenchReport(const BenchReport& report, const std::string& path) {
  if (path.empty()) {
    return true;
  }
  if (!report.WriteFile(path)) {
    std::fprintf(stderr, "error: cannot write bench report %s\n", path.c_str());
    return false;
  }
  std::printf("Bench report written to %s\n", path.c_str());
  return true;
}

// Normalizes `value` against the row printed for a baseline.
inline std::string Ratio(double value, double baseline) {
  if (baseline <= 0.0) {
    return "-";
  }
  return Table::FmtFactor(value / baseline);
}

inline std::string Hours(double seconds) {
  return Table::Fmt(seconds / kHour, 2) + "h";
}

inline std::string Minutes(double seconds) {
  return Table::Fmt(seconds / kMinute, 1) + "m";
}

}  // namespace crius

#endif  // BENCH_BENCH_UTIL_H_

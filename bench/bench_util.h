// Shared helpers for the figure-reproduction benchmark binaries.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/table.h"
#include "src/util/threadpool.h"

namespace crius {

// The benches without flags of their own take no arguments: anything on the
// command line exits 1, so a stale or mistyped flag never runs a study it
// did not ask for.
inline void RequireNoArgs(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "%s: takes no arguments (got '%s')\n", argv[0], argv[1]);
    std::exit(1);
  }
}

// Sizes the global pool from the --threads flag of ext_serve and
// ext_robustness; false (after a message) outside 1..4096. Results are
// bit-identical across thread counts.
inline bool SetBenchThreads(int64_t threads) {
  if (threads < 1 || threads > 4096) {
    std::fprintf(stderr, "error: --threads %lld out of range 1..4096\n",
                 static_cast<long long>(threads));
    return false;
  }
  ThreadPool::SetGlobalThreads(static_cast<int>(threads));
  return true;
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

struct BenchMetric {
  double value = 0.0;
  std::string unit;
};

// Writes a bench's deterministic outputs to `path` (no-op when empty) as
// {"bench", "meta", "metrics": {name: {"unit", "value"}}} with sorted keys,
// atomically (temp file + rename). Every value is a pure function of the
// seed, so the ctest gate in bench/CMakeLists.txt diffs the file byte for
// byte against bench/baselines/BENCH_<name>.json.
inline bool WriteBenchReport(const std::string& path, const std::string& bench,
                             const std::map<std::string, std::string>& meta,
                             const std::map<std::string, BenchMetric>& metrics) {
  if (path.empty()) {
    return true;
  }
  Json meta_obj = Json::Object();
  for (const auto& [key, value] : meta) {
    meta_obj.Set(key, Json::Str(value));
  }
  Json metrics_obj = Json::Object();
  for (const auto& [name, metric] : metrics) {
    Json& entry = metrics_obj.Set(name, Json::Object());
    entry.Set("unit", Json::Str(metric.unit));
    entry.Set("value", Json::Number(metric.value));
  }
  Json root = Json::Object();
  root.Set("bench", Json::Str(bench));
  root.Set("meta", std::move(meta_obj));
  root.Set("metrics", std::move(metrics_obj));
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  out << root.Serialize(2) << "\n";
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
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

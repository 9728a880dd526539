// Extension ablation: is Crius's online profiling budget (§8.2) actually
// affordable?
//
// Crius charges every new job a single-GPU Cell-profiling delay (bounded by
// 30 minutes) before it becomes schedulable. This experiment runs the testbed
// workload with the charge on and off, and also with an exaggerated 10x
// profiling cost, to show (a) the default budget costs little end to end and
// (b) Crius still beats the strongest baseline even with the charge inflated.

#include <cstdio>

#include "bench/bench_util.h"

namespace crius {
namespace {

// Wraps a scheduler and scales its profiling delay (failure-injection knob).
class ScaledProfilingScheduler : public Scheduler {
 public:
  ScaledProfilingScheduler(Scheduler* inner, double scale)
      : Scheduler(nullptr), inner_(inner), scale_(scale) {}
  std::string name() const override { return inner_->name(); }
  ScheduleDecision Schedule(const RoundContext& round) override {
    return inner_->Schedule(round);
  }
  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override {
    return scale_ * inner_->ProfilingDelay(job, cluster);
  }

 private:
  Scheduler* inner_;
  double scale_;
};

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);
  Cluster cluster = MakePhysicalTestbed();
  PerformanceOracle oracle(cluster, 42);
  const auto trace = GenerateTrace(cluster, oracle, PhillySixHourConfig());

  Table table("Ablation: Cell-profiling cost (§8.2)");
  table.SetHeader({"configuration", "avg JCT", "avg queue", "avg thr"});

  struct Row {
    const char* label;
    double scale;
    bool charge;
  };
  const Row rows[] = {
      {"Crius, profiling free", 1.0, false},
      {"Crius, profiling charged (default)", 1.0, true},
      {"Crius, profiling cost x10", 10.0, true},
  };
  for (const Row& row : rows) {
    CriusScheduler crius(&oracle, CriusConfig{});
    ScaledProfilingScheduler scaled(&crius, row.scale);
    SimConfig config;
    config.charge_profiling = row.charge;
    Simulator sim(cluster, config);
    const SimResult r = sim.Run(scaled, oracle, trace);
    table.AddRow({row.label, Minutes(r.avg_jct), Minutes(r.avg_queue_time),
                  Table::Fmt(r.avg_throughput, 2)});
  }
  // Strongest baseline for context.
  {
    GavelScheduler gavel(&oracle);
    Simulator sim(cluster, SimConfig{});
    const SimResult r = sim.Run(gavel, oracle, trace);
    table.AddRow({"Gavel (best baseline, no profiling)", Minutes(r.avg_jct),
                  Minutes(r.avg_queue_time), Table::Fmt(r.avg_throughput, 2)});
  }
  table.Print();
  std::printf("\nExpected shape: the default charge costs a few minutes of JCT; even a 10x\n"
              "inflated profiling budget leaves Crius ahead of the best baseline.\n");
  return 0;
}

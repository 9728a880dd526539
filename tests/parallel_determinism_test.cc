// A full simulation run must produce BIT-IDENTICAL event and timeline CSVs
// whatever the global pool's size: a run's oracle and scheduler stay on the
// calling thread, so the pool (used by serve dispatch and per-seed bench
// runs) must never reach a decision. Every cached quantity is a pure function
// of its key, so the only way this test fails is a real determinism bug
// (ordering leak, shared-state race, or a cache whose value depends on
// population order).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/fault/failure_injector.h"
#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"
#include "src/util/threadpool.h"

namespace crius {
namespace {

struct RunCsvs {
  std::string events;
  std::string timeline;
  std::string jobs;
};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }

  // One complete simulation at `threads`, from fresh oracle/scheduler/sim
  // state, serialized to CSV. Includes a mid-trace node failure + recovery so
  // the degraded-mode path (epoch invalidation, re-ranking) is covered too.
  static RunCsvs Run(int threads, CriusConfig sched_config) {
    ThreadPool::SetGlobalThreads(threads);
    Cluster cluster = MakePhysicalTestbed();
    PerformanceOracle oracle(cluster, 42);

    TraceConfig trace_config = PhillySixHourConfig();
    trace_config.seed = 42;
    trace_config.num_jobs = 24;
    const auto trace = GenerateTrace(cluster, oracle, trace_config);

    SimConfig sim_config;
    sim_config.record_events = true;
    sim_config.failures.push_back(FailureEvent{2.0 * kHour, FailureKind::kNodeFail, 0, 0, 1.0});
    sim_config.failures.push_back(
        FailureEvent{4.0 * kHour, FailureKind::kNodeRecover, 0, 0, 1.0});

    Simulator sim(cluster, sim_config);
    CriusScheduler sched(&oracle, sched_config);
    const SimResult result = sim.Run(sched, oracle, trace);

    RunCsvs csvs;
    std::ostringstream events, timeline, jobs;
    WriteEventsCsv(result, events);
    WriteTimelineCsv(result, timeline);
    WriteJobRecordsCsv(result, jobs);
    csvs.events = events.str();
    csvs.timeline = timeline.str();
    csvs.jobs = jobs.str();
    return csvs;
  }
};

TEST_F(ParallelDeterminismTest, CriusRunIsBitIdenticalAcrossThreadCounts) {
  const RunCsvs base = Run(1, CriusConfig{});
  ASSERT_FALSE(base.events.empty());
  ASSERT_FALSE(base.timeline.empty());
  for (int threads : {2, 4}) {
    const RunCsvs parallel = Run(threads, CriusConfig{});
    EXPECT_EQ(parallel.events, base.events) << "events diverge at --threads " << threads;
    EXPECT_EQ(parallel.timeline, base.timeline)
        << "timeline diverges at --threads " << threads;
    EXPECT_EQ(parallel.jobs, base.jobs) << "job records diverge at --threads " << threads;
  }
}

TEST_F(ParallelDeterminismTest, SolverLiteRunIsBitIdenticalAcrossThreadCounts) {
  // kBestOfAll runs its three virtual placement passes concurrently; the
  // winning decision must not depend on which pass finishes first.
  CriusConfig config;
  config.placement_order = CriusPlacementOrder::kBestOfAll;
  const RunCsvs base = Run(1, config);
  const RunCsvs parallel = Run(4, config);
  EXPECT_EQ(parallel.events, base.events);
  EXPECT_EQ(parallel.timeline, base.timeline);
  EXPECT_EQ(parallel.jobs, base.jobs);
}

TEST_F(ParallelDeterminismTest, RepeatedRunsAtSameThreadCountAreIdentical) {
  // Guards against nondeterminism that two *parallel* runs could share but a
  // sequential baseline would expose (e.g. address-dependent ordering).
  const RunCsvs a = Run(4, CriusConfig{});
  const RunCsvs b = Run(4, CriusConfig{});
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.jobs, b.jobs);
}

}  // namespace
}  // namespace crius

// Direct tests of SimEngine's stepping API and its live-set bookkeeping.
//
// After every ProcessNext the O(1) counters (LiveJobs, RunningJobs,
// QueuedJobs) must equal a brute-force recount over every job ever added,
// and the scheduler must see its visible jobs in ascending add order -- the
// order a full scan of the engine's job list would produce.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/cluster.h"
#include "src/sched/baselines.h"
#include "src/sim/engine.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};

TrainingJob MakeJob(int64_t id, double submit, int64_t iterations, int gpus = 2) {
  TrainingJob job;
  job.id = id;
  job.spec = kSmall;
  job.submit_time = submit;
  job.iterations = iterations;
  job.requested_gpus = gpus;
  job.requested_type = GpuType::kA100;
  return job;
}

// FCFS that records what each round saw.
class RecordingScheduler : public Scheduler {
 public:
  struct Round {
    double now;
    std::vector<int64_t> visible;
    std::vector<RoundEvent> events;
  };

  explicit RecordingScheduler(PerformanceOracle* oracle) : Scheduler(oracle), inner_(oracle) {}
  std::string name() const override { return "Recording"; }
  ScheduleDecision Schedule(const RoundContext& round) override {
    Round r{round.now(), {}, round.events()};
    for (const JobState* js : round.jobs()) {
      r.visible.push_back(js->job.id);
    }
    rounds.push_back(std::move(r));
    return inner_.Schedule(round);
  }

  std::vector<Round> rounds;

 private:
  FcfsScheduler inner_;
};

class SimEngineTest : public ::testing::Test {
 protected:
  // One 4-GPU node: two 2-GPU jobs fill it.
  SimEngineTest()
      : cluster_(ParseClusterSpec("A100:1x4")), oracle_(cluster_, 42), sched_(&oracle_) {
    config_.record_events = true;
  }

  SimEngine& Engine() {
    if (engine_ == nullptr) {
      engine_ = std::make_unique<SimEngine>(cluster_, config_, sched_, oracle_);
    }
    return *engine_;
  }

  void Add(const TrainingJob& job) {
    ASSERT_TRUE(Engine().TryAddJob(job));
    add_order_[job.id] = static_cast<int>(add_order_.size());
  }

  // One step, then the counters against a recount over every added job.
  void Step() {
    SimEngine& engine = Engine();
    engine.ProcessNext();
    int running = 0;
    int queued = 0;
    for (const auto& [id, order] : add_order_) {
      (void)order;
      const JobState* js = engine.FindJob(id);
      ASSERT_NE(js, nullptr);
      running += js->phase == JobPhase::kRunning ? 1 : 0;
      queued += js->phase == JobPhase::kQueued ? 1 : 0;
    }
    ASSERT_EQ(engine.RunningJobs(), running) << "t=" << engine.now();
    ASSERT_EQ(engine.QueuedJobs(), queued) << "t=" << engine.now();
    ASSERT_EQ(engine.LiveJobs(), running + queued) << "t=" << engine.now();
  }

  void Drain() {
    SimEngine& engine = Engine();
    while (engine.LiveJobs() > 0 && engine.now() < engine.MaxTime()) {
      ASSERT_NO_FATAL_FAILURE(Step());
    }
  }

  // Every round saw its jobs in ascending add order, and only jobs already
  // submitted.
  void ExpectVisibleInAddOrder() {
    for (const RecordingScheduler::Round& r : sched_.rounds) {
      for (size_t k = 0; k < r.visible.size(); ++k) {
        const JobState* js = Engine().FindJob(r.visible[k]);
        ASSERT_NE(js, nullptr);
        EXPECT_LE(js->job.submit_time, r.now + 1e-6) << "job " << r.visible[k];
        if (k > 0) {
          EXPECT_LT(add_order_.at(r.visible[k - 1]), add_order_.at(r.visible[k]))
              << "round at t=" << r.now;
        }
      }
    }
  }

  bool EverVisible(int64_t id) const {
    for (const RecordingScheduler::Round& r : sched_.rounds) {
      if (std::find(r.visible.begin(), r.visible.end(), id) != r.visible.end()) {
        return true;
      }
    }
    return false;
  }

  int RoundEvents(RoundEventKind kind, int64_t id) const {
    int n = 0;
    for (const RecordingScheduler::Round& r : sched_.rounds) {
      for (const RoundEvent& e : r.events) {
        n += e.kind == kind && e.job_id == id ? 1 : 0;
      }
    }
    return n;
  }

  int SimEvents(SimEvent::Kind kind, int64_t id = -1) {
    int n = 0;
    for (const SimEvent& e : Engine().events()) {
      n += e.kind == kind && (id < 0 || e.job_id == id) ? 1 : 0;
    }
    return n;
  }

  Cluster cluster_;
  PerformanceOracle oracle_;
  RecordingScheduler sched_;
  SimConfig config_;
  std::unique_ptr<SimEngine> engine_;
  std::map<int64_t, int> add_order_;
};

TEST_F(SimEngineTest, JobsAddedOutOfSubmitOrder) {
  // Ids deliberately neither in add nor in submit order.
  Add(MakeJob(50, 1800.0, 3000));
  Add(MakeJob(7, 0.0, 3000));
  Add(MakeJob(31, 900.0, 3000));
  Add(MakeJob(2, 2700.0, 3000));
  Add(MakeJob(19, 0.0, 3000));
  Add(MakeJob(44, 600.0, 3000));
  EXPECT_DOUBLE_EQ(Engine().MaxTime(), 2700.0 * config_.max_time_factor + 24.0 * 3600.0);
  Drain();
  ExpectVisibleInAddOrder();
  EXPECT_EQ(Engine().LiveJobs(), 0);
  EXPECT_EQ(SimEvents(SimEvent::Kind::kFinish), 6);
  // Four 2-GPU jobs on a 4-GPU node: some round must have queued work.
  bool saw_queue = false;
  for (const RecordingScheduler::Round& r : sched_.rounds) {
    saw_queue = saw_queue || r.visible.size() > 2;
  }
  EXPECT_TRUE(saw_queue);
}

TEST_F(SimEngineTest, CancelBeforeSubmitVanishesWithoutDrop) {
  Add(MakeJob(1, 0.0, 3000));
  Add(MakeJob(2, 3600.0, 3000));
  Engine().InjectCancel(600.0, 2);
  Drain();
  ExpectVisibleInAddOrder();
  EXPECT_EQ(Engine().FindJob(2)->phase, JobPhase::kDropped);
  EXPECT_EQ(SimEvents(SimEvent::Kind::kCancel, 2), 1);
  EXPECT_FALSE(EverVisible(2));
  EXPECT_EQ(RoundEvents(RoundEventKind::kJobArrival, 2), 0);
  EXPECT_EQ(RoundEvents(RoundEventKind::kJobDrop, 2), 0);
  EXPECT_EQ(Engine().FindJob(1)->phase, JobPhase::kFinished);
}

TEST_F(SimEngineTest, CancelRunningJobFreesItsGpus) {
  Add(MakeJob(1, 0.0, 1000000));
  Add(MakeJob(2, 0.0, 3000));
  while (Engine().RunningJobs() < 2) {
    ASSERT_NO_FATAL_FAILURE(Step());
  }
  EXPECT_EQ(Engine().cluster().FreeGpus(), 0);
  Engine().InjectCancel(Engine().now() + 60.0, 1);
  const double cancel_at = Engine().now() + 60.0;
  while (Engine().now() < cancel_at) {
    ASSERT_NO_FATAL_FAILURE(Step());
  }
  EXPECT_EQ(Engine().FindJob(1)->phase, JobPhase::kDropped);
  EXPECT_EQ(Engine().RunningJobs(), 1);
  EXPECT_EQ(Engine().cluster().FreeGpus(), 2);
  EXPECT_EQ(SimEvents(SimEvent::Kind::kCancel, 1), 1);
  Drain();
  // The scheduler had seen job 1 arrive, so it hears about the withdrawal.
  EXPECT_EQ(RoundEvents(RoundEventKind::kJobDrop, 1), 1);
  EXPECT_EQ(Engine().FindJob(2)->phase, JobPhase::kFinished);
  ExpectVisibleInAddOrder();
}

TEST_F(SimEngineTest, NodeFailureKillsRunningJobs) {
  Add(MakeJob(1, 0.0, 20000));
  Add(MakeJob(2, 0.0, 20000));
  Add(MakeJob(3, 0.0, 20000));
  while (Engine().RunningJobs() < 2) {
    ASSERT_NO_FATAL_FAILURE(Step());
  }
  const double fail_at = Engine().now() + 30.0;
  Engine().InjectFailure(FailureEvent{fail_at, FailureKind::kNodeFail, 0, 0, 1.0});
  Engine().InjectFailure(FailureEvent{fail_at + 900.0, FailureKind::kNodeRecover, 0, 0, 1.0});
  while (Engine().now() < fail_at) {
    ASSERT_NO_FATAL_FAILURE(Step());
  }
  EXPECT_EQ(Engine().RunningJobs(), 0);
  EXPECT_EQ(Engine().QueuedJobs(), 3);
  EXPECT_EQ(SimEvents(SimEvent::Kind::kFailureKill), 2);
  Drain();
  EXPECT_EQ(SimEvents(SimEvent::Kind::kFinish), 3);
  EXPECT_EQ(SimEvents(SimEvent::Kind::kRestart), 2);
  ExpectVisibleInAddOrder();
}

TEST_F(SimEngineTest, TryAddJobMidRun) {
  Add(MakeJob(10, 0.0, 3000));
  Add(MakeJob(11, 0.0, 50000));
  for (int i = 0; i < 3; ++i) {
    ASSERT_NO_FATAL_FAILURE(Step());
  }
  const double now = Engine().now();
  // A lower id than the running jobs: visibility follows add order, not id.
  Add(MakeJob(3, now, 3000));
  EXPECT_FALSE(Engine().TryAddJob(MakeJob(3, now, 3000)));  // duplicate id
  EXPECT_EQ(Engine().LiveJobs(), 3);
  Drain();
  ExpectVisibleInAddOrder();
  EXPECT_TRUE(EverVisible(3));
  EXPECT_EQ(SimEvents(SimEvent::Kind::kFinish), 3);
  EXPECT_EQ(Engine().FindJob(3)->phase, JobPhase::kFinished);
}

}  // namespace
}  // namespace crius

// Scheduler decorator that times every Schedule() and ProfilingDelay() call
// of the scheduler it wraps, from outside, and opens a span around each.
// Calls are timed in CPU time of the calling thread (see ThreadCpuSeconds).
// Given a SpeedMeter, it ticks the meter before each round, outside the
// round's timing and span.

#ifndef PERFBENCH_SRC_TIMED_SCHEDULER_H_
#define PERFBENCH_SRC_TIMED_SCHEDULER_H_

#include <mutex>
#include <string>
#include <vector>

#include "src/common.h"
#include "src/sched/scheduler.h"

namespace perfbench {

class TimedScheduler : public crius::Scheduler {
 public:
  explicit TimedScheduler(crius::Scheduler* inner, SpeedMeter* meter = nullptr)
      : Scheduler(nullptr), inner_(inner), meter_(meter) {}

  std::string name() const override { return inner_->name(); }

  crius::ScheduleDecision Schedule(const crius::RoundContext& round) override {
    if (meter_ != nullptr) {
      meter_->Tick();
    }
    ScopedSpan span("sched.Schedule");
    const double t0 = ThreadCpuSeconds();
    crius::ScheduleDecision decision = inner_->Schedule(round);
    const double ms = (ThreadCpuSeconds() - t0) * 1e3;
    std::lock_guard<std::mutex> lock(mu_);
    round_ms_.push_back(ms);
    (round.events().empty() ? steady_ms_ : event_ms_).push_back(ms);
    return decision;
  }

  double ProfilingDelay(const crius::TrainingJob& job, const crius::Cluster& cluster) override {
    ScopedSpan span("sched.ProfilingDelay");
    const double t0 = ThreadCpuSeconds();
    const double delay = inner_->ProfilingDelay(job, cluster);
    const double s = ThreadCpuSeconds() - t0;
    std::lock_guard<std::mutex> lock(mu_);
    profiling_s_ += s;
    return delay;
  }

  // Forgets every timing so far. Safe while another thread schedules (the
  // serving daemon's controller); read the timings only once that thread
  // has stopped.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    round_ms_.clear();
    steady_ms_.clear();
    event_ms_.clear();
    profiling_s_ = 0.0;
  }

  // Multiplies every timing so far by `factor` (a SpeedMeter factor).
  void Scale(double factor) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::vector<double>* v : {&round_ms_, &steady_ms_, &event_ms_}) {
      for (double& ms : *v) {
        ms *= factor;
      }
    }
    profiling_s_ *= factor;
  }

  std::vector<double> round_ms_, steady_ms_, event_ms_;
  double profiling_s_ = 0.0;

 private:
  crius::Scheduler* inner_;
  SpeedMeter* meter_;
  std::mutex mu_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_SCHEDULER_H_

// Tests of the benchmark's own logic: the percentile rule, span self time,
// the open-loop request schedule, and the speed meter's ticking.
//
//   cmake --build .bench_build --target perfbench_logic_test && .bench_build/perfbench_logic_test
//
// (python3 perfbench/run.py --self-test does both.) Exits non-zero on the
// first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/common.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

// The highest percentile with at least ten samples beyond it.
void TestTailPermille() {
  EXPECT(TailPermille(0) == 0);
  EXPECT(TailPermille(19) == 0);     // the median has 9.5 beyond
  EXPECT(TailPermille(20) == 500);
  EXPECT(TailPermille(39) == 500);
  EXPECT(TailPermille(40) == 750);
  EXPECT(TailPermille(99) == 750);
  EXPECT(TailPermille(100) == 900);
  EXPECT(TailPermille(199) == 900);
  EXPECT(TailPermille(200) == 950);
  EXPECT(TailPermille(999) == 950);  // p99 would have 9.99 beyond
  EXPECT(TailPermille(1000) == 990);
  EXPECT(TailPermille(9999) == 990);
  EXPECT(TailPermille(10000) == 999);
  EXPECT(FormatPermille(990) == "99");
  EXPECT(FormatPermille(999) == "99.9");
}

void TestSummarize() {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(static_cast<double>(1001 - i));  // unsorted on purpose
  }
  const Dist d = Summarize(values);
  EXPECT(d.n == 1000);
  EXPECT(d.tail_permille == 990);
  EXPECT(std::abs(d.p50 - 500.5) < 1e-9);
  EXPECT(std::abs(d.tail - 990.01) < 1e-9);  // linear interpolation at rank 989.01
  EXPECT(d.max == 1000.0);
  EXPECT(std::abs(d.sum - 500500.0) < 1e-6);

  // 10000 samples allow p99.9, but the tail stays capped at p99.
  EXPECT(Summarize(std::vector<double>(10000, 1.0)).tail_permille == 990);

  // Too few samples for any tail: the maximum, flagged by permille 0.
  const Dist few = Summarize({3.0, 1.0, 2.0});
  EXPECT(few.tail_permille == 0);
  EXPECT(few.tail == 3.0);
  EXPECT(Summarize({}).n == 0);
}

void TestSelfTime() {
  std::vector<Span> spans(3);
  spans[0] = Span{"root", 0, 10'000'000'000, -1, 0, 7};
  spans[1] = Span{"child", 1'000'000'000, 4'000'000'000, 0, 0, 7};
  spans[2] = Span{"child", 5'000'000'000, 9'000'000'000, 0, 0, 7};
  const auto totals = TotalsByName(spans);
  EXPECT(totals.at("root").count == 1);
  EXPECT(std::abs(totals.at("root").busy_s - 10.0) < 1e-9);
  EXPECT(std::abs(totals.at("root").self_s - 3.0) < 1e-9);
  EXPECT(totals.at("child").count == 2);
  EXPECT(std::abs(totals.at("child").self_s - 7.0) < 1e-9);
}

ServeLoadConfig SmallLoad() {
  ServeLoadConfig config;
  config.rates = {1000.0, 4000.0};
  config.rung_seconds = {2.0, 1.0};
  config.num_nodes = 16;
  config.job_mix = 100;
  return config;
}

bool SameSchedule(const std::vector<ScheduledOp>& a, const std::vector<ScheduledOp>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_s != b[i].due_s || a[i].kind != b[i].kind || a[i].rung != b[i].rung ||
        a[i].arg != b[i].arg) {
      return false;
    }
  }
  return true;
}

// The open-loop schedule is a pure function of (config, seed).
void TestScheduleDeterministic() {
  const ServeLoadConfig config = SmallLoad();
  const std::vector<ScheduledOp> a = BuildOpenLoopSchedule(config, 42);
  EXPECT(SameSchedule(a, BuildOpenLoopSchedule(config, 42)));
  EXPECT(!SameSchedule(a, BuildOpenLoopSchedule(config, 43)));
}

void TestScheduleShape() {
  const ServeLoadConfig config = SmallLoad();
  const std::vector<ScheduledOp> ops = BuildOpenLoopSchedule(config, 7);
  size_t per_rung[2] = {0, 0};
  std::vector<double> submit_due;
  size_t fails = 0, recovers = 0;
  bool sorted = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    const ScheduledOp& op = ops[i];
    sorted = sorted && (i == 0 || ops[i - 1].due_s <= op.due_s);
    EXPECT(op.due_s >= 0.0 && op.due_s < config.total_seconds());
    EXPECT(op.rung == config.RungAt(op.due_s));
    ++per_rung[op.rung];
    switch (op.kind) {
      case OpKind::kSubmit:
        EXPECT(op.arg < config.job_mix);
        submit_due.push_back(op.due_s);
        break;
      case OpKind::kCancel:
        // Names a submit that was due at least half a second earlier.
        EXPECT(op.arg < submit_due.size());
        EXPECT(op.arg < submit_due.size() && op.due_s - submit_due[op.arg] >= 0.5);
        break;
      case OpKind::kFailNode:
        ++fails;
        EXPECT(op.arg < 16u);
        break;
      case OpKind::kRecoverNode:
        ++recovers;
        break;
      default:
        break;
    }
  }
  EXPECT(sorted);
  EXPECT(fails == recovers && fails >= 1);
  // Poisson counts within 10% of rate x duration.
  EXPECT(std::abs(static_cast<double>(per_rung[0]) - 2000.0) < 200.0);
  EXPECT(std::abs(static_cast<double>(per_rung[1]) - 4000.0) < 400.0);
  EXPECT(std::abs(static_cast<double>(submit_due.size()) - 360.0) < 60.0);
  EXPECT(config.RungAt(0.0) == 0 && config.RungAt(1.999) == 0 && config.RungAt(2.0) == 1 &&
         config.RungAt(5.0) == 1);
}

// Tick() runs the kernel only once kTickSeconds of CPU time have passed,
// and End() reports the ticked kernel time the caller must subtract.
void TestSpeedMeter() {
  SpeedMeter meter;
  meter.Begin();
  meter.Tick();  // right after Begin(): nothing is due
  SpeedMeter::Reading idle = meter.End();
  EXPECT(idle.kernel_s == 0.0);
  EXPECT(idle.factor > 0.0);

  meter.Begin();
  const double t0 = ThreadCpuSeconds();
  volatile double burn = 0.0;
  while (ThreadCpuSeconds() - t0 < SpeedMeter::kTickSeconds * 1.5) {
    burn = burn + 1.0;
  }
  meter.Tick();
  const double after_tick = ThreadCpuSeconds();
  meter.Tick();  // the tick above restarted the interval
  const SpeedMeter::Reading busy = meter.End();
  EXPECT(busy.kernel_s > 0.0);
  EXPECT(busy.kernel_s < after_tick - t0);
  EXPECT(meter.MedianFactor() > 0.0);
}

}  // namespace

int main() {
  TestTailPermille();
  TestSummarize();
  TestSelfTime();
  TestScheduleDeterministic();
  TestScheduleShape();
  TestSpeedMeter();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_logic_test: %d failed expectations\n", g_failures);
    return 1;
  }
  std::printf("perfbench_logic_test: all expectations met\n");
  return 0;
}

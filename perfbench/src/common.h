// Shared pieces of the repository benchmark: timing, the percentile rule,
// in-memory spans, the open-loop request schedule, and the result line.
//
// Everything here is the benchmark's own instrumentation. The library is
// measured from outside: spans wrap the benchmark's calls into public entry
// points, and counters are read from the existing CounterRegistry.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) { return SecondsBetween(t0, Clock::now()); }

// CPU time of the calling thread, in seconds. Work that runs on one thread
// (set-up, and the sim and plan workloads, whose pool runs at one thread) is
// timed with it: unlike wall time it leaves out the time the thread waited
// for a CPU.
double ThreadCpuSeconds();
// CPU time of every thread of the process, in seconds.
double ProcessCpuSeconds();

// --- Host speed --------------------------------------------------------------

// The shared host this benchmark runs on changes speed in phases of seconds
// to hours (other tenants' load), and the phases move thread CPU time as much
// as wall time. Each compute-bound measurement is therefore taken together
// with a fixed calibration kernel that belongs to the benchmark (hash probes,
// a sort, binary searches, floating point; no library code), and reported at
// the reference speed:
//
//   normalized = measured * kCalibrationRefSeconds / kernel unit seconds.
//
// The kernel never changes with the library, so a change to the library
// moves the normalized figure and a change of host speed does not.
inline constexpr double kCalibrationRefSeconds = 0.005;

// Measures the host's speed over a unit of work (a set-up, a Run, a pass):
// kernel units are timed when the unit begins and ends and, for units long
// enough to need it (a sim Run), through Tick() every kTickSeconds of CPU
// time in between, so the samples cover the unit evenly. The unit's factor is kCalibrationRefSeconds over their median: 1 at
// reference speed, 0.5 when the host runs at half speed. Not thread-safe
// (the kernel's buffers are shared): meters run on the workload's main
// thread only.
class SpeedMeter {
 public:
  static constexpr double kTickSeconds = 0.05;

  struct Reading {
    double factor = 1.0;
    double kernel_s = 0.0;  // CPU seconds of the kernel units run by Tick()
  };

  // Opens a unit (times kBracketUnits kernel units).
  void Begin();
  // Between the timed calls of a unit: times one kernel unit when
  // kTickSeconds of this thread's CPU time have passed since the last.
  // Otherwise costs one clock read. A unit timed around Tick() calls
  // subtracts Reading::kernel_s.
  void Tick();
  // Closes the unit (times kBracketUnits more) and returns its reading.
  Reading End();
  // Median factor over every unit so far.
  double MedianFactor() const;

 private:
  static constexpr int kBracketUnits = 3;
  void TimeUnit();

  std::vector<double> unit_s_;
  double tick_kernel_s_ = 0.0;
  double last_cpu_s_ = 0.0;
  std::vector<double> factors_;
};

// --- Percentile rule ---------------------------------------------------------

// The highest percentile of {99.9, 99, 95, 90, 75, 50} that has at least ten
// of `n` samples beyond it, in tenths of a percent (990 = p99). Returns 0
// when even the median has fewer than ten samples above it.
int TailPermille(size_t n);

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample; 0 for
// an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// A latency distribution summarised by its median and the tail percentile
// the rule above allows.
struct Dist {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;        // value at tail_permille
  int tail_permille = 0;    // 990 when the sample supports p99
  double max = 0.0;
  double sum = 0.0;
};
// The tail is the highest percentile the rule allows, capped at p99 so a
// metric keeps its name when samples are plentiful.
Dist Summarize(const std::vector<double>& values);

// "99" for 990, "99.9" for 999.
std::string FormatPermille(int permille);

// --- Spans -------------------------------------------------------------------

// One timed call into a layer. Spans nest per thread: `parent` is the span
// open on the same thread when this one began (-1 for roots). Spans that
// belong to one request share `request` (-1 when the call serves no single
// request, e.g. a whole simulation).
struct Span {
  const char* name = "";
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
  int32_t parent = -1;
  int32_t thread = 0;
  int64_t request = -1;
};

// Process-wide in-memory span store. Disabled (the default) it records
// nothing and costs one branch per call site; spans are only written out
// when the benchmark ends.
class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Opens a span on the calling thread; returns its id (-1 when disabled).
  int Begin(const char* name, int64_t request = -1);
  void End(int id);
  // Records a finished span with explicit times, for work that crosses
  // threads (a request sent by one thread and answered on another).
  int Record(const char* name, Clock::time_point t0, Clock::time_point t1, int parent,
             int64_t request);

  std::vector<Span> Take();

 private:
  int64_t NowNs() const;

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) {
      Tracer::Get().End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// Per-name totals over a span list: count, summed duration, and self time
// (duration minus the part covered by the span's children).
struct SpanTotals {
  size_t count = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

// Writes `spans` as Chrome trace_event JSON (the TraceRecorder format that
// src/sim/chrome_export uses), one track per recording thread.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

// --- Open-loop schedule ------------------------------------------------------

// What one scheduled request does against the serving daemon.
enum class OpKind : uint8_t { kSubmit, kCancel, kFailNode, kRecoverNode, kQuery, kStats };
const char* OpKindName(OpKind kind);

struct ScheduledOp {
  double due_s = 0.0;   // offset from the start of the load phase
  OpKind kind = OpKind::kQuery;
  int rung = 0;         // index into ServeLoadConfig::rates
  uint32_t arg = 0;     // submit: job-mix index; cancel/query: k-th accepted
                        // submit to target; fail/recover: node id
};

// The write side of the mix is fixed: submits at kSubmitRate, a
// kCancelShare of them cancelled 0.5-1.5 s later, and a fail-node /
// recover-node pair every kFailEverySeconds. Reads are `stats` with
// probability kStatsShare, `query` otherwise.
inline constexpr double kSubmitRate = 120.0;
inline constexpr double kCancelShare = 0.02;
inline constexpr double kFailEverySeconds = 2.0;
inline constexpr double kStatsShare = 0.01;

struct ServeLoadConfig {
  // Total offered request rates (1/s) and how long each is offered, one rung
  // after another.
  std::vector<double> rates;
  std::vector<double> rung_seconds;
  int num_nodes = 1;          // fail-node targets are drawn from [0, num_nodes)
  uint32_t job_mix = 1;       // number of distinct submit bodies

  double total_seconds() const;
  // Rung offered at `t` seconds into the load (the last rung past the end).
  int RungAt(double t) const;
};

// Deterministic in (config, seed): arrivals are Poisson within each rung,
// reads fill each rung's rate above the writes. Sorted by due time.
std::vector<ScheduledOp> BuildOpenLoopSchedule(const ServeLoadConfig& config, uint64_t seed);

// --- Result ------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Collects one run's outcome and prints the contract's result line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Records a correctness check; a failing check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  // Human-readable line (stdout) for a quantity the result line does not
  // carry, e.g. the workload's own name for a generic metric.
  void Note(const std::string& name, double value, const std::string& unit);

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct() const { return correct_; }

  // Prints every metric, then the JSON result line (last line of stdout).
  void Print() const;

 private:
  std::map<std::string, Metric> metrics_;
  bool correct_ = true;
};

// --- Misc --------------------------------------------------------------------

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// FNV-1a 64-bit digest of a byte string.
uint64_t Fnv1a(const std::string& bytes);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_

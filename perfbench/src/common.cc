#include "src/common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <random>

#include "src/util/stats.h"
#include "src/util/trace.h"

namespace perfbench {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- Host speed --------------------------------------------------------------

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// One pass of the kernel: the kinds of work the library does most -- hash
// probes, a sort, binary searches, floating point -- on a fixed input. It
// works in buffers allocated once, so the library's heap (how fragmented it
// left the allocator) cannot change its speed. Returns a checksum so nothing
// is optimised away.
double CalibrationPass() {
  constexpr size_t kKeys = 1 << 13;
  constexpr size_t kSlots = kKeys * 2;  // open addressing, load factor 0.5
  struct Slot {
    uint64_t key;
    double value;
  };
  static std::vector<Slot> table(kSlots);
  static std::vector<double> values(kKeys);
  std::fill(table.begin(), table.end(), Slot{0, 0.0});
  uint64_t state = 42;
  for (size_t i = 0; i < kKeys; ++i) {
    const uint64_t key = (SplitMix64(&state) & 0xfffff) + 1;  // 0 marks an empty slot
    uint64_t h = key;
    size_t slot = SplitMix64(&h) & (kSlots - 1);
    while (table[slot].key != 0 && table[slot].key != key) {
      slot = (slot + 1) & (kSlots - 1);
    }
    table[slot].key = key;
    table[slot].value += std::sqrt(static_cast<double>(i) + 1.0);
  }
  const auto begin = values.begin();
  auto end = values.begin();
  for (const Slot& slot : table) {
    if (slot.key != 0) {
      *end++ = slot.value * 1.000001 + static_cast<double>(slot.key & 0xff);
    }
  }
  std::sort(begin, end);
  double acc = 0.0;
  for (size_t i = 0; i < kKeys; ++i) {
    const double probe = static_cast<double>(SplitMix64(&state) % 4096);
    const auto it = std::lower_bound(begin, end, probe);
    acc += std::log1p(it == end ? probe : *it);
  }
  return acc;
}

// One unit of the kernel; returns its thread CPU seconds.
double CalibrationUnitSeconds() {
  constexpr int kPasses = 5;
  static volatile double sink = 0.0;
  const double t0 = ThreadCpuSeconds();
  double acc = 0.0;
  for (int i = 0; i < kPasses; ++i) {
    acc += CalibrationPass();
  }
  const double seconds = ThreadCpuSeconds() - t0;
  sink = sink + acc;
  return seconds;
}

}  // namespace

void SpeedMeter::TimeUnit() {
  unit_s_.push_back(CalibrationUnitSeconds());
  last_cpu_s_ = ThreadCpuSeconds();
}

void SpeedMeter::Begin() {
  unit_s_.clear();
  tick_kernel_s_ = 0.0;
  for (int i = 0; i < kBracketUnits; ++i) {
    TimeUnit();
  }
}

void SpeedMeter::Tick() {
  const double now = ThreadCpuSeconds();
  if (now - last_cpu_s_ >= kTickSeconds) {
    TimeUnit();
    tick_kernel_s_ += last_cpu_s_ - now;
  }
}

SpeedMeter::Reading SpeedMeter::End() {
  for (int i = 0; i < kBracketUnits; ++i) {
    TimeUnit();
  }
  factors_.push_back(kCalibrationRefSeconds / Median(unit_s_));
  return {factors_.back(), tick_kernel_s_};
}

double SpeedMeter::MedianFactor() const { return factors_.empty() ? 1.0 : Median(factors_); }

// --- Percentile rule ---------------------------------------------------------

int TailPermille(size_t n) {
  // Samples beyond the p-th percentile: n * (1000 - permille) / 1000.
  for (const int permille : {999, 990, 950, 900, 750, 500}) {
    if (static_cast<uint64_t>(n) * static_cast<uint64_t>(1000 - permille) >= 10000) {
      return permille;
    }
  }
  return 0;
}

double Percentile(std::vector<double> values, double p) {
  return values.empty() ? 0.0 : crius::Percentile(std::move(values), p);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

std::string FormatPermille(int permille) {
  std::string out = std::to_string(permille / 10);
  if (permille % 10 != 0) {
    out += "." + std::to_string(permille % 10);
  }
  return out;
}

Dist Summarize(const std::vector<double>& values) {
  Dist d;
  d.n = values.size();
  if (values.empty()) {
    return d;
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  d.p50 = crius::Percentile(sorted, 50.0);
  d.tail_permille = std::min(TailPermille(sorted.size()), 990);
  // Too few samples for any tail: report the maximum and say so (permille 0).
  d.tail = d.tail_permille > 0 ? crius::Percentile(sorted, d.tail_permille / 10.0)
                               : sorted.back();
  d.max = sorted.back();
  for (const double v : sorted) {
    d.sum += v;
  }
  return d;
}

// --- Spans -------------------------------------------------------------------

namespace {

std::atomic<int32_t> g_next_thread{0};

struct ThreadState {
  int32_t thread = g_next_thread.fetch_add(1);
  std::vector<int> open;  // ids of the spans open on this thread
};

ThreadState& LocalThread() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

int Tracer::Begin(const char* name, int64_t request) {
  if (!enabled()) {
    return -1;
  }
  ThreadState& local = LocalThread();
  Span span;
  span.name = name;
  span.parent = local.open.empty() ? -1 : local.open.back();
  span.thread = local.thread;
  span.request = request;
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    span.t0_ns = NowNs();
    spans_.push_back(span);
  }
  local.open.push_back(id);
  return id;
}

void Tracer::End(int id) {
  const int64_t now = NowNs();
  ThreadState& local = LocalThread();
  if (!local.open.empty() && local.open.back() == id) {
    local.open.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].t1_ns = now;
}

int Tracer::Record(const char* name, Clock::time_point t0, Clock::time_point t1, int parent,
                   int64_t request) {
  if (!enabled()) {
    return -1;
  }
  Span span;
  span.name = name;
  span.t0_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - epoch_).count();
  span.t1_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - epoch_).count();
  span.parent = parent;
  span.thread = LocalThread().thread;
  span.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] += (s.t1_ns - s.t0_ns) * 1e-9;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur = (spans[i].t1_ns - spans[i].t0_ns) * 1e-9;
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.busy_s += dur;
    t.self_s += dur - child_s[i];
  }
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  crius::TraceRecorder recorder;
  std::map<int32_t, int> tracks;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto it = tracks.find(s.thread);
    if (it == tracks.end()) {
      it = tracks
               .emplace(s.thread, recorder.Track(crius::TraceRecorder::kRealtimePid,
                                                 "perfbench thread " + std::to_string(s.thread)))
               .first;
    }
    char args[128];
    std::snprintf(args, sizeof(args), "{\"id\": %zu, \"parent\": %d, \"request\": %" PRId64 "}",
                  i, s.parent, s.request);
    recorder.CompleteEvent(it->second, s.name, s.t0_ns / 1e3, (s.t1_ns - s.t0_ns) / 1e3, args);
  }
  return recorder.WriteJsonFile(path);
}

// --- Open-loop schedule ------------------------------------------------------

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSubmit:
      return "submit";
    case OpKind::kCancel:
      return "cancel";
    case OpKind::kFailNode:
      return "fail-node";
    case OpKind::kRecoverNode:
      return "recover-node";
    case OpKind::kQuery:
      return "query";
    case OpKind::kStats:
      return "stats";
  }
  return "?";
}

double ServeLoadConfig::total_seconds() const {
  double total = 0.0;
  for (const double s : rung_seconds) {
    total += s;
  }
  return total;
}

int ServeLoadConfig::RungAt(double t) const {
  int rung = 0;
  for (double end = rung_seconds[0]; t >= end && rung + 1 < static_cast<int>(rung_seconds.size());
       end += rung_seconds[static_cast<size_t>(++rung)]) {
  }
  return rung;
}

std::vector<ScheduledOp> BuildOpenLoopSchedule(const ServeLoadConfig& config, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto exp_gap = [&](double rate) { return -std::log(1.0 - unit(rng)) / rate; };
  const double total_s = config.total_seconds();
  auto rung_of = [&](double t) { return config.RungAt(t); };

  std::vector<ScheduledOp> ops;
  // Writes: Poisson submits over the whole load phase; a share of them is
  // cancelled 0.5-1.5 s later (the k-th submit is named by `arg`, resolved to
  // its job id when the cancel is sent).
  uint32_t submits = 0;
  for (double t = exp_gap(kSubmitRate); t < total_s; t += exp_gap(kSubmitRate)) {
    ops.push_back({t, OpKind::kSubmit, rung_of(t),
                   static_cast<uint32_t>(rng() % std::max<uint32_t>(1, config.job_mix))});
    if (unit(rng) < kCancelShare) {
      const double when = t + 0.5 + unit(rng);
      if (when < total_s) {
        ops.push_back({when, OpKind::kCancel, rung_of(when), submits});
      }
    }
    ++submits;
  }
  // A fail-node / recover-node pair every fail_every_s.
  for (double t = kFailEverySeconds / 2; t + kFailEverySeconds / 2 < total_s;
       t += kFailEverySeconds) {
    const uint32_t node = static_cast<uint32_t>(rng() % std::max(1, config.num_nodes));
    ops.push_back({t, OpKind::kFailNode, rung_of(t), node});
    const double back = t + kFailEverySeconds / 2;
    ops.push_back({back, OpKind::kRecoverNode, rung_of(back), node});
  }
  // Reads fill each rung up to its total offered rate.
  const double write_rate = kSubmitRate * (1.0 + kCancelShare);
  double begin = 0.0;
  for (size_t r = 0; r < config.rates.size(); begin += config.rung_seconds[r++]) {
    const double rate = config.rates[r] - write_rate;
    if (rate <= 0.0) {
      continue;
    }
    const double end = begin + config.rung_seconds[r];
    for (double t = begin + exp_gap(rate); t < end; t += exp_gap(rate)) {
      const bool stats = unit(rng) < kStatsShare;
      ops.push_back({t, stats ? OpKind::kStats : OpKind::kQuery, static_cast<int>(r),
                     static_cast<uint32_t>(rng() >> 32)});
    }
  }
  std::stable_sort(ops.begin(), ops.end(), [](const ScheduledOp& a, const ScheduledOp& b) {
    return a.due_s < b.due_s;
  });
  return ops;
}

// --- Result ------------------------------------------------------------------

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  std::printf("check %-40s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.empty() ? "" : "  ", detail.c_str());
  correct_ = correct_ && ok;
}

void Report::Note(const std::string& name, double value, const std::string& unit) {
  std::printf("note  %-40s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Print() const {
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-38s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// --- Misc --------------------------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench

// The benchmark's workloads. Each fills a Report with every end-to-end
// metric (untraced run) or every per-layer metric (traced run) and records
// its correctness checks; see perfbench/README.md for what each measures.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "src/common.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Run output (Chrome traces, the serve socket), relative to the checkout root
// the benchmark runs from.
inline constexpr char kOutDir[] = ".perfbench_out";

// Set-up is repeated and setup_s is the median: at least five times, more
// while the repeats together took under a second (cheap set-ups need more
// samples for a steady median), at most 25.
inline bool MoreSetups(size_t done, double elapsed_s) {
  return done < 5 || (elapsed_s < 1.0 && done < 25);
}

// Every per-layer metric, zeroed: a traced run reports all of them and each
// workload overwrites the layers it exercises.
void SetLayerDefaults(Report* report);

// Writes a traced run's spans as .perfbench_out/trace-<workload>-seed<N>.json
// and records the write as a check.
void WriteTraceFile(const RunOptions& options, const std::vector<Span>& spans, Report* report);

// Each workload fixes its pool size and connection count and prints them on
// its first line.
void RunSimWorkload(const RunOptions& options, Report* report);
void RunPlanWorkload(const RunOptions& options, Report* report);
void RunServeWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_

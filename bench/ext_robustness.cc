// Extension: seed robustness of the headline comparison.
//
// The paper evaluates one trace per setting; this study re-synthesizes the
// testbed workload under several seeds and checks that Crius's advantage is a
// property of the system, not of one lucky arrival pattern. Reported: per-seed
// average JCT for every scheduler, plus mean +/- stddev of Crius's relative
// JCT advantage over each baseline and the number of seeds Crius wins.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using namespace crius;
  int64_t threads = 1;
  FlagSet flags("ext_robustness", "seed robustness of the headline comparison");
  flags.Int("threads", &threads, "seed runs in parallel (1..4096)");
  if (!flags.Parse(argc, argv) || !SetBenchThreads(threads)) {
    return 1;
  }
  Cluster cluster = MakePhysicalTestbed();

  const uint64_t seeds[] = {11, 23, 42, 77, 101};
  const int num_seeds = static_cast<int>(std::size(seeds));

  Table per_seed("Robustness: avg JCT (minutes) per seed, 244-job testbed trace");

  // Each seed builds its own oracle/trace/schedulers, so whole seed runs fan
  // out over the pool into independent slots; the table below is assembled
  // sequentially, making the output identical across thread counts.
  struct SeedRun {
    std::vector<std::string> names;
    std::vector<double> jcts;
  };
  std::vector<SeedRun> runs(static_cast<size_t>(num_seeds));
  ThreadPool::Global().ParallelFor(static_cast<size_t>(num_seeds), [&](size_t si) {
    PerformanceOracle oracle(cluster, seeds[si]);
    TraceConfig config = PhillySixHourConfig();
    config.seed = seeds[si];
    const auto trace = GenerateTrace(cluster, oracle, config);
    for (auto& sched : MakeAllSchedulers(&oracle)) {
      Simulator sim(cluster, SimConfig{});
      const SimResult r = sim.Run(*sched, oracle, trace);
      runs[si].names.push_back(r.scheduler);
      runs[si].jcts.push_back(r.avg_jct);
    }
  });

  const std::vector<std::string>& names = runs[0].names;
  // results[scheduler][seed] = avg JCT.
  std::vector<std::vector<double>> jcts(names.size());
  for (size_t sc = 0; sc < names.size(); ++sc) {
    for (int si = 0; si < num_seeds; ++si) {
      jcts[sc].push_back(runs[static_cast<size_t>(si)].jcts[sc]);
    }
  }

  {
    std::vector<std::string> header = {"scheduler"};
    for (int si = 0; si < num_seeds; ++si) {
      header.push_back("seed " + std::to_string(seeds[si]));
    }
    header.push_back("mean");
    per_seed.SetHeader(header);
    for (size_t sc = 0; sc < names.size(); ++sc) {
      std::vector<std::string> row = {names[sc]};
      for (double v : jcts[sc]) {
        row.push_back(Table::Fmt(v / kMinute, 0));
      }
      row.push_back(Table::Fmt(Mean(jcts[sc]) / kMinute, 0));
      per_seed.AddRow(row);
    }
    per_seed.Print();
  }

  Table summary("Crius's JCT advantage across seeds");
  summary.SetHeader({"baseline", "mean reduction", "stddev", "seeds won"});
  const std::vector<double>& crius = jcts.back();
  for (size_t sc = 0; sc + 1 < names.size(); ++sc) {
    std::vector<double> reductions;
    int wins = 0;
    for (int si = 0; si < num_seeds; ++si) {
      reductions.push_back(1.0 - crius[static_cast<size_t>(si)] /
                                     jcts[sc][static_cast<size_t>(si)]);
      wins += crius[static_cast<size_t>(si)] < jcts[sc][static_cast<size_t>(si)];
    }
    summary.AddRow({names[sc], Table::FmtPercent(Mean(reductions)),
                    Table::FmtPercent(StdDev(reductions)),
                    Table::FmtInt(wins) + "/" + Table::FmtInt(num_seeds)});
  }
  summary.Print();
  return 0;
}

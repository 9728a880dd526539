// Crius's Cell-based scheduler (§6, Algorithm 1).
//
// Every scheduling round the scheduler rebuilds a virtual placement of all
// active jobs from Cells: running jobs start from their current Cell, queued
// jobs are placed FIFO into free capacity, and when capacity is short the
// scheduler searches up to `search_depth` resource-scaling moves (downscaling
// running jobs or exchanging their GPU type) that maximize total estimated
// normalized throughput. Released capacity is then fed back to running jobs
// (the Algorithm-1 "extra scheduling"). Placement decisions rank Cells by
// Crius's agile estimates; the tuned plan is only computed for Cells that are
// actually scheduled.
//
// Ablation flags reproduce §8.6's variants: disabling adaptivity scaling pins
// every job to its requested GPU count (Crius-NA); disabling heterogeneity
// scaling pins it to its requested GPU type (Crius-NH). The deadline-aware
// variant (Crius-DDL, §8.5) admission-drops jobs that cannot meet their
// deadline and refuses scaling moves that would break an admitted deadline.

#ifndef SRC_SCHED_CRIUS_SCHED_H_
#define SRC_SCHED_CRIUS_SCHED_H_

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/cell.h"
#include "src/power/power.h"
#include "src/sched/scheduler.h"
#include "src/util/gen_memo.h"

namespace crius {

// Cluster-level objective Crius optimizes when ranking scheduling choices
// (§6: "Crius is easy to adapt to other scheduling objectives").
enum class CriusObjective : uint8_t {
  // Maximize the sum of normalized estimated throughput (the paper's default).
  kMaxThroughput,
  // Max-min fairness: spare capacity goes to the job with the lowest
  // normalized throughput (water-filling), Themis-style.
  kMaxMinFairness,
};

// Order in which queued jobs are offered placement. The paper's Algorithm 1
// is FIFO; §6 notes solver-style enhancements are orthogonal -- kBestOfAll is
// a cheap instance: run every ordering virtually and keep the one with the
// highest total estimated throughput.
enum class CriusPlacementOrder : uint8_t {
  kFifo,           // arrival order (the paper's policy)
  kScoreDensity,   // highest estimated-throughput-per-GPU first
  kSmallestFirst,  // fewest requested GPUs first
  kBestOfAll,      // evaluate all of the above, keep the best-scoring outcome
};

struct CriusConfig {
  // Maximum job-scaling moves explored per scheduling choice (Fig. 21).
  int search_depth = 3;
  // Cluster objective for the upscale phase.
  CriusObjective objective = CriusObjective::kMaxThroughput;
  // Queued-job placement order (deadline-aware mode always uses EDF).
  CriusPlacementOrder placement_order = CriusPlacementOrder::kFifo;
  // GPU-count scaling (§8.6 adaptivity scaling; false = Crius-NA).
  bool adaptivity_scaling = true;
  // GPU-type scaling (§8.6 heterogeneity scaling; false = Crius-NH).
  bool heterogeneity_scaling = true;
  // Deadline-aware policy (§8.5; Crius-DDL).
  bool deadline_aware = false;
  // Launch later queued jobs while a larger one pends (§6.1).
  bool opportunistic = true;
  // Upper bound on upscale moves applied per round.
  int max_upscale_moves = 12;
  // Multi-objective weights (src/power). Default (pure throughput) leaves
  // every decision bit-identical to the single-objective scheduler; any other
  // weight vector switches placement/upscale ranking to the composite score
  // (throughput - energy - stranding-fragmentation + fairness) alongside the
  // coarse `objective` above.
  MultiObjectiveConfig multi;
};

class CriusScheduler : public Scheduler {
 public:
  CriusScheduler(PerformanceOracle* oracle, CriusConfig config);

  std::string name() const override;

  ScheduleDecision Schedule(const RoundContext& round) override;

  // §8.2: Cells are profiled on one GPU per type, in parallel across types,
  // bounded by 30 minutes.
  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override;

  const CriusConfig& config() const { return config_; }

 private:
  struct CellChoice {
    Cell cell;
    double score = 0.0;  // estimated normalized throughput
  };
  struct JobCells {
    std::vector<CellChoice> choices;  // sorted by score, descending
    double ref_throughput = 0.0;      // estimate at the requested shape
  };
  // Virtual placement of one job during a scheduling pass. `cells` caches the
  // job's memoized ranking, resolved exactly once per pass, so the placement
  // loops (including the density sort comparator) never look up the memo
  // mid-pass.
  struct VirtualJob {
    const JobState* state = nullptr;
    const JobCells* cells = nullptr;
    double density = 0.0;  // best score per requested GPU (kScoreDensity order)
    std::optional<Cell> cell;
    double score = 0.0;
    bool opportunistic = false;
  };

  // The scored Cell candidates for `job` under the ablation flags: a pure
  // function of (job, cluster health). Uses the candidates_/batch_ scratch.
  JobCells ComputeCells(const TrainingJob& job, const Cluster& cluster);

  // Fills *out with the job's candidate Cells minus those the ablation flags
  // prune (Crius-NH pins the type, Crius-NA the size) and returns the count
  // before pruning. The single source for both the Cells that are ranked and
  // the Cells charged for profiling.
  size_t PrunedCandidates(const TrainingJob& job, const Cluster& cluster,
                        std::vector<Cell>* out) const;

  // Cell candidates for `job`, scored and memoized under the cluster's
  // current (identity, health_epoch) stamp.
  const JobCells& CellsFor(const TrainingJob& job, const Cluster& cluster);

  // Round-start memo maintenance. The memo persists across rounds: when the
  // health epoch moved AND the round's event delta reports the health
  // changes, only entries whose §6.1 candidate-size set actually changed (a
  // per-type capacity cap crossed one of the job's three candidate sizes) are
  // re-ranked; the rest are restamped in place. Falls back to a full re-rank
  // when the cluster identity changed or the epoch moved with an empty-handed
  // event delta. Always evicts entries for jobs no longer in the round and
  // warms missing entries.
  void SyncCellsCache(const RoundContext& round);

  // One full virtual-scheduling pass with a fixed queued-job order; also
  // returns the decision's total estimated normalized throughput. Pure
  // function of (now, jobs, cluster, order).
  std::pair<ScheduleDecision, double> ScheduleOnce(double now,
                                                   const std::vector<const JobState*>& jobs,
                                                   const Cluster& cluster,
                                                   CriusPlacementOrder order);

  CriusConfig config_;
  // Watt table backing the composite energy term; only read when
  // config_.multi carries a non-zero energy weight.
  PowerModel power_model_ = PowerModel::Default();
  // Generation-stamped ranking memo: job id -> scored Cells, stamped with the
  // (Cluster identity, health epoch) the entry was computed under. The
  // identity nonce catches a scheduler being handed a different Cluster
  // object whose epoch happens to match (e.g. a fresh cluster also at epoch
  // 0, or one reusing a freed address) so it cannot keep rankings computed
  // against hardware that no longer exists.
  GenStampedMemo<int64_t, JobCells> cells_memo_;
  // Stamp of the previous round's sync, plus the per-type candidate-size caps
  // (FloorPowerOfTwo of usable capacity) observed then -- the inputs the
  // dirty-set predicate diffs against.
  MemoStamp cells_stamp_;
  std::array<int, kNumGpuTypes> cells_caps_{};
  bool cells_stamp_known_ = false;
  // Job count of the previous round: the steady fast path requires it to be
  // unchanged so eventless callers that shrink the job set still get the
  // eviction sweep.
  size_t cells_jobs_seen_ = 0;
  // Scratch reused across rounds so the steady-state sync, ranking and
  // placement paths do no heap allocation. A scheduler is used by one thread
  // at a time.
  std::vector<int64_t> active_ids_;
  std::vector<const JobState*> missing_;
  std::vector<Cell> candidates_;
  CellBatchResult batch_;
  std::vector<VirtualJob> vjobs_;
  std::vector<size_t> queued_order_;
  // The round's rankings resolved once per sync, positionally aligned with
  // round.jobs(): ScheduleOnce passes read these pointers instead of doing a
  // memo lookup per job per pass. Valid between syncs because memo entries
  // are never mutated in place and maintenance only runs in SyncCellsCache;
  // the id tag guards positional reads for ad-hoc callers.
  std::vector<std::pair<int64_t, const JobCells*>> cells_snapshot_;
};

// Literal Algorithm 1 reference: every Schedule() call runs on a freshly
// built CriusScheduler (same oracle and config), whose ranking memo is empty,
// so each round re-ranks every job from scratch. ProfilingDelay forwards to
// one persistent instance. The equivalence test and bench/ext_rounds compare
// the memoized scheduler against it; decisions must be bit-identical.
class FreshCriusScheduler : public Scheduler {
 public:
  FreshCriusScheduler(PerformanceOracle* oracle, CriusConfig config)
      : Scheduler(oracle), profiler_(oracle, config) {}

  std::string name() const override { return profiler_.name(); }

  ScheduleDecision Schedule(const RoundContext& round) override {
    return CriusScheduler(oracle_, profiler_.config()).Schedule(round);
  }

  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override {
    return profiler_.ProfilingDelay(job, cluster);
  }

 private:
  CriusScheduler profiler_;
};

}  // namespace crius

#endif  // SRC_SCHED_CRIUS_SCHED_H_

#include "src/sched/crius_sched.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>

#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/mathutil.h"
#include "src/util/trace.h"

namespace crius {

namespace {

// Minimum relative estimated-throughput gain before a running job is
// re-scheduled in the upscale phase; keeps restart counts low (§8.4).
constexpr double kMoveGainThreshold = 0.05;
// Pending queued jobs that get the full scaling search per round; the rest
// only try free capacity (bounds per-round scheduling overhead).
constexpr int kMaxSearchJobs = 8;

// Per-type candidate-size cap, exactly as GenerateCellsUpTo derives it:
// FloorPowerOfTwo of the usable capacity, 0 when the type is absent or fully
// failed. Cached Cell rankings are a pure function of the job and these caps
// (slowdowns are applied at execution time, never in the oracle's what-if
// estimates), so diffing caps across rounds identifies exactly the entries a
// health change can dirty.
std::array<int, kNumGpuTypes> CandidateCaps(const Cluster& cluster) {
  std::array<int, kNumGpuTypes> caps{};
  for (GpuType type : AllGpuTypes()) {
    if (!cluster.HasType(type)) {
      continue;
    }
    const int usable = cluster.UsableGpus(type);
    caps[static_cast<int>(type)] =
        usable < 1 ? 0 : static_cast<int>(FloorPowerOfTwo(usable));
  }
  return caps;
}

// True when the §6.1 candidate GPU sizes ({N_G/2, N_G, 2*N_G} clipped to the
// cap) for a job requesting `requested` GPUs differ between caps a and b.
bool CandidateSizesDiffer(int requested, int cap_a, int cap_b) {
  for (const int ngpus : {requested / 2, requested, requested * 2}) {
    if (ngpus < 1) {
      continue;
    }
    if ((ngpus <= cap_a) != (ngpus <= cap_b)) {
      return true;
    }
  }
  return false;
}

using FreeMap = std::array<int, kNumGpuTypes>;

bool Fits(const Cell& cell, const FreeMap& free) {
  return free[static_cast<int>(cell.gpu_type)] >= cell.ngpus;
}

void Take(const Cell& cell, FreeMap& free) {
  free[static_cast<int>(cell.gpu_type)] -= cell.ngpus;
  CRIUS_CHECK(free[static_cast<int>(cell.gpu_type)] >= 0);
}

void Give(const Cell& cell, FreeMap& free) {
  free[static_cast<int>(cell.gpu_type)] += cell.ngpus;
}

}  // namespace

CriusScheduler::CriusScheduler(PerformanceOracle* oracle, CriusConfig config)
    : Scheduler(oracle), config_(config) {
  CRIUS_CHECK(config_.search_depth >= 0);
}

std::string CriusScheduler::name() const {
  if (config_.deadline_aware) {
    return "Crius-DDL";
  }
  if (config_.objective == CriusObjective::kMaxMinFairness) {
    return "Crius-Fair";
  }
  if (!config_.adaptivity_scaling && config_.heterogeneity_scaling) {
    return "Crius-NA";
  }
  if (config_.adaptivity_scaling && !config_.heterogeneity_scaling) {
    return "Crius-NH";
  }
  if (!config_.adaptivity_scaling && !config_.heterogeneity_scaling) {
    return "Crius-static";
  }
  return "Crius";
}

size_t CriusScheduler::PrunedCandidates(const TrainingJob& job, const Cluster& cluster,
                                        std::vector<Cell>* out) const {
  GenerateCellsInto(job, cluster, out);
  const size_t generated = out->size();
  // erase/remove_if keeps the sorted candidate order.
  if (!config_.heterogeneity_scaling || !config_.adaptivity_scaling) {
    out->erase(std::remove_if(out->begin(), out->end(),
                              [&](const Cell& cell) {
                                if (!config_.heterogeneity_scaling &&
                                    cell.gpu_type != job.requested_type) {
                                  return true;
                                }
                                return !config_.adaptivity_scaling &&
                                       cell.ngpus != job.requested_gpus;
                              }),
               out->end());
  }
  return generated;
}

CriusScheduler::JobCells CriusScheduler::ComputeCells(const TrainingJob& job,
                                                      const Cluster& cluster) {
  CRIUS_TRACE_SPAN("sched.cells_for");
  JobCells jc;
  const size_t considered = PrunedCandidates(job, cluster, &candidates_);
  CRIUS_COUNTER_ADD("sched.cells_considered", static_cast<int64_t>(considered));
  CRIUS_COUNTER_ADD("sched.cells_pruned",
                    static_cast<int64_t>(considered - candidates_.size()));
  oracle_->EstimateCellBatch(
      CellBatchRequest{&job.spec, candidates_.data(), candidates_.size()}, &batch_);
  int64_t infeasible = 0;
  jc.choices.reserve(candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const double thr = batch_.throughput[i];
    if (thr <= 0.0) {
      ++infeasible;
      continue;  // infeasible Cell
    }
    jc.choices.push_back(CellChoice{candidates_[i], thr});
    if (candidates_[i].ngpus == job.requested_gpus) {
      jc.ref_throughput = std::max(jc.ref_throughput, thr);
    }
  }
  if (infeasible > 0) {
    CRIUS_COUNTER_ADD("sched.cells_infeasible", infeasible);
  }
  if (jc.ref_throughput <= 0.0 && !jc.choices.empty()) {
    for (const CellChoice& c : jc.choices) {
      jc.ref_throughput = std::max(jc.ref_throughput, c.score);
    }
  }
  // Normalize scores so cluster throughput sums job fractions of their
  // requested-shape performance.
  for (CellChoice& c : jc.choices) {
    c.score = jc.ref_throughput > 0.0 ? c.score / jc.ref_throughput : 0.0;
  }
  std::stable_sort(jc.choices.begin(), jc.choices.end(),
                   [](const CellChoice& a, const CellChoice& b) { return a.score > b.score; });
  CRIUS_HISTOGRAM_RECORD("sched.cells_per_job", static_cast<double>(jc.choices.size()));
  return jc;
}

const CriusScheduler::JobCells& CriusScheduler::CellsFor(const TrainingJob& job,
                                                         const Cluster& cluster) {
  const MemoStamp stamp{cluster.identity(), cluster.health_epoch()};
  if (const JobCells* hit = cells_memo_.Find(job.id, stamp)) {
    return *hit;
  }
  return cells_memo_.PutIfAbsent(job.id, stamp, ComputeCells(job, cluster));
}

void CriusScheduler::SyncCellsCache(const RoundContext& round) {
  // Phase breakdown of the round's cache work: everything up to the warm-up
  // is memo maintenance ("memo_restamp"); the ComputeCells warm-up is where
  // the oracle estimates run ("estimator"). Both land in the labeled
  // histogram sched.phase_ms next to the "placement" phase recorded by
  // Schedule().
  static Histogram& restamp_ms = CounterRegistry::Global().GetHistogram(
      "sched.phase_ms", MetricLabels{{"phase", "memo_restamp"}});
  static Histogram& estimator_ms = CounterRegistry::Global().GetHistogram(
      "sched.phase_ms", MetricLabels{{"phase", "estimator"}});
  const Cluster& cluster = round.cluster();
  const std::vector<const JobState*>& jobs = round.jobs();
  const MemoStamp stamp{cluster.identity(), cluster.health_epoch()};

  // 0. Steady-round fast path: same cluster, same health epoch, an empty
  // event delta -- the driver's account that no job arrived, departed, or
  // changed phase since last round -- and an unchanged job count. Every memo
  // entry is already stamped current, so maintenance would be a no-op; skip
  // it entirely (including the phase histograms: sched.phase_ms describes
  // maintenance rounds, sched.cells_steady_rounds counts the skipped ones).
  // The count guard covers eventless callers (tests, ad-hoc drivers): when
  // their job set shrinks or grows, the sweep below still runs and evicts
  // departed entries; an eventless same-size *swap* stays correct too
  // (CellsFor computes new jobs lazily), merely deferring eviction to the
  // next uneven round.
  if (cells_stamp_known_ && cells_stamp_ == stamp &&
      round.events().empty() && jobs.size() == cells_jobs_seen_) {
    CRIUS_COUNTER_INC("sched.cells_steady_rounds");
    return;
  }
  const auto t_enter = std::chrono::steady_clock::now();
  const std::array<int, kNumGpuTypes> caps = CandidateCaps(cluster);

  // 1. Pick the maintenance path. The incremental delta path requires the
  // same cluster object as last round and -- when the health epoch moved --
  // an event delta that actually reports the health changes (the
  // RoundContext contract). An empty-handed delta or a cluster identity
  // change (different hardware; cached rankings are meaningless) forces the
  // full re-rank, which is always correct.
  const bool stamp_moved = cells_stamp_known_ && cells_stamp_ != stamp;
  bool full = !cells_stamp_known_ || cells_stamp_.identity != stamp.identity;
  if (!full && cells_stamp_.epoch != stamp.epoch && !round.has_health_events()) {
    full = true;
  }

  if (full) {
    if (stamp_moved && !cells_memo_.empty()) {
      CRIUS_COUNTER_INC("sched.cells_cache_invalidations");
    }
    cells_memo_.Clear();
    CRIUS_COUNTER_INC("sched.cells_full_reranks");
  } else if (cells_stamp_.epoch != stamp.epoch) {
    // 1b. Incremental dirty set: a health change re-ranks a job iff some
    // type's candidate-size cap crossed one of the job's three §6.1 candidate
    // sizes -- only then does GenerateCells emit a different Cell set.
    // Slowdown-only epochs change no caps, so every entry survives. Clean
    // survivors are restamped in place; dirty ones are erased and re-ranked
    // by the warm-up below.
    for (const JobState* js : jobs) {
      const int64_t id = js->job.id;
      if (!cells_memo_.Contains(id)) {
        continue;
      }
      bool dirty = false;
      for (int t = 0; t < kNumGpuTypes; ++t) {
        if (caps[t] != cells_caps_[t] &&
            CandidateSizesDiffer(js->job.requested_gpus, cells_caps_[t], caps[t])) {
          dirty = true;
          break;
        }
      }
      if (dirty) {
        cells_memo_.Erase(id);
        CRIUS_COUNTER_INC("sched.cells_dirty_reranks");
      } else {
        cells_memo_.Restamp(id, stamp);
        CRIUS_COUNTER_INC("sched.cells_kept_incremental");
      }
    }
  }
  cells_stamp_ = stamp;
  cells_caps_ = caps;
  cells_stamp_known_ = true;
  cells_jobs_seen_ = jobs.size();

  // 2. Evict entries for jobs that left the system (completed, killed, or
  // dropped): without this the memo grows without bound over a trace. The
  // event delta names departures and drops, but the sweep also covers callers
  // that pass no events.
  active_ids_.clear();
  for (const JobState* js : jobs) {
    active_ids_.push_back(js->job.id);
  }
  std::sort(active_ids_.begin(), active_ids_.end());
  const size_t evicted = cells_memo_.EvictIf([&](int64_t id, const MemoStamp&) {
    return !std::binary_search(active_ids_.begin(), active_ids_.end(), id);
  });
  if (evicted > 0) {
    CRIUS_COUNTER_ADD("sched.cells_cache_evictions", static_cast<int64_t>(evicted));
  }

  // 3. Warm missing entries (arrivals + dirtied), in job order.
  missing_.clear();
  for (const JobState* js : jobs) {
    if (cells_memo_.Find(js->job.id, stamp) == nullptr) {
      missing_.push_back(js);
    }
  }
  const auto t_maintained = std::chrono::steady_clock::now();
  restamp_ms.Record(
      std::chrono::duration<double, std::milli>(t_maintained - t_enter).count());
  if (missing_.empty()) {
    estimator_ms.Record(0.0);
  } else {
    CRIUS_TRACE_SPAN_ARGS("sched.cells_warmup",
                          "{\"jobs\": " + std::to_string(missing_.size()) + "}");
    for (const JobState* js : missing_) {
      CellsFor(js->job, cluster);
    }
    estimator_ms.Record(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t_maintained)
                            .count());
  }

  // 4. Resolve every job's ranking once into the positional snapshot the
  // ScheduleOnce passes (and all steady rounds until the next sync) read
  // instead of a memo lookup per job per pass.
  cells_snapshot_.clear();
  for (const JobState* js : jobs) {
    cells_snapshot_.emplace_back(js->job.id, &CellsFor(js->job, cluster));
  }
}

double CriusScheduler::ProfilingDelay(const TrainingJob& job, const Cluster& cluster) {
  std::array<double, kNumGpuTypes> per_type{};
  // Ablation variants never rank pruned Cells, so they are not charged the
  // GPU-seconds to profile them either.
  PrunedCandidates(job, cluster, &candidates_);
  oracle_->EstimateCellBatch(
      CellBatchRequest{&job.spec, candidates_.data(), candidates_.size()}, &batch_);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    per_type[static_cast<int>(candidates_[i].gpu_type)] +=
        batch_.estimates[i]->profile_gpu_seconds;
  }
  // Heterogeneous GPU types profile in parallel, one device each (§6.1);
  // Crius bounds the total at 30 minutes (§8.2).
  double delay = 0.0;
  for (double t : per_type) {
    delay = std::max(delay, t);
  }
  return std::min(delay, 1800.0);
}

ScheduleDecision CriusScheduler::Schedule(const RoundContext& round) {
  const double now = round.now();
  const std::vector<const JobState*>& jobs = round.jobs();
  const Cluster& cluster = round.cluster();
  CRIUS_COUNTER_INC("sched.rounds");
  CRIUS_HISTOGRAM_RECORD("sched.round_jobs", static_cast<double>(jobs.size()));
  CRIUS_SCOPED_TIMER_MS("sched.round_ms");
  CRIUS_TRACE_SPAN_ARGS("sched.round",
                        "{\"jobs\": " + std::to_string(jobs.size()) + "}");
  // Round-start memo maintenance + warm-up: after this every job's ranking
  // is in the snapshot the passes below read.
  SyncCellsCache(round);
  // "placement" phase: the ScheduleOnce pass(es) that enumerate placements.
  static Histogram& placement_ms = CounterRegistry::Global().GetHistogram(
      "sched.phase_ms", MetricLabels{{"phase", "placement"}});
  counters_internal::ScopedTimerMs placement_timer(placement_ms);
  if (config_.placement_order != CriusPlacementOrder::kBestOfAll || config_.deadline_aware) {
    return ScheduleOnce(now, jobs, cluster, config_.placement_order).first;
  }
  // Solver-lite: evaluate every ordering virtually and keep the outcome with
  // the highest total estimated throughput; ties keep the earlier ordering.
  std::pair<ScheduleDecision, double> best{ScheduleDecision{}, -1.0};
  for (const CriusPlacementOrder order :
       {CriusPlacementOrder::kFifo, CriusPlacementOrder::kScoreDensity,
        CriusPlacementOrder::kSmallestFirst}) {
    std::pair<ScheduleDecision, double> candidate = ScheduleOnce(now, jobs, cluster, order);
    if (candidate.second > best.second) {
      best = std::move(candidate);
    }
  }
  return best.first;
}

std::pair<ScheduleDecision, double> CriusScheduler::ScheduleOnce(
    double now, const std::vector<const JobState*>& jobs, const Cluster& cluster,
    CriusPlacementOrder order) {
  CRIUS_TRACE_SPAN("sched.pass");
  ScheduleDecision decision;

  FreeMap free{};
  for (GpuType type : AllGpuTypes()) {
    free[static_cast<int>(type)] = cluster.UsableGpus(type);
  }

  // --- Virtual state: running jobs keep their Cells ------------------------
  // Each job's ranking is read from the positional snapshot SyncCellsCache
  // resolved (the id tag catches ad-hoc callers whose job set drifted from
  // the last sync, which fall back to the memo).
  vjobs_.clear();
  queued_order_.clear();
  for (size_t ji = 0; ji < jobs.size(); ++ji) {
    const JobState* js = jobs[ji];
    VirtualJob vj;
    vj.state = js;
    vj.cells = (ji < cells_snapshot_.size() && cells_snapshot_[ji].first == js->job.id)
                   ? cells_snapshot_[ji].second
                   : &CellsFor(js->job, cluster);
    if (js->phase == JobPhase::kRunning) {
      Cell cell{js->gpu_type, js->ngpus, js->nstages};
      double score = 0.0;
      for (const CellChoice& c : vj.cells->choices) {
        if (c.cell == cell) {
          score = c.score;
          break;
        }
      }
      vj.cell = cell;
      vj.score = score;
      vj.opportunistic = js->opportunistic;
      Take(cell, free);
    } else {
      // Density of a queued job: best estimated score per requested GPU.
      const double best = vj.cells->choices.empty() ? 0.0 : vj.cells->choices.front().score;
      vj.density = best / std::max(1, js->job.requested_gpus);
    }
    vjobs_.push_back(vj);
  }
  for (size_t i = 0; i < vjobs_.size(); ++i) {
    if (!vjobs_[i].cell.has_value()) {
      queued_order_.push_back(i);
    }
  }
  std::stable_sort(queued_order_.begin(), queued_order_.end(), [&](size_t a, size_t b) {
    const TrainingJob& ja = vjobs_[a].state->job;
    const TrainingJob& jb = vjobs_[b].state->job;
    if (config_.deadline_aware && ja.deadline.has_value() && jb.deadline.has_value() &&
        *ja.deadline != *jb.deadline) {
      return *ja.deadline < *jb.deadline;  // earliest deadline first
    }
    if (!config_.deadline_aware) {
      if (order == CriusPlacementOrder::kScoreDensity) {
        if (vjobs_[a].density != vjobs_[b].density) {
          return vjobs_[a].density > vjobs_[b].density;
        }
      } else if (order == CriusPlacementOrder::kSmallestFirst) {
        if (ja.requested_gpus != jb.requested_gpus) {
          return ja.requested_gpus < jb.requested_gpus;
        }
      }
    }
    if (ja.submit_time != jb.submit_time) {
      return ja.submit_time < jb.submit_time;
    }
    return ja.id < jb.id;
  });

  // Estimated completion check for the deadline policy.
  auto meets_deadline = [&](const VirtualJob& vj, const CellChoice& choice) {
    if (!config_.deadline_aware || !vj.state->job.deadline.has_value()) {
      return true;
    }
    const double thr = oracle_->EstimatedThroughput(vj.state->job.spec, choice.cell);
    if (thr <= 0.0) {
      return false;
    }
    const double iters_per_sec = thr / static_cast<double>(vj.state->job.spec.global_batch);
    const double finish = now + vj.state->remaining_iters() / iters_per_sec;
    return finish <= *vj.state->job.deadline;
  };

  // Multi-objective composite rank (src/power): weighted throughput minus the
  // cell's power draw (kW) and the per-type GPU-stranding fragmentation the
  // placement would leave behind. `free_after` must already have the cell
  // taken out. The fairness weight does not appear here -- it acts on job
  // choice (over-provisioning and upscale water-filling), not cell choice.
  const bool multi = !config_.multi.IsDefault();
  auto composite_rank = [&](double score, const Cell& cell, const FreeMap& free_after) {
    const MultiObjectiveConfig& mo = config_.multi;
    double rank = mo.throughput * score;
    if (mo.energy > 0.0) {
      rank -= mo.energy * CellWatts(power_model_, cell.gpu_type, cell.ngpus) / 1000.0;
    }
    if (mo.fragmentation > 0.0) {
      rank -= mo.fragmentation * StrandingScore(free_after);
    }
    return rank;
  };

  // Best feasible Cell for a job under `free`; highest estimated score first,
  // or the best composite rank under a non-default weight vector (ties keep
  // the earlier = higher-throughput choice, so selection stays deterministic).
  auto best_fitting = [&](const VirtualJob& vj, const FreeMap& f) -> const CellChoice* {
    if (!multi) {
      for (const CellChoice& c : vj.cells->choices) {
        if (Fits(c.cell, f) && meets_deadline(vj, c)) {
          return &c;
        }
      }
      return nullptr;
    }
    const CellChoice* best = nullptr;
    double best_rank = -std::numeric_limits<double>::infinity();
    for (const CellChoice& c : vj.cells->choices) {
      if (!Fits(c.cell, f) || !meets_deadline(vj, c)) {
        continue;
      }
      FreeMap f2 = f;
      Take(c.cell, f2);
      double rank = composite_rank(c.score, c.cell, f2);
      if (config_.multi.fairness > 0.0) {
        // DRF flavor: discourage holding GPUs beyond the requested share.
        const int requested = std::max(1, vj.state->job.requested_gpus);
        rank -= config_.multi.fairness *
                static_cast<double>(std::max(0, c.cell.ngpus - requested)) / requested;
      }
      if (rank > best_rank) {
        best_rank = rank;
        best = &c;
      }
    }
    return best;
  };

  // --- Deadline admission (§8.5): early-drop hopeless jobs ------------------
  if (config_.deadline_aware) {
    for (size_t qi : queued_order_) {
      VirtualJob& vj = vjobs_[qi];
      if (!vj.state->job.deadline.has_value()) {
        continue;
      }
      bool possible = false;
      for (const CellChoice& c : vj.cells->choices) {
        if (meets_deadline(vj, c)) {
          possible = true;
          break;
        }
      }
      if (!possible) {
        decision.dropped.push_back(vj.state->job.id);
      }
    }
  }
  auto is_dropped = [&](int64_t id) {
    return std::find(decision.dropped.begin(), decision.dropped.end(), id) !=
           decision.dropped.end();
  };

  // --- Place queued jobs (FIFO), scaling running jobs when short (lines
  // 14-20 of Algorithm 1) ----------------------------------------------------
  int searched_jobs = 0;
  bool some_job_pending = false;
  {
    CRIUS_TRACE_SPAN("sched.place");
    for (size_t qi : queued_order_) {
      VirtualJob& vj = vjobs_[qi];
      if (is_dropped(vj.state->job.id)) {
        continue;
      }

      if (const CellChoice* c = best_fitting(vj, free)) {
        vj.cell = c->cell;
        vj.score = c->score;
        vj.opportunistic = some_job_pending;
        Take(c->cell, free);
        continue;
      }

      // Scaling search: up to search_depth moves of running/placed jobs that
      // make room for `vj` while maximizing total estimated throughput. A single
      // downscale often cannot free enough for a large job, so intermediate
      // moves may carry a negative throughput delta; the chain is only kept if
      // the final placement makes the cumulative delta (including the placed
      // job's score) positive.
      bool placed = false;
      if (searched_jobs < kMaxSearchJobs && config_.search_depth > 0) {
        ++searched_jobs;
        FreeMap trial_free = free;
        std::vector<std::pair<size_t, std::optional<Cell>>> saved;  // victim -> old cell
        double cumulative_delta = 0.0;
        // The best score vj could realize if capacity were freed; bounds the
        // deficit any intermediate move is allowed to dig.
        double vj_potential = 0.0;
        for (const CellChoice& c : vj.cells->choices) {
          if (meets_deadline(vj, c)) {
            vj_potential = std::max(vj_potential, c.score);
          }
        }

        for (int depth = 0; depth < config_.search_depth && !placed; ++depth) {
          double best_delta = -std::numeric_limits<double>::infinity();
          size_t best_victim = 0;
          const CellChoice* best_new_cell = nullptr;
          bool enables_placement = false;

          for (size_t vi = 0; vi < vjobs_.size(); ++vi) {
            VirtualJob& victim = vjobs_[vi];
            if (vi == qi || !victim.cell.has_value()) {
              continue;
            }
            for (const CellChoice& alt : victim.cells->choices) {
              if (alt.cell == *victim.cell) {
                continue;
              }
              // The move must shrink usage of some type (downscale or exchange).
              const bool frees_capacity =
                  alt.cell.gpu_type != victim.cell->gpu_type || alt.cell.ngpus < victim.cell->ngpus;
              if (!frees_capacity) {
                continue;
              }
              FreeMap f2 = trial_free;
              Give(*victim.cell, f2);
              if (!Fits(alt.cell, f2) || !meets_deadline(victim, alt)) {
                continue;
              }
              Take(alt.cell, f2);
              const CellChoice* mine = best_fitting(vj, f2);
              const bool enables = mine != nullptr;
              const double delta = alt.score - victim.score + (enables ? mine->score : 0.0);
              // Prefer placement-enabling moves strictly; among progress moves
              // take the least-damaging, but never dig deeper than the placed
              // job could pay back.
              if (!enables &&
                  cumulative_delta + delta + vj_potential <= 0.0) {
                continue;
              }
              if ((enables && !enables_placement) ||
                  ((enables == enables_placement) && delta > best_delta)) {
                best_delta = delta;
                best_victim = vi;
                best_new_cell = &alt;
                enables_placement = enables;
              }
            }
          }

          if (best_new_cell == nullptr ||
              (enables_placement && cumulative_delta + best_delta <= 0.0)) {
            break;  // no move, or completing the chain would lower throughput
          }
          VirtualJob& victim = vjobs_[best_victim];
          saved.emplace_back(best_victim, victim.cell);
          Give(*victim.cell, trial_free);
          Take(best_new_cell->cell, trial_free);
          cumulative_delta += best_new_cell->score - victim.score;
          victim.cell = best_new_cell->cell;
          victim.score = best_new_cell->score;

          if (const CellChoice* mine = best_fitting(vj, trial_free)) {
            if (cumulative_delta + mine->score > 0.0) {
              vj.cell = mine->cell;
              vj.score = mine->score;
              vj.opportunistic = some_job_pending;
              Take(mine->cell, trial_free);
              placed = true;
            }
          }
        }

        if (placed) {
          free = trial_free;
        } else {
          // Roll back all speculative moves.
          for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
            VirtualJob& victim = vjobs_[it->first];
            victim.cell = it->second;
            victim.score = 0.0;
            for (const CellChoice& c : victim.cells->choices) {
              if (victim.cell.has_value() && c.cell == *victim.cell) {
                victim.score = c.score;
                break;
              }
            }
          }
        }
      }

      if (!placed) {
        some_job_pending = true;
        if (!config_.opportunistic) {
          break;  // strict head-of-line blocking without opportunistic execution
        }
      }
    }
  }

  // --- Pending-job preemption of opportunistic jobs (§6.1) ------------------
  if (config_.opportunistic && some_job_pending) {
    CRIUS_TRACE_SPAN("sched.preempt_opportunistic");
    for (size_t qi : queued_order_) {
      VirtualJob& vj = vjobs_[qi];
      if (vj.cell.has_value() || is_dropped(vj.state->job.id)) {
        continue;
      }
      // Would evicting all opportunistic jobs make room?
      FreeMap f2 = free;
      std::vector<size_t> evictable;
      for (size_t vi = 0; vi < vjobs_.size(); ++vi) {
        if (vjobs_[vi].cell.has_value() && vjobs_[vi].opportunistic) {
          Give(*vjobs_[vi].cell, f2);
          evictable.push_back(vi);
        }
      }
      const CellChoice* mine = best_fitting(vj, f2);
      if (mine == nullptr) {
        continue;
      }
      // Evict only as many opportunistic jobs as needed (latest first).
      FreeMap f3 = free;
      for (auto it = evictable.rbegin(); it != evictable.rend(); ++it) {
        VirtualJob& opp = vjobs_[*it];
        Give(*opp.cell, f3);
        opp.cell.reset();
        opp.score = 0.0;
        if (Fits(mine->cell, f3)) {
          break;
        }
      }
      if (const CellChoice* c = best_fitting(vj, f3)) {
        vj.cell = c->cell;
        vj.score = c->score;
        vj.opportunistic = false;
        Take(c->cell, f3);
        free = f3;
      }
    }
  }

  // --- Upscale phase: feed leftover capacity back (Algorithm 1 line 11) -----
  // kMaxThroughput picks the globally best relative gain; kMaxMinFairness
  // water-fills, upgrading the worst-off placed job first.
  CRIUS_TRACE_SPAN("sched.upscale");
  int upscale_moves = 0;
  for (int moves = 0; moves < config_.max_upscale_moves; ++moves) {
    double best_rank = !multi && config_.objective == CriusObjective::kMaxThroughput
                           ? kMoveGainThreshold
                           : -std::numeric_limits<double>::infinity();
    size_t best_vi = 0;
    const CellChoice* best_cell = nullptr;
    for (size_t vi = 0; vi < vjobs_.size(); ++vi) {
      VirtualJob& vj = vjobs_[vi];
      if (!vj.cell.has_value()) {
        continue;
      }
      for (const CellChoice& alt : vj.cells->choices) {
        if (!multi && alt.score <= vj.score) {
          // choices are score-descending, so no later alternative improves
          // either; a job sitting at its best Cell exits after one compare.
          // (Under a composite objective a lower-throughput Cell can still
          // rank higher -- e.g. on energy -- so the scan must be exhaustive.)
          break;
        }
        if (alt.cell == *vj.cell) {
          continue;
        }
        FreeMap f2 = free;
        Give(*vj.cell, f2);
        if (!Fits(alt.cell, f2) || !meets_deadline(vj, alt)) {
          continue;
        }
        double rank = 0.0;
        if (multi) {
          // Composite gain of swapping the held Cell for `alt`; the same
          // kMoveGainThreshold guards against churny marginal restarts.
          FreeMap f3 = f2;
          Take(alt.cell, f3);
          const double gain = composite_rank(alt.score, alt.cell, f3) -
                              composite_rank(vj.score, *vj.cell, free);
          if (gain <= kMoveGainThreshold) {
            continue;
          }
          // Fairness water-fills (most-deprived job first), like the coarse
          // kMaxMinFairness objective but weighted.
          rank = gain + config_.multi.fairness * -vj.score;
        } else {
          const double gain = (alt.score - vj.score) / std::max(vj.score, 1e-9);
          if (gain <= kMoveGainThreshold) {
            continue;  // a restart is never worth a marginal gain
          }
          if (config_.objective == CriusObjective::kMaxThroughput) {
            rank = gain;
          } else {
            // Water-filling: most-deprived job first; its gain breaks ties.
            rank = -vj.score + 1e-3 * gain;
          }
        }
        if (rank > best_rank) {
          best_rank = rank;
          best_vi = vi;
          best_cell = &alt;
        }
      }
    }
    if (best_cell == nullptr) {
      break;
    }
    VirtualJob& vj = vjobs_[best_vi];
    Give(*vj.cell, free);
    Take(best_cell->cell, free);
    vj.cell = best_cell->cell;
    vj.score = best_cell->score;
    ++upscale_moves;
  }
  CRIUS_HISTOGRAM_RECORD("sched.upscale_moves", static_cast<double>(upscale_moves));

  // --- Emit ------------------------------------------------------------------
  double total_score = 0.0;
  double watts_sum = 0.0;
  std::vector<double> placed_scores;
  for (const VirtualJob& vj : vjobs_) {
    if (!vj.cell.has_value()) {
      continue;
    }
    Assignment a;
    a.type = vj.cell->gpu_type;
    a.ngpus = vj.cell->ngpus;
    a.nstages = vj.cell->nstages;
    a.opportunistic = vj.opportunistic;
    decision.assignments[vj.state->job.id] = a;
    total_score += vj.score;
    if (multi) {
      watts_sum += CellWatts(power_model_, vj.cell->gpu_type, vj.cell->ngpus);
      placed_scores.push_back(vj.score);
    }
  }
  if (multi) {
    // Pass-level composite, so kBestOfAll compares orderings under the same
    // objective the per-cell ranks optimized: weighted throughput sum, minus
    // the placement's power draw (kW) and leftover stranding, plus weighted
    // Jain fairness over the placed jobs' estimated throughputs.
    total_score = config_.multi.throughput * total_score -
                  config_.multi.energy * watts_sum / 1000.0 -
                  config_.multi.fragmentation * StrandingScore(free) +
                  config_.multi.fairness * JainIndex(placed_scores);
  }
  (void)now;
  return {std::move(decision), total_score};
}

}  // namespace crius

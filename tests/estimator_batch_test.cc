// Bit-identity of the SoA assembly path against the pre-refactor recursive
// reference, plus the batch estimation API's contract (DESIGN.md §14).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/core/estimator.h"
#include "src/core/oracle.h"

namespace crius {
namespace {

// The model zoo the golden sweep covers: every family, two sizes each.
const ModelSpec kZoo[] = {
    {ModelFamily::kWideResNet, 1.0, 256}, {ModelFamily::kWideResNet, 4.0, 256},
    {ModelFamily::kBert, 1.3, 128},       {ModelFamily::kBert, 6.7, 128},
    {ModelFamily::kMoe, 1.3, 256},        {ModelFamily::kMoe, 10.0, 256},
};

class EstimatorBatchTest : public ::testing::Test {
 protected:
  EstimatorBatchTest()
      : cluster_(MakeSimulatedCluster()),
        model_(cluster_),
        comm_(cluster_, 42, CommProfile::kMeasureJitter),
        estimator_(&model_, &comm_, 42) {}

  Cluster cluster_;
  PerfModel model_;
  CommProfile comm_;
  CellEstimator estimator_;
};

void ExpectBitIdentical(const CellEstimate& soa, const CellEstimate& ref,
                        const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(soa.feasible, ref.feasible);
  // Exact double equality on purpose: the SoA rewrite must preserve the
  // reference arithmetic association, not merely approximate it.
  EXPECT_EQ(soa.iter_time, ref.iter_time);
  EXPECT_EQ(soa.profile_gpu_seconds, ref.profile_gpu_seconds);
  EXPECT_EQ(soa.plans_assembled, ref.plans_assembled);
  ASSERT_EQ(soa.plan.stages.size(), ref.plan.stages.size());
  EXPECT_EQ(soa.plan.gpu_type, ref.plan.gpu_type);
  EXPECT_EQ(soa.plan.microbatch_factor, ref.plan.microbatch_factor);
  for (size_t s = 0; s < ref.plan.stages.size(); ++s) {
    EXPECT_EQ(soa.plan.stages[s].op_begin, ref.plan.stages[s].op_begin);
    EXPECT_EQ(soa.plan.stages[s].op_end, ref.plan.stages[s].op_end);
    EXPECT_EQ(soa.plan.stages[s].gpus, ref.plan.stages[s].gpus);
    EXPECT_EQ(soa.plan.stages[s].dp, ref.plan.stages[s].dp);
    EXPECT_EQ(soa.plan.stages[s].tp, ref.plan.stages[s].tp);
  }
  EXPECT_EQ(soa.stage_prefers_tp, ref.stage_prefers_tp);
  EXPECT_EQ(soa.stage_tp_range, ref.stage_tp_range);
}

TEST_F(EstimatorBatchTest, SoAPathIsBitIdenticalToReferenceAcrossZoo) {
  int compared = 0;
  for (const ModelSpec& spec : kZoo) {
    for (GpuType type : {GpuType::kA100, GpuType::kA40, GpuType::kV100}) {
      const JobContext ctx = model_.MakeContext(spec, type);
      for (int ngpus : {1, 2, 4, 8, 16}) {
        for (int nstages = 1; nstages <= ngpus; nstages *= 2) {
          const Cell cell{type, ngpus, nstages};
          const CellEstimate soa = estimator_.Estimate(ctx, cell);
          const CellEstimate ref = estimator_.EstimateReference(ctx, cell);
          ExpectBitIdentical(soa, ref, spec.Name() + " " + cell.ToString());
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 200);  // the sweep actually covered the zoo
}

TEST_F(EstimatorBatchTest, ScratchReuseDoesNotChangeResults) {
  const ModelSpec spec{ModelFamily::kBert, 2.6, 128};
  const JobContext ctx = model_.MakeContext(spec, GpuType::kA100);
  EstimatorScratch scratch;
  const Cell a{GpuType::kA100, 8, 4};
  const Cell b{GpuType::kA100, 16, 8};
  const CellEstimate first_a = estimator_.Estimate(ctx, a, &scratch);
  // Interleave other work through the same scratch, then re-estimate.
  (void)estimator_.Estimate(ctx, b, &scratch);
  const CellEstimate again_a = estimator_.Estimate(ctx, a, &scratch);
  ExpectBitIdentical(again_a, first_a, "scratch reuse");
}

class OracleBatchTest : public ::testing::Test {
 protected:
  OracleBatchTest() : cluster_(MakeSimulatedCluster()), oracle_(cluster_, 42) {}

  Cluster cluster_;
  PerformanceOracle oracle_;
};

TEST_F(OracleBatchTest, BatchMatchesScalarEstimates) {
  const ModelSpec spec{ModelFamily::kMoe, 2.4, 256};
  std::vector<Cell> cells;
  for (GpuType type : {GpuType::kA100, GpuType::kV100}) {
    for (int ngpus : {2, 4, 8}) {
      for (int nstages = 1; nstages <= ngpus; nstages *= 2) {
        cells.push_back(Cell{type, ngpus, nstages});
      }
    }
  }
  CellBatchResult batch;
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &batch);
  ASSERT_EQ(batch.estimates.size(), cells.size());
  ASSERT_EQ(batch.throughput.size(), cells.size());
  EXPECT_EQ(batch.hits + batch.misses, cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    // The batch fills the same cache the scalar path reads: same slot.
    EXPECT_EQ(batch.estimates[i], &oracle_.EstimateCell(spec, cells[i]));
    EXPECT_EQ(batch.throughput[i], oracle_.EstimatedThroughput(spec, cells[i]));
  }
}

TEST_F(OracleBatchTest, SecondBatchIsAllHits) {
  const ModelSpec spec{ModelFamily::kBert, 1.3, 128};
  const std::vector<Cell> cells = {Cell{GpuType::kA100, 4, 1}, Cell{GpuType::kA100, 4, 2},
                                   Cell{GpuType::kA40, 4, 4}};
  CellBatchResult first;
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &first);
  EXPECT_EQ(first.misses, cells.size());
  CellBatchResult second;
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &second);
  EXPECT_EQ(second.hits, cells.size());
  EXPECT_EQ(second.misses, 0u);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(first.estimates[i], second.estimates[i]);  // stable cache slots
  }
}

TEST_F(OracleBatchTest, DuplicateCellsInOneBatchAgree) {
  const ModelSpec spec{ModelFamily::kWideResNet, 2.0, 256};
  const Cell cell{GpuType::kA40, 8, 2};
  const std::vector<Cell> cells = {cell, cell, cell};
  CellBatchResult batch;
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &batch);
  EXPECT_EQ(batch.estimates[0], batch.estimates[1]);
  EXPECT_EQ(batch.estimates[1], batch.estimates[2]);
  EXPECT_EQ(batch.throughput[0], batch.throughput[1]);
  // The first copy is estimated and cached; the repeats hit it.
  EXPECT_EQ(batch.misses, 1u);
  EXPECT_EQ(batch.hits, 2u);
}

TEST_F(OracleBatchTest, IndependentOraclesOnTwoThreadsAgree) {
  // An oracle is used by one thread at a time, but independent oracles may
  // run on separate threads (bench/ext_robustness runs one per seed). Two
  // same-seed oracles on two threads must estimate exactly what a
  // sequential one does.
  const std::vector<ModelSpec> specs = {{ModelFamily::kBert, 1.3, 128},
                                        {ModelFamily::kMoe, 2.4, 256},
                                        {ModelFamily::kWideResNet, 2.0, 256}};
  std::vector<Cell> cells;
  for (GpuType type : {GpuType::kA100, GpuType::kA40}) {
    for (int ngpus : {2, 4, 8}) {
      for (int nstages = 1; nstages <= ngpus; nstages *= 2) {
        cells.push_back(Cell{type, ngpus, nstages});
      }
    }
  }
  auto run = [&](PerformanceOracle& oracle, std::vector<CellEstimate>* out) {
    CellBatchResult batch;
    for (const ModelSpec& spec : specs) {
      oracle.EstimateCellBatch(CellBatchRequest{&spec, cells.data(), cells.size()}, &batch);
      for (const CellEstimate* est : batch.estimates) {
        out->push_back(*est);
      }
    }
  };
  std::vector<CellEstimate> sequential;
  run(oracle_, &sequential);

  PerformanceOracle oracle_a(cluster_, 42);
  PerformanceOracle oracle_b(cluster_, 42);
  std::vector<CellEstimate> on_a;
  std::vector<CellEstimate> on_b;
  std::thread thread_a([&] { run(oracle_a, &on_a); });
  std::thread thread_b([&] { run(oracle_b, &on_b); });
  thread_a.join();
  thread_b.join();

  ASSERT_EQ(on_a.size(), sequential.size());
  ASSERT_EQ(on_b.size(), sequential.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ExpectBitIdentical(on_a[i], sequential[i], "thread a, estimate " + std::to_string(i));
    ExpectBitIdentical(on_b[i], sequential[i], "thread b, estimate " + std::to_string(i));
  }
}

TEST_F(OracleBatchTest, EmptyBatchIsANoOp) {
  const ModelSpec spec{ModelFamily::kBert, 1.3, 128};
  CellBatchResult batch;
  batch.estimates.assign(3, nullptr);  // stale state must be cleared
  oracle_.EstimateCellBatch(CellBatchRequest{&spec, nullptr, 0}, &batch);
  EXPECT_TRUE(batch.estimates.empty());
  EXPECT_TRUE(batch.throughput.empty());
  EXPECT_EQ(batch.hits, 0u);
  EXPECT_EQ(batch.misses, 0u);
}

TEST_F(OracleBatchTest, ContextForReturnsStableCachedReference) {
  const ModelSpec spec{ModelFamily::kBert, 2.6, 128};
  const JobContext& a = oracle_.ContextFor(spec, GpuType::kA100);
  const JobContext& b = oracle_.ContextFor(spec, GpuType::kA100);
  EXPECT_EQ(&a, &b);  // same cache slot
  const JobContext& other = oracle_.ContextFor(spec, GpuType::kV100);
  EXPECT_NE(&a, &other);
  // The cached context matches a freshly made one where it matters.
  const JobContext fresh = oracle_.perf_model().MakeContext(spec, GpuType::kA100);
  EXPECT_EQ(a.gpu_type, fresh.gpu_type);
  EXPECT_EQ(a.model_key, fresh.model_key);
  EXPECT_EQ(a.graph, fresh.graph);
  EXPECT_EQ(a.global_batch, fresh.global_batch);
}

}  // namespace
}  // namespace crius

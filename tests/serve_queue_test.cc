#include "src/serve/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace crius {
namespace {

ServeCommand Submit(int64_t id = 0) {
  ServeCommand cmd;
  cmd.kind = ServeCommand::Kind::kSubmit;
  cmd.job.id = id;
  return cmd;
}

ServeCommand Cancel(int64_t id) {
  ServeCommand cmd;
  cmd.kind = ServeCommand::Kind::kCancel;
  cmd.job_id = id;
  return cmd;
}

ServeCommand FailNode(int node_id) {
  ServeCommand cmd;
  cmd.kind = ServeCommand::Kind::kFailNode;
  cmd.node_id = node_id;
  return cmd;
}

ServeCommand Shutdown() {
  ServeCommand cmd;
  cmd.kind = ServeCommand::Kind::kShutdown;
  return cmd;
}

ClusterView View(int queued_jobs, double oldest_wait, bool shutting_down,
                 double projected_watts = 0.0) {
  ClusterView view;
  view.queued_jobs = queued_jobs;
  view.oldest_wait = oldest_wait;
  view.shutting_down = shutting_down;
  view.projected_watts = projected_watts;
  return view;
}

// These exact strings are the wire protocol's rejection vocabulary (DESIGN.md
// §12 table): session logs, client error payloads, and the
// serve.rejected.<reason> counters all carry them verbatim, so any change here
// is a breaking protocol change.
TEST(RejectReasonTest, NamesAreMachineReadableTokens) {
  EXPECT_STREQ(RejectReasonName(RejectReason::kQueueFull), "queue_full");
  EXPECT_STREQ(RejectReasonName(RejectReason::kClusterSaturated), "cluster_saturated");
  EXPECT_STREQ(RejectReasonName(RejectReason::kStarvationGuard), "starvation_guard");
  EXPECT_STREQ(RejectReasonName(RejectReason::kShuttingDown), "shutting_down");
  EXPECT_STREQ(RejectReasonName(RejectReason::kInfeasible), "infeasible");
  EXPECT_STREQ(RejectReasonName(RejectReason::kUnknownJob), "unknown_job");
  EXPECT_STREQ(RejectReasonName(RejectReason::kBadRequest), "bad_request");
  EXPECT_STREQ(RejectReasonName(RejectReason::kClusterPowerCap), "cluster_power_cap");
}

TEST(EventQueueTest, AcceptsAndDrainsInArrivalOrder) {
  EventQueue queue(EventQueueConfig{});
  EXPECT_FALSE(queue.TryPush(Submit(7)).has_value());
  EXPECT_FALSE(queue.TryPush(Cancel(7)).has_value());
  EXPECT_FALSE(queue.TryPush(FailNode(2)).has_value());
  EXPECT_FALSE(queue.TryPush(Submit(8)).has_value());
  EXPECT_EQ(queue.size(), 4u);

  const auto cmds = queue.Drain();
  EXPECT_EQ(queue.size(), 0u);
  ASSERT_EQ(cmds.size(), 4u);
  EXPECT_EQ(cmds[0].kind, ServeCommand::Kind::kSubmit);
  EXPECT_EQ(cmds[0].job.id, 7);
  EXPECT_EQ(cmds[1].kind, ServeCommand::Kind::kCancel);
  EXPECT_EQ(cmds[1].job_id, 7);
  EXPECT_EQ(cmds[2].kind, ServeCommand::Kind::kFailNode);
  EXPECT_EQ(cmds[2].node_id, 2);
  EXPECT_EQ(cmds[3].kind, ServeCommand::Kind::kSubmit);
  EXPECT_EQ(cmds[3].job.id, 8);
}

TEST(EventQueueTest, CapacityRejectsEverythingButShutdown) {
  EventQueueConfig config;
  config.capacity = 2;
  EventQueue queue(config);
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());

  auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kQueueFull);
  reject = queue.TryPush(Cancel(1));
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kQueueFull);

  // The shutdown command must always get through, or a full queue would make
  // the daemon unstoppable.
  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());
}

TEST(EventQueueTest, AcceptsExactlyCapacityBeforeQueueFull) {
  // One ring, so the bound is exact for any capacity, not only powers of two:
  // push `capacity` commands, then the next one is backpressured.
  for (const size_t capacity : {1u, 3u, 5u, 8u, 13u}) {
    EventQueueConfig config;
    config.capacity = capacity;
    EventQueue queue(config);
    size_t accepted = 0;
    for (; accepted < 2 * capacity + 1; ++accepted) {
      const auto reject = queue.TryPush(Submit(static_cast<int64_t>(accepted)));
      if (reject.has_value()) {
        EXPECT_EQ(*reject, RejectReason::kQueueFull);
        break;
      }
    }
    EXPECT_EQ(accepted, capacity) << "capacity " << capacity;
    EXPECT_EQ(queue.size(), capacity);
    EXPECT_EQ(queue.Drain().size(), capacity);
  }
}

TEST(EventQueueTest, CapacityOneStillBackpressuresAndRecovers) {
  // The smallest legal queue: one slot total. The second push is rejected
  // with backpressure, a drain frees the slot, and a shutdown still passes
  // even while the slot is occupied.
  EventQueueConfig config;
  config.capacity = 1;
  EventQueue queue(config);
  EXPECT_FALSE(queue.TryPush(Submit(1)).has_value());
  auto reject = queue.TryPush(Submit(2));
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kQueueFull);

  auto cmds = queue.Drain();
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].job.id, 1);
  EXPECT_FALSE(queue.TryPush(Submit(3)).has_value());

  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());
  cmds = queue.Drain();
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].kind, ServeCommand::Kind::kSubmit);
  EXPECT_EQ(cmds[1].kind, ServeCommand::Kind::kShutdown);
}

TEST(EventQueueTest, SaturationRejectsOnlySubmissions) {
  EventQueueConfig config;
  config.max_pending_jobs = 4;
  EventQueue queue(config);
  queue.PublishClusterView(View(/*queued_jobs=*/4, /*oldest_wait=*/0.0, /*shutting_down=*/false));

  const auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kClusterSaturated);
  // Cancels shrink load; they pass.
  EXPECT_FALSE(queue.TryPush(Cancel(1)).has_value());

  queue.PublishClusterView(View(3, 0.0, false));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, StarvationGuardRejectsWhileBacklogIsOld) {
  EventQueueConfig config;
  config.starvation_wait = 600.0;
  EventQueue queue(config);
  queue.PublishClusterView(View(1, /*oldest_wait=*/601.0, false));

  const auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kStarvationGuard);

  queue.PublishClusterView(View(1, 599.0, false));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, StarvationGuardAdmitsWaitExactlyAtThreshold) {
  // The guard is strictly greater-than: a backlog that has waited exactly
  // starvation_wait virtual seconds still admits new work. This pins the
  // boundary so the comparison cannot silently flip to >=.
  EventQueueConfig config;
  config.starvation_wait = 600.0;
  EventQueue queue(config);
  queue.PublishClusterView(View(1, /*oldest_wait=*/600.0, false));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());

  queue.PublishClusterView(View(1, 600.0000001, false));
  const auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kStarvationGuard);
}

TEST(EventQueueTest, PowerCapRejectsSubmissionsAtOrAboveCap) {
  EventQueueConfig config;
  config.power_cap_watts = 5000.0;
  EventQueue queue(config);
  queue.PublishClusterView(View(0, 0.0, false, /*projected_watts=*/5000.0));

  // The cap is at-or-above: draw exactly at the cap already rejects.
  auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kClusterPowerCap);
  // Cancels shrink draw; they pass.
  EXPECT_FALSE(queue.TryPush(Cancel(1)).has_value());

  queue.PublishClusterView(View(0, 0.0, false, 4999.9));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, PowerCapDisabledIgnoresProjectedDraw) {
  // power_cap_watts == 0 disables the guard no matter how high the published
  // draw is (the view field is always populated once power accounting is on).
  EventQueue queue(EventQueueConfig{});
  queue.PublishClusterView(View(0, 0.0, false, /*projected_watts=*/1e9));
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, ShutdownLatchesAndOnlyShutdownPasses) {
  EventQueue queue(EventQueueConfig{});
  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());

  auto reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kShuttingDown);
  reject = queue.TryPush(Cancel(1));
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kShuttingDown);

  // The latch survives cluster-view refreshes that say "not shutting down"
  // (the controller never un-requests a shutdown).
  queue.PublishClusterView(View(0, 0.0, false));
  reject = queue.TryPush(Submit());
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, RejectReason::kShuttingDown);

  // A second shutdown (e.g. drain then forced) still passes.
  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());
}

TEST(EventQueueTest, CancelAndHealthBeforeQueuedShutdownStayInBatch) {
  // Commands accepted before the shutdown arrived are not lost: the drain
  // delivers them first and synthesizes the shutdown at the end of the
  // batch, so the round loop applies the whole batch before breaking
  // (event_queue.h's contract for a shutdown racing queued work).
  EventQueue queue(EventQueueConfig{});
  EXPECT_FALSE(queue.TryPush(Cancel(3)).has_value());
  EXPECT_FALSE(queue.TryPush(FailNode(2)).has_value());
  EXPECT_FALSE(queue.TryPush(Shutdown()).has_value());
  // Anything after the shutdown is rejected by the latch...
  EXPECT_TRUE(queue.TryPush(Cancel(4)).has_value());
  EXPECT_TRUE(queue.TryPush(FailNode(5)).has_value());

  // ...but the racing pre-shutdown commands all drain, shutdown last.
  const auto cmds = queue.Drain();
  ASSERT_EQ(cmds.size(), 3u);
  EXPECT_NE(cmds[0].kind, ServeCommand::Kind::kShutdown);
  EXPECT_NE(cmds[1].kind, ServeCommand::Kind::kShutdown);
  EXPECT_EQ(cmds[2].kind, ServeCommand::Kind::kShutdown);
  EXPECT_TRUE(cmds[2].drain);
}

TEST(EventQueueTest, DrainClearsBackpressure) {
  EventQueueConfig config;
  config.capacity = 1;
  EventQueue queue(config);
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
  EXPECT_TRUE(queue.TryPush(Submit()).has_value());
  queue.Drain();
  EXPECT_FALSE(queue.TryPush(Submit()).has_value());
}

TEST(EventQueueTest, DrainIntoReusesCallerBuffer) {
  EventQueue queue(EventQueueConfig{});
  std::vector<ServeCommand> batch;
  EXPECT_FALSE(queue.TryPush(Submit(1)).has_value());
  EXPECT_EQ(queue.DrainInto(&batch), 1u);
  ASSERT_EQ(batch.size(), 1u);
  const size_t warm_capacity = batch.capacity();

  // Steady state: clear + refill stays within the warm capacity — the tick
  // loop never re-allocates its batch buffer.
  batch.clear();
  EXPECT_FALSE(queue.TryPush(Submit(2)).has_value());
  EXPECT_EQ(queue.DrainInto(&batch), 1u);
  EXPECT_EQ(batch.capacity(), warm_capacity);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].job.id, 2);

  // Without the clear, DrainInto appends (returns only the new count).
  EXPECT_FALSE(queue.TryPush(Submit(3)).has_value());
  EXPECT_EQ(queue.DrainInto(&batch), 1u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[1].job.id, 3);
}

TEST(EventQueueTest, SizeTracksBacklogAcrossPushesAndDrains) {
  // size() feeds the serve.ingress.depth gauge: it counts accepted commands
  // not yet drained, and rejected pushes leave it unchanged.
  EventQueueConfig config;
  config.capacity = 3;
  EventQueue queue(config);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.TryPush(Submit(1)).has_value());
  EXPECT_FALSE(queue.TryPush(Cancel(1)).has_value());
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_FALSE(queue.TryPush(FailNode(0)).has_value());
  EXPECT_TRUE(queue.TryPush(Submit(2)).has_value());
  EXPECT_EQ(queue.size(), 3u);

  std::vector<ServeCommand> batch;
  EXPECT_EQ(queue.DrainInto(&batch), 3u);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.TryPush(Submit(3)).has_value());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueTest, PublishBumpsViewEpoch) {
  EventQueue queue(EventQueueConfig{});
  const uint64_t before = queue.view_epoch();
  queue.PublishClusterView(View(0, 0.0, false));
  queue.PublishClusterView(View(1, 2.0, false));
  EXPECT_EQ(queue.view_epoch(), before + 2);
}

}  // namespace
}  // namespace crius

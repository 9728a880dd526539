// Protocol dispatch (HandleRequest) and the full socket path
// (Server + Client) against a live Controller.

#include "src/serve/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/serve/client.h"
#include "src/serve/replay.h"
#include "src/util/counters.h"
#include "src/util/metrics_export.h"

namespace crius {
namespace serve {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : runtime_(MakeSessionRuntime(SessionMeta{})) {
    Controller::Config config;
    config.tick_virtual_seconds = 60.0;
    config.tick_wall_seconds = 0.001;
    controller_ = std::make_unique<Controller>(runtime_.cluster, runtime_.sim,
                                               *runtime_.scheduler, *runtime_.oracle,
                                               /*log=*/nullptr, config);
  }

  ~ServiceTest() override {
    if (started_ && !controller_->done()) {
      controller_->Shutdown(/*drain=*/false);
    }
    if (started_) {
      controller_->Join();
    }
  }

  void StartController() {
    controller_->Start();
    started_ = true;
  }

  std::string Handle(const std::string& line) { return HandleRequest(*controller_, line); }

  SessionRuntime runtime_;
  std::unique_ptr<Controller> controller_;
  bool started_ = false;
};

TEST_F(ServiceTest, MalformedJsonRejectedAsBadRequest) {
  StartController();
  Json response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle("not json"), &response, &error)) << error;
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");
  EXPECT_FALSE(response.StringOr("message", "").empty());
}

TEST_F(ServiceTest, UnknownCommandRejected) {
  StartController();
  Json response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"resize"})"), &response, &error)) << error;
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");
}

TEST_F(ServiceTest, SubmitQueryStatsShutdownOverDispatch) {
  StartController();
  Json response;
  std::string error;

  ASSERT_TRUE(ParseJsonObject(
      Handle(R"({"cmd":"submit","family":"BERT","params_billion":0.76,)"
             R"("global_batch":256,"iterations":20,"gpus":8,"type":"A40"})"),
      &response, &error))
      << error;
  ASSERT_TRUE(response.BoolOr("ok", false));
  const int64_t job_id = static_cast<int64_t>(response.NumberOr("job_id", -1));
  EXPECT_GE(job_id, 1);
  EXPECT_EQ(response.StringOr("status", ""), "queued");

  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"query","job_id":999})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "unknown_job");

  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"stats"})"), &response, &error));
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_TRUE(response.Find("virtual_now") != nullptr);
  EXPECT_TRUE(response.Find("live_jobs") != nullptr);
  EXPECT_TRUE(response.Find("latency_p99_ms") != nullptr);

  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"shutdown","mode":"sideways"})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");

  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"shutdown","mode":"drain"})"), &response, &error));
  EXPECT_TRUE(response.BoolOr("ok", false));
  controller_->Join();
  EXPECT_TRUE(controller_->done());
}

TEST_F(ServiceTest, NodeCommandsValidateRange) {
  StartController();
  Json response;
  std::string error;
  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"fail-node","node_id":100000})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");

  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"fail-node"})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));

  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"fail-node","node_id":0})"), &response, &error));
  EXPECT_TRUE(response.BoolOr("ok", false));
  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"recover-node","node_id":0})"), &response, &error));
  EXPECT_TRUE(response.BoolOr("ok", false));
}

TEST_F(ServiceTest, OutOfRangeNodeIdEchoedAsInteger) {
  StartController();
  const std::string line = Handle(R"({"cmd":"fail-node","node_id":100000})");
  Json response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(line, &response, &error)) << error;
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");
  EXPECT_EQ(response.StringOr("message", ""), "node_id 100000 out of range");
  EXPECT_EQ(line.find("e+"), std::string::npos) << line;
}

TEST_F(ServiceTest, RawControlByteEchoedEscaped) {
  // A raw 0x01 in a request string comes back inside the error message; the
  // response line must escape it so the line stays valid JSON.
  const std::string line = Handle("{\"cmd\":\"submit\",\"family\":\"x\x01y\"}");
  EXPECT_NE(line.find("x\\u0001y"), std::string::npos) << line;
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << line;
  }
  Json response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(line, &response, &error)) << error;
  EXPECT_EQ(response.StringOr("message", ""), "unknown family 'x\x01y'");
}

TEST_F(ServiceTest, UnicodeEscapeInRequestAccepted) {
  StartController();
  // The cmd below spells "stats" with a standard JSON unicode escape.
  Json response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"\u0073tats"})"), &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false)) << response.StringOr("message", "");
  EXPECT_NE(response.Find("ticks"), nullptr);
}

TEST_F(ServiceTest, StatsIncludeRegistryEnrichment) {
  StartController();
  Json response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"stats"})"), &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_TRUE(response.Find("queue_depth") != nullptr);
  EXPECT_GE(response.NumberOr("queue_depth", -1.0), 0.0);
  EXPECT_TRUE(response.Find("uptime_seconds") != nullptr);
  EXPECT_GE(response.NumberOr("uptime_seconds", -1.0), 0.0);
}

TEST_F(ServiceTest, MetricsVerbReturnsParseableSnapshot) {
  // The registry is process-global; start from a clean slate so this test
  // sees only what the live controller records.
  CounterRegistry::Global().Reset();
  StartController();
  // Wait until at least one full tick has recorded its phase breakdown.
  for (int spin = 0; spin < 500 && controller_->GetStats().ticks < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(controller_->GetStats().ticks, 2u);

  Json response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"metrics"})"), &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_EQ(response.StringOr("format", ""), "json");

  // The snapshot rides inside the flat protocol as an escaped string field;
  // parse it back out into a MetricsSnapshot.
  MetricsSnapshot snapshot;
  ASSERT_TRUE(ParseMetricsJson(response.StringOr("metrics", ""), &snapshot, &error)) << error;

  bool saw_round = false;
  int phase_entries = 0;
  for (const HistogramSample& sample : snapshot.histograms) {
    if (sample.name == "serve.round_ms") {
      saw_round = true;
      EXPECT_GE(sample.value.count, 1u);
    }
    if (sample.name == "serve.phase_ms") {
      ++phase_entries;
      EXPECT_EQ(sample.labels.size(), 1u);
      EXPECT_TRUE(sample.labels.count("phase"));
    }
  }
  EXPECT_TRUE(saw_round);
  EXPECT_EQ(phase_entries, 4);  // drain / apply / schedule / log

  bool saw_depth_gauge = false;
  for (const MetricSample& sample : snapshot.gauges) {
    if (sample.name == "serve.queue_depth") {
      saw_depth_gauge = true;
    }
  }
  EXPECT_TRUE(saw_depth_gauge);
}

TEST_F(ServiceTest, MetricsVerbSpeaksPrometheus) {
  StartController();
  Json response;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Handle(R"({"cmd":"metrics","format":"prometheus"})"), &response,
                              &error))
      << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_EQ(response.StringOr("format", ""), "prometheus");
  EXPECT_NE(response.StringOr("metrics", "").find("# TYPE "), std::string::npos);

  ASSERT_TRUE(
      ParseJsonObject(Handle(R"({"cmd":"metrics","format":"xml"})"), &response, &error));
  EXPECT_FALSE(response.BoolOr("ok", true));
  EXPECT_EQ(response.StringOr("reason", ""), "bad_request");
}

TEST_F(ServiceTest, ClientMetricsHelperOverSocket) {
  StartController();
  const std::string socket_path = ::testing::TempDir() + "/crius_service_metrics_test.sock";
  Server server(socket_path, MakeHandler(*controller_));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;
  Json response;
  ASSERT_TRUE(client.Metrics("json", &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  MetricsSnapshot snapshot;
  EXPECT_TRUE(ParseMetricsJson(response.StringOr("metrics", ""), &snapshot, &error)) << error;
  server.Stop();
}

TEST_F(ServiceTest, EndToEndOverUnixSocket) {
  StartController();
  const std::string socket_path = ::testing::TempDir() + "/crius_service_test.sock";
  Server server(socket_path, MakeHandler(*controller_));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(socket_path, &error)) << error;

  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kBert, 0.76, 256};
  job.iterations = 20;
  job.requested_gpus = 8;
  job.requested_type = GpuType::kA40;

  Json response;
  ASSERT_TRUE(client.Submit(job, &response, &error)) << error;
  ASSERT_TRUE(response.BoolOr("ok", false));
  const int64_t job_id = static_cast<int64_t>(response.NumberOr("job_id", -1));

  ASSERT_TRUE(client.FailNode(0, &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  ASSERT_TRUE(client.RecoverNode(0, &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));

  ASSERT_TRUE(client.Query(job_id, &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  EXPECT_FALSE(response.StringOr("status", "").empty());

  // A second concurrent connection is served too.
  Client other;
  ASSERT_TRUE(other.Connect(socket_path, &error)) << error;
  ASSERT_TRUE(other.Stats(&response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));

  ASSERT_TRUE(client.Shutdown(/*drain=*/true, &response, &error)) << error;
  EXPECT_TRUE(response.BoolOr("ok", false));
  controller_->Join();
  EXPECT_TRUE(controller_->done());
  EXPECT_FALSE(controller_->interrupted());
  server.Stop();

  const Controller::JobStatus status = controller_->Query(job_id);
  ASSERT_TRUE(status.known);
  EXPECT_EQ(status.state, "finished");
}

}  // namespace
}  // namespace serve
}  // namespace crius

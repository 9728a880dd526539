#include "src/serve/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace crius {
namespace serve {
namespace {

TEST(ProtocolParseTest, FlatObjectParses) {
  Json obj;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(
      R"({"cmd":"submit","gpus":8,"params_billion":1.3,"flag":true,"off":false})", &obj,
      &error))
      << error;
  EXPECT_EQ(obj.StringOr("cmd", ""), "submit");
  EXPECT_DOUBLE_EQ(obj.NumberOr("gpus", 0.0), 8.0);
  EXPECT_DOUBLE_EQ(obj.NumberOr("params_billion", 0.0), 1.3);
  EXPECT_TRUE(obj.BoolOr("flag", false));
  EXPECT_FALSE(obj.BoolOr("off", true));
}

TEST(ProtocolParseTest, WhitespaceAndEscapesHandled) {
  Json obj;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(" { \"a\" : \"x\\\"y\\\\z\" , \"b\" : -2.5e1 } ", &obj, &error))
      << error;
  EXPECT_EQ(obj.StringOr("a", ""), "x\"y\\z");
  EXPECT_DOUBLE_EQ(obj.NumberOr("b", 0.0), -25.0);
}

TEST(ProtocolParseTest, EmptyObjectParses) {
  Json obj;
  std::string error;
  EXPECT_TRUE(ParseJsonObject("{}", &obj, &error)) << error;
  EXPECT_TRUE(obj.is_object());
  EXPECT_TRUE(obj.fields().empty());
}

TEST(ProtocolParseTest, MalformedInputRejectedNotAborted) {
  Json obj;
  std::string error;
  EXPECT_FALSE(ParseJsonObject("", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("not json", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":1", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":}", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":1} trailing", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":1,}", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{a:1}", &obj, &error));
}

TEST(ProtocolParseTest, NestingArraysAndNullRejected) {
  Json obj;
  std::string error;
  EXPECT_FALSE(ParseJsonObject("{\"a\":{\"b\":1}}", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":[1,2]}", &obj, &error));
  EXPECT_FALSE(ParseJsonObject("{\"a\":null}", &obj, &error));
}

TEST(ProtocolSerializeTest, DeterministicSortedKeys) {
  Json obj;
  obj.Set("zeta", Json::Number(1));
  obj.Set("alpha", Json::Str("x"));
  obj.Set("mid", Json::Bool(true));
  EXPECT_EQ(Serialize(obj), R"({"alpha":"x","mid":true,"zeta":1})");
}

TEST(ProtocolSerializeTest, NumbersIntegerFormattedWhenWhole) {
  Json obj;
  obj.Set("i", Json::Number(42.0));
  obj.Set("d", Json::Number(1.5));
  const std::string line = Serialize(obj);
  EXPECT_NE(line.find("\"i\":42"), std::string::npos);
  EXPECT_EQ(line.find("42.0"), std::string::npos);
  EXPECT_NE(line.find("\"d\":1.5"), std::string::npos);
}

TEST(ProtocolSerializeTest, StringsEscaped) {
  Json obj;
  obj.Set("s", Json::Str("a\"b\\c\nd"));
  Json back;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(Serialize(obj), &back, &error)) << error;
  EXPECT_EQ(back.StringOr("s", ""), "a\"b\\c\nd");
}

TEST(ProtocolSerializeTest, LargeWholeNumbersStayIntegers) {
  Json extra;
  extra.Set("job_id", Json::Number(100000));
  EXPECT_EQ(OkResponse(extra), R"({"job_id":100000,"ok":true})");
}

TEST(ProtocolSerializeTest, NonIntegerNumbersParseBackExactly) {
  // The fractional fields a stats reply carries must survive the wire.
  const std::vector<std::pair<std::string, double>> values = {
      {"latency_p50_ms", 0.1 + 0.2}, {"latency_p95_ms", 1.0 / 3.0},
      {"latency_p99_ms", 1e-7},      {"uptime_seconds", 123456.789},
      {"virtual_now", 2.5e20},       {"queue_depth", -0.5}};
  Json extra;
  for (const auto& [key, value] : values) {
    extra.Set(key, Json::Number(value));
  }
  Json back;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(OkResponse(extra), &back, &error)) << error;
  for (const auto& [key, value] : values) {
    EXPECT_EQ(back.NumberOr(key, 0.0), value) << key;
  }
}

TEST(ProtocolResponseTest, OkAndErrorShapes) {
  EXPECT_EQ(OkResponse(), R"({"ok":true})");
  Json extra;
  extra.Set("job_id", Json::Number(7));
  EXPECT_EQ(OkResponse(extra), R"({"job_id":7,"ok":true})");
  EXPECT_EQ(ErrorResponse(RejectReason::kQueueFull),
            R"({"ok":false,"reason":"queue_full"})");
  EXPECT_EQ(ErrorResponse(RejectReason::kBadRequest, "what"),
            R"({"message":"what","ok":false,"reason":"bad_request"})");
}

TEST(ProtocolResponseTest, EveryRejectReasonHasItsMessagelessLine) {
  // Message-less error lines are cached per reason; every RejectReason,
  // including the last one (cluster_power_cap), must map to its own token.
  for (size_t i = 1; i < kNumRejectReasons; ++i) {
    const auto reason = static_cast<RejectReason>(i);
    const std::string expected =
        std::string(R"({"ok":false,"reason":")") + RejectReasonName(reason) + "\"}";
    EXPECT_EQ(ErrorResponse(reason), expected) << "reason " << i;
    EXPECT_EQ(ErrorResponse(reason), ErrorResponse(reason, ""));
  }
  EXPECT_EQ(ErrorResponse(RejectReason::kClusterPowerCap),
            R"({"ok":false,"reason":"cluster_power_cap"})");
}

TEST(ProtocolSubmitTest, RoundTripThroughRequest) {
  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kMoe, 2.4, 512};
  job.iterations = 77;
  job.requested_gpus = 16;
  job.requested_type = GpuType::kA40;
  job.deadline = 3600.0;

  TrainingJob parsed;
  std::string error;
  ASSERT_TRUE(ParseSubmitJob(SubmitRequest(job), &parsed, &error)) << error;
  EXPECT_TRUE(parsed.spec == job.spec);
  EXPECT_EQ(parsed.iterations, 77);
  EXPECT_EQ(parsed.requested_gpus, 16);
  EXPECT_EQ(parsed.requested_type, GpuType::kA40);
  ASSERT_TRUE(parsed.deadline.has_value());
  EXPECT_DOUBLE_EQ(*parsed.deadline, 3600.0);
}

Json ValidSubmit() {
  TrainingJob job;
  job.spec = ModelSpec{ModelFamily::kBert, 1.3, 256};
  job.iterations = 10;
  job.requested_gpus = 8;
  return SubmitRequest(job);
}

TEST(ProtocolSubmitTest, ValidationRejectsBadFields) {
  TrainingJob job;
  std::string error;

  Json bad = ValidSubmit();
  bad.Set("family", Json::Str("GPT"));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));
  EXPECT_NE(error.find("family"), std::string::npos);

  bad = ValidSubmit();
  bad.Set("params_billion", Json::Number(3.33));  // unsupported BERT size
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));

  bad = ValidSubmit();
  bad.Set("gpus", Json::Number(0));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));

  bad = ValidSubmit();
  bad.Set("iterations", Json::Number(-1));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));

  bad = ValidSubmit();
  bad.Set("type", Json::Str("H100"));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));

  bad = ValidSubmit();
  bad.Set("deadline", Json::Number(-5));
  EXPECT_FALSE(ParseSubmitJob(bad, &job, &error));
}

TEST(ProtocolSubmitTest, SupportedSizeSnapsExactly) {
  // A client that sends 0.7600000001 means BERT-0.76B; the parsed job must
  // carry the exact supported size so the oracle's lookups hit.
  Json request = ValidSubmit();
  request.Set("family", Json::Str("BERT"));
  request.Set("params_billion", Json::Number(0.76 + 1e-10));
  TrainingJob job;
  std::string error;
  ASSERT_TRUE(ParseSubmitJob(request, &job, &error)) << error;
  EXPECT_EQ(job.spec.params_billion, 0.76);
}

}  // namespace
}  // namespace serve
}  // namespace crius

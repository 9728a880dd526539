#include "src/serve/service.h"

#include <limits>
#include <optional>

#include "src/serve/protocol.h"
#include "src/util/counters.h"
#include "src/util/metrics_export.h"

namespace crius {
namespace serve {

namespace {

std::string FromReject(std::optional<RejectReason> reject) {
  if (reject.has_value()) {
    return ErrorResponse(*reject);
  }
  return OkResponse();
}

std::string HandleSubmit(Controller& controller, const Json& request) {
  TrainingJob job;
  std::string error;
  if (!ParseSubmitJob(request, &job, &error)) {
    return ErrorResponse(RejectReason::kBadRequest, error);
  }
  const Controller::SubmitResult result = controller.Submit(job);
  if (!result.ok) {
    return ErrorResponse(result.reason);
  }
  Json extra = Json::Object();
  extra.Set("job_id", Json::Number(static_cast<double>(result.job_id)));
  extra.Set("status", Json::Str("queued"));
  return OkResponse(std::move(extra));
}

// fail-node / recover-node. An out-of-range id is echoed in the bad_request
// message, rendered like every other protocol number.
std::string HandleNodeCommand(Controller& controller, const Json& request,
                              const std::string& cmd) {
  if (request.Find("node_id") == nullptr) {
    return ErrorResponse(RejectReason::kBadRequest, cmd + " needs node_id");
  }
  const double id = request.NumberOr("node_id", -1.0);
  const int node_id =
      id >= 0.0 && id <= std::numeric_limits<int>::max() ? static_cast<int>(id) : -1;
  const std::optional<RejectReason> reject =
      cmd == "fail-node" ? controller.FailNode(node_id) : controller.RecoverNode(node_id);
  if (reject == RejectReason::kBadRequest) {
    return ErrorResponse(*reject, "node_id " + FormatJsonNumber(id) + " out of range");
  }
  return FromReject(reject);
}

std::string HandleQuery(Controller& controller, const Json& request) {
  const int64_t job_id = static_cast<int64_t>(request.NumberOr("job_id", -1.0));
  const Controller::JobStatus status = controller.Query(job_id);
  if (!status.known) {
    return ErrorResponse(RejectReason::kUnknownJob);
  }
  Json extra = Json::Object();
  extra.Set("job_id", Json::Number(static_cast<double>(job_id)));
  extra.Set("status", Json::Str(status.state));
  extra.Set("submit_time", Json::Number(status.submit_time));
  extra.Set("first_start", Json::Number(status.first_start));
  extra.Set("finish_time", Json::Number(status.finish_time));
  extra.Set("restarts", Json::Number(status.restarts));
  return OkResponse(std::move(extra));
}

std::string HandleStats(Controller& controller) {
  const Controller::Stats stats = controller.GetStats();
  Json extra = Json::Object();
  extra.Set("virtual_now", Json::Number(stats.virtual_now));
  extra.Set("ticks", Json::Number(static_cast<double>(stats.ticks)));
  extra.Set("live_jobs", Json::Number(stats.live_jobs));
  extra.Set("running_jobs", Json::Number(stats.running_jobs));
  extra.Set("queued_jobs", Json::Number(stats.queued_jobs));
  extra.Set("accepted", Json::Number(static_cast<double>(stats.accepted)));
  extra.Set("infeasible", Json::Number(static_cast<double>(stats.infeasible)));
  extra.Set("decisions", Json::Number(static_cast<double>(stats.decisions)));
  extra.Set("latency_p50_ms", Json::Number(stats.latency_p50_ms));
  extra.Set("latency_p95_ms", Json::Number(stats.latency_p95_ms));
  extra.Set("latency_p99_ms", Json::Number(stats.latency_p99_ms));
  // Registry-sourced enrichment: live ingress backlog, wall uptime, and one
  // rejected_<reason> field per admission-reject reason seen so far.
  extra.Set("queue_depth", Json::Number(stats.queue_depth));
  extra.Set("uptime_seconds", Json::Number(stats.uptime_seconds));
  for (const auto& [reason, count] : stats.rejected_by_reason) {
    extra.Set("rejected_" + reason, Json::Number(static_cast<double>(count)));
  }
  return OkResponse(std::move(extra));
}

std::string HandleMetrics(const Json& request) {
  const std::string format = request.StringOr("format", "json");
  if (format != "json" && format != "prometheus") {
    return ErrorResponse(RejectReason::kBadRequest, "metrics format must be json|prometheus");
  }
  const MetricsSnapshot snapshot = CounterRegistry::Global().Snapshot();
  Json extra = Json::Object();
  extra.Set("format", Json::Str(format));
  // The protocol is deliberately flat (one line, no nesting), so the nested
  // snapshot rides inside a string field; consumers parse the line, then
  // parse the "metrics" payload (double-parse).
  extra.Set("metrics", Json::Str(format == "json" ? MetricsToJson(snapshot)
                                                  : MetricsToPrometheus(snapshot)));
  return OkResponse(std::move(extra));
}

}  // namespace

std::string HandleRequest(Controller& controller, const std::string& line) {
  Json request;
  std::string error;
  if (!ParseJsonObject(line, &request, &error)) {
    return ErrorResponse(RejectReason::kBadRequest, error);
  }
  const std::string cmd = request.StringOr("cmd", "");
  if (cmd == "submit") {
    return HandleSubmit(controller, request);
  }
  if (cmd == "cancel") {
    if (request.Find("job_id") == nullptr) {
      return ErrorResponse(RejectReason::kBadRequest, "cancel needs job_id");
    }
    return FromReject(
        controller.Cancel(static_cast<int64_t>(request.NumberOr("job_id", -1.0))));
  }
  if (cmd == "fail-node" || cmd == "recover-node") {
    return HandleNodeCommand(controller, request, cmd);
  }
  if (cmd == "query") {
    return HandleQuery(controller, request);
  }
  if (cmd == "stats") {
    return HandleStats(controller);
  }
  if (cmd == "metrics") {
    return HandleMetrics(request);
  }
  if (cmd == "shutdown") {
    const std::string mode = request.StringOr("mode", "drain");
    if (mode != "drain" && mode != "now") {
      return ErrorResponse(RejectReason::kBadRequest, "shutdown mode must be drain|now");
    }
    return FromReject(controller.Shutdown(mode == "drain"));
  }
  return ErrorResponse(RejectReason::kBadRequest, "unknown cmd '" + cmd + "'");
}

Server::Handler MakeHandler(Controller& controller) {
  return [&controller](const std::string& line) { return HandleRequest(controller, line); };
}

}  // namespace serve
}  // namespace crius

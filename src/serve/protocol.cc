#include "src/serve/protocol.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace crius {
namespace serve {

namespace {

bool Reject(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

}  // namespace

bool ParseJsonObject(const std::string& line, Json* out, std::string* error) {
  if (!Json::Parse(line, out, error)) {
    return false;
  }
  if (!out->is_object()) {
    return Reject(error, "expected a JSON object");
  }
  for (const auto& [key, value] : out->fields()) {
    if (value.is_object() || value.is_array()) {
      return Reject(error, "nested values are not part of the protocol (field '" + key + "')");
    }
    if (value.is_null()) {
      return Reject(error, "null is not part of the protocol (field '" + key + "')");
    }
  }
  return true;
}

std::string Serialize(const Json& obj) {
  if (!obj.is_object()) {
    return obj.Serialize();
  }
  std::vector<const std::pair<std::string, Json>*> fields;
  fields.reserve(obj.fields().size());
  for (const auto& field : obj.fields()) {
    fields.push_back(&field);
  }
  std::sort(fields.begin(), fields.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::string out = "{";
  for (const auto* field : fields) {
    if (out.size() > 1) {
      out += ',';
    }
    out += Json::EscapeString(field->first);
    out += ':';
    out += field->second.Serialize();
  }
  out += '}';
  return out;
}

std::string OkResponse(Json extra) {
  extra.Set("ok", Json::Bool(true));
  return Serialize(extra);
}

std::string ErrorResponse(RejectReason reason, const std::string& message) {
  if (message.empty()) {
    // Admission rejects ARE the serve hot path under overload (every
    // over-capacity submission produces one); the message-less response per
    // reason is a constant line, so serialize each exactly once.
    static const std::array<std::string, kNumRejectReasons> kCached = [] {
      std::array<std::string, kNumRejectReasons> cached;
      for (size_t i = 0; i < cached.size(); ++i) {
        Json obj = Json::Object();
        obj.Set("ok", Json::Bool(false));
        obj.Set("reason", Json::Str(RejectReasonName(static_cast<RejectReason>(i))));
        cached[i] = Serialize(obj);
      }
      return cached;
    }();
    return kCached[static_cast<size_t>(reason)];
  }
  Json obj = Json::Object();
  obj.Set("ok", Json::Bool(false));
  obj.Set("reason", Json::Str(RejectReasonName(reason)));
  obj.Set("message", Json::Str(message));
  return Serialize(obj);
}

bool ParseSubmitJob(const Json& request, TrainingJob* job, std::string* error) {
  *job = TrainingJob{};

  const std::string family = request.StringOr("family", "");
  bool family_ok = false;
  for (ModelFamily f : {ModelFamily::kWideResNet, ModelFamily::kBert, ModelFamily::kMoe}) {
    if (family == FamilyName(f)) {
      job->spec.family = f;
      family_ok = true;
      break;
    }
  }
  if (!family_ok) {
    *error = "unknown family '" + family + "'";
    return false;
  }

  job->spec.params_billion = request.NumberOr("params_billion", -1.0);
  bool size_ok = false;
  for (double size : SupportedSizes(job->spec.family)) {
    if (std::abs(size - job->spec.params_billion) < 1e-9) {
      job->spec.params_billion = size;
      size_ok = true;
      break;
    }
  }
  if (!size_ok) {
    *error = "unsupported params_billion for " + family;
    return false;
  }

  job->spec.global_batch = static_cast<int64_t>(request.NumberOr("global_batch", 0.0));
  if (job->spec.global_batch < 1) {
    *error = "global_batch must be >= 1";
    return false;
  }
  job->iterations = static_cast<int64_t>(request.NumberOr("iterations", 0.0));
  if (job->iterations < 1) {
    *error = "iterations must be >= 1";
    return false;
  }
  job->requested_gpus = static_cast<int>(request.NumberOr("gpus", 0.0));
  if (job->requested_gpus < 1) {
    *error = "gpus must be >= 1";
    return false;
  }

  const std::string type = request.StringOr("type", "A100");
  bool type_ok = false;
  for (GpuType t : AllGpuTypes()) {
    if (type == GpuName(t)) {
      job->requested_type = t;
      type_ok = true;
      break;
    }
  }
  if (!type_ok) {
    *error = "unknown GPU type '" + type + "'";
    return false;
  }

  if (request.Find("deadline") != nullptr) {
    const double deadline = request.NumberOr("deadline", -1.0);
    if (deadline <= 0.0) {
      *error = "deadline must be > 0";
      return false;
    }
    job->deadline = deadline;
  }
  return true;
}

Json SubmitRequest(const TrainingJob& job) {
  Json obj = Json::Object();
  obj.Set("cmd", Json::Str("submit"));
  obj.Set("family", Json::Str(FamilyName(job.spec.family)));
  obj.Set("params_billion", Json::Number(job.spec.params_billion));
  obj.Set("global_batch", Json::Number(static_cast<double>(job.spec.global_batch)));
  obj.Set("iterations", Json::Number(static_cast<double>(job.iterations)));
  obj.Set("gpus", Json::Number(job.requested_gpus));
  obj.Set("type", Json::Str(GpuName(job.requested_type)));
  if (job.deadline.has_value()) {
    obj.Set("deadline", Json::Number(*job.deadline));
  }
  return obj;
}

}  // namespace serve
}  // namespace crius

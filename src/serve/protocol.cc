#include "src/serve/protocol.h"

#include <array>
#include <cctype>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

namespace crius {
namespace serve {

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind = Kind::kString;
  v.str = std::move(s);
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind = Kind::kNumber;
  v.num = value;
  return v;
}

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind = Kind::kBool;
  v.b = value;
  return v;
}

namespace {

// Cursor over the request line.
struct Parser {
  const std::string& s;
  size_t pos = 0;
  std::string* error;

  bool Fail(const std::string& message) {
    if (error != nullptr) {
      *error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void SkipSpace() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    SkipSpace();
    if (pos >= s.size() || s[pos] != '"') {
      return Fail("expected string");
    }
    ++pos;
    out->clear();
    while (pos < s.size()) {
      const char c = s[pos++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos >= s.size()) {
          return Fail("dangling escape");
        }
        const char e = s[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          default:
            return Fail(std::string("unsupported escape '\\") + e + "'");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos >= s.size()) {
      return Fail("expected value");
    }
    const char c = s[pos];
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') {
      const std::string word = c == 't' ? "true" : "false";
      if (s.compare(pos, word.size(), word) != 0) {
        return Fail("bad literal");
      }
      pos += word.size();
      out->kind = JsonValue::Kind::kBool;
      out->b = c == 't';
      return true;
    }
    if (c == '{' || c == '[') {
      return Fail("nested values are not part of the protocol");
    }
    if (c == 'n') {
      return Fail("null is not part of the protocol");
    }
    // Number.
    size_t end = pos;
    while (end < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[end])) != 0 || s[end] == '-' ||
            s[end] == '+' || s[end] == '.' || s[end] == 'e' || s[end] == 'E')) {
      ++end;
    }
    if (end == pos) {
      return Fail("expected value");
    }
    const std::string token = s.substr(pos, end - pos);
    try {
      size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size() || !std::isfinite(v)) {
        return Fail("bad number '" + token + "'");
      }
      out->kind = JsonValue::Kind::kNumber;
      out->num = v;
    } catch (const std::exception&) {
      return Fail("bad number '" + token + "'");
    }
    pos = end;
    return true;
  }
};

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string FmtNumber(double v) {
  // Integers (job ids, GPU counts) render without a decimal point; everything
  // else round-trips at full precision.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::ostringstream oss;
    oss << static_cast<long long>(v);
    return oss.str();
  }
  std::ostringstream oss;
  oss << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return oss.str();
}

}  // namespace

bool ParseJsonObject(const std::string& line, JsonObject* out, std::string* error) {
  out->clear();
  Parser p{line, 0, error};
  if (!p.Consume('{')) {
    return p.Fail("expected '{'");
  }
  p.SkipSpace();
  if (p.Consume('}')) {
    // Empty object; trailing garbage check below.
  } else {
    while (true) {
      std::string key;
      if (!p.ParseString(&key)) {
        return false;
      }
      if (!p.Consume(':')) {
        return p.Fail("expected ':'");
      }
      JsonValue value;
      if (!p.ParseValue(&value)) {
        return false;
      }
      (*out)[key] = value;
      if (p.Consume(',')) {
        continue;
      }
      if (p.Consume('}')) {
        break;
      }
      return p.Fail("expected ',' or '}'");
    }
  }
  p.SkipSpace();
  if (p.pos != line.size()) {
    return p.Fail("trailing characters");
  }
  return true;
}

std::string Serialize(const JsonObject& obj) {
  std::ostringstream oss;
  oss << '{';
  bool first = true;
  for (const auto& [key, value] : obj) {
    if (!first) {
      oss << ',';
    }
    first = false;
    oss << '"' << EscapeJson(key) << "\":";
    switch (value.kind) {
      case JsonValue::Kind::kString:
        oss << '"' << EscapeJson(value.str) << '"';
        break;
      case JsonValue::Kind::kNumber:
        oss << FmtNumber(value.num);
        break;
      case JsonValue::Kind::kBool:
        oss << (value.b ? "true" : "false");
        break;
    }
  }
  oss << '}';
  return oss.str();
}

bool Has(const JsonObject& obj, const std::string& key) { return obj.count(key) != 0; }

std::string GetString(const JsonObject& obj, const std::string& key,
                      const std::string& fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.kind != JsonValue::Kind::kString) {
    return fallback;
  }
  return it->second.str;
}

double GetNumber(const JsonObject& obj, const std::string& key, double fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.kind != JsonValue::Kind::kNumber) {
    return fallback;
  }
  return it->second.num;
}

bool GetBool(const JsonObject& obj, const std::string& key, bool fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.kind != JsonValue::Kind::kBool) {
    return fallback;
  }
  return it->second.b;
}

std::string OkResponse(JsonObject extra) {
  extra["ok"] = JsonValue::Bool(true);
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
        JsonObject obj;
        obj["ok"] = JsonValue::Bool(false);
        obj["reason"] = JsonValue::String(RejectReasonName(static_cast<RejectReason>(i)));
        cached[i] = Serialize(obj);
      }
      return cached;
    }();
    return kCached[static_cast<size_t>(reason)];
  }
  JsonObject obj;
  obj["ok"] = JsonValue::Bool(false);
  obj["reason"] = JsonValue::String(RejectReasonName(reason));
  obj["message"] = JsonValue::String(message);
  return Serialize(obj);
}

bool ParseSubmitJob(const JsonObject& request, TrainingJob* job, std::string* error) {
  *job = TrainingJob{};

  const std::string family = GetString(request, "family");
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

  job->spec.params_billion = GetNumber(request, "params_billion", -1.0);
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

  job->spec.global_batch = static_cast<int64_t>(GetNumber(request, "global_batch", 0.0));
  if (job->spec.global_batch < 1) {
    *error = "global_batch must be >= 1";
    return false;
  }
  job->iterations = static_cast<int64_t>(GetNumber(request, "iterations", 0.0));
  if (job->iterations < 1) {
    *error = "iterations must be >= 1";
    return false;
  }
  job->requested_gpus = static_cast<int>(GetNumber(request, "gpus", 0.0));
  if (job->requested_gpus < 1) {
    *error = "gpus must be >= 1";
    return false;
  }

  const std::string type = GetString(request, "type", "A100");
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

  if (Has(request, "deadline")) {
    const double deadline = GetNumber(request, "deadline", -1.0);
    if (deadline <= 0.0) {
      *error = "deadline must be > 0";
      return false;
    }
    job->deadline = deadline;
  }
  return true;
}

JsonObject SubmitRequest(const TrainingJob& job) {
  JsonObject obj;
  obj["cmd"] = JsonValue::String("submit");
  obj["family"] = JsonValue::String(FamilyName(job.spec.family));
  obj["params_billion"] = JsonValue::Number(job.spec.params_billion);
  obj["global_batch"] = JsonValue::Number(static_cast<double>(job.spec.global_batch));
  obj["iterations"] = JsonValue::Number(static_cast<double>(job.iterations));
  obj["gpus"] = JsonValue::Number(static_cast<double>(job.requested_gpus));
  obj["type"] = JsonValue::String(GpuName(job.requested_type));
  if (job.deadline.has_value()) {
    obj["deadline"] = JsonValue::Number(*job.deadline);
  }
  return obj;
}

}  // namespace serve
}  // namespace crius

// Line-delimited JSON protocol between crius_serve and its clients.
//
// Each request and each response is one flat JSON object on one line --
// string, number, and boolean values only, no nesting. The flat shape keeps
// the protocol trivially scriptable from a shell and is all the command
// vocabulary needs.
//
//   -> {"cmd":"submit","family":"BERT","params_billion":1.3,
//       "global_batch":256,"iterations":200,"gpus":8,"type":"A100"}
//   <- {"job_id":7,"ok":true,"status":"queued"}
//   -> {"cmd":"submit",...}                       (cluster saturated)
//   <- {"ok":false,"reason":"cluster_saturated"}
//
// Commands: submit | cancel | fail-node | recover-node | query | stats |
// metrics | shutdown. See DESIGN.md §8 for the full field tables. The
// `metrics` reply carries the (nested) registry snapshot through the flat
// shape as an escaped string field -- clients parse the line, then parse
// the "metrics" payload.
//
// The wire format is plain JSON through the repo's one codec (crius::Json,
// src/util/json.h); the serve layer adds exactly two rules on top of it:
// requests must be flat objects (nesting, arrays and null are rejected), and
// responses are compact with keys in sorted order so tests can
// string-compare them.

#ifndef SRC_SERVE_PROTOCOL_H_
#define SRC_SERVE_PROTOCOL_H_

#include <string>

#include "src/model/job.h"
#include "src/serve/event_queue.h"
#include "src/util/json.h"

namespace crius {
namespace serve {

// Parses one request line into a flat JSON object. Returns false (with a
// message in *error) on malformed JSON, a non-object, or any field that is
// not a string, number or bool -- operator input is rejected, never aborted
// on.
bool ParseJsonObject(const std::string& line, Json* out, std::string* error);

// Renders `obj` as one compact JSON line (no trailing newline), keys sorted.
std::string Serialize(const Json& obj);

// Canned responses.
std::string OkResponse(Json extra = Json::Object());
std::string ErrorResponse(RejectReason reason, const std::string& message = "");

// Builds a TrainingJob (id unset) from a submit request. Returns false with a
// human-readable message on unknown families/types, unsupported model sizes,
// or non-positive counts; the caller turns that into a kBadRequest response.
bool ParseSubmitJob(const Json& request, TrainingJob* job, std::string* error);

// The submit request for `job` (inverse of ParseSubmitJob; used by the client
// library and the load generator).
Json SubmitRequest(const TrainingJob& job);

}  // namespace serve
}  // namespace crius

#endif  // SRC_SERVE_PROTOCOL_H_

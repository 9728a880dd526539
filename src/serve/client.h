// Client library for the crius_serve line protocol.
//
// A blocking Unix-domain-socket connection plus typed wrappers for the
// protocol commands. Used by the crius_client CLI, the ext_serve load
// generator, and the service tests; the raw Call() surface is enough for
// scripted sessions, the typed helpers parse the interesting response fields.

#ifndef SRC_SERVE_CLIENT_H_
#define SRC_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/job.h"
#include "src/serve/protocol.h"

namespace crius {
namespace serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects to the daemon's socket. Returns false with a message on failure.
  bool Connect(const std::string& socket_path, std::string* error);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // One request/response round trip: sends `request` + '\n', blocks for the
  // response line. Returns false on transport errors (daemon gone).
  bool Call(const std::string& request, std::string* response, std::string* error);

  // Pipelined round trip: writes every request line in one buffer, then
  // reads exactly requests.size() response lines (the server answers a
  // connection's lines in order). Amortizes the syscall + wakeup cost of
  // Call() across the batch — the difference between an RTT-bound and an
  // ingress-bound load generator. Keep batches small enough that all the
  // responses fit in a socket buffer (a few hundred protocol lines): the
  // client does not read until it has written everything.
  bool CallBatch(const std::vector<std::string>& requests,
                 std::vector<std::string>* responses, std::string* error);

  // As Call, but serializes/parses the protocol's JSON objects.
  bool CallJson(const Json& request, Json* response, std::string* error);

  // --- Typed commands --------------------------------------------------------
  // Each returns false on transport errors; protocol-level rejections come
  // back through *response ("ok":false plus "reason").
  bool Submit(const TrainingJob& job, Json* response, std::string* error);
  bool Cancel(int64_t job_id, Json* response, std::string* error);
  bool FailNode(int node_id, Json* response, std::string* error);
  bool RecoverNode(int node_id, Json* response, std::string* error);
  bool Query(int64_t job_id, Json* response, std::string* error);
  bool Stats(Json* response, std::string* error);
  // `format` is "json" or "prometheus"; the registry snapshot comes back in
  // the response's "metrics" string field (see protocol.h).
  bool Metrics(const std::string& format, Json* response, std::string* error);
  bool Shutdown(bool drain, Json* response, std::string* error);

 private:
  bool SendAll(const std::string& payload, std::string* error);
  bool SendLine(const std::string& line, std::string* error);
  bool ReadLine(std::string* line, std::string* error);

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace serve
}  // namespace crius

#endif  // SRC_SERVE_CLIENT_H_

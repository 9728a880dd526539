#include "src/serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace crius {
namespace serve {

namespace {

// A request object carrying just its command verb.
Json Command(const std::string& cmd) {
  Json request = Json::Object();
  request.Set("cmd", Json::Str(cmd));
  return request;
}

}  // namespace

Client::~Client() { Close(); }

bool Client::Connect(const std::string& socket_path, std::string* error) {
  Close();
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    *error = "socket path too long: " + socket_path;
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect(" + socket_path + "): " + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool Client::SendLine(const std::string& line, std::string* error) {
  return SendAll(line + "\n", error);
}

bool Client::SendAll(const std::string& payload, std::string* error) {
  size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n = ::write(fd_, payload.data() + written, payload.size() - written);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      *error = std::string("write(): ") + (n < 0 ? std::strerror(errno) : "connection closed");
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool Client::ReadLine(std::string* line, std::string* error) {
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      *line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line->empty() && line->back() == '\r') {
        line->pop_back();
      }
      return true;
    }
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    *error = std::string("read(): ") + (n < 0 ? std::strerror(errno) : "connection closed");
    return false;
  }
}

bool Client::Call(const std::string& request, std::string* response, std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  return SendLine(request, error) && ReadLine(response, error);
}

bool Client::CallBatch(const std::vector<std::string>& requests,
                       std::vector<std::string>* responses, std::string* error) {
  responses->clear();
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  if (requests.empty()) {
    return true;
  }
  std::string payload;
  size_t total = 0;
  for (const std::string& request : requests) {
    total += request.size() + 1;
  }
  payload.reserve(total);
  for (const std::string& request : requests) {
    payload += request;
    payload += '\n';
  }
  if (!SendAll(payload, error)) {
    return false;
  }
  responses->reserve(requests.size());
  std::string line;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!ReadLine(&line, error)) {
      return false;
    }
    responses->push_back(line);
  }
  return true;
}

bool Client::CallJson(const Json& request, Json* response, std::string* error) {
  std::string line;
  if (!Call(Serialize(request), &line, error)) {
    return false;
  }
  if (!ParseJsonObject(line, response, error)) {
    *error = "bad response '" + line + "': " + *error;
    return false;
  }
  return true;
}

bool Client::Submit(const TrainingJob& job, Json* response, std::string* error) {
  return CallJson(SubmitRequest(job), response, error);
}

bool Client::Cancel(int64_t job_id, Json* response, std::string* error) {
  Json request = Command("cancel");
  request.Set("job_id", Json::Number(static_cast<double>(job_id)));
  return CallJson(request, response, error);
}

bool Client::FailNode(int node_id, Json* response, std::string* error) {
  Json request = Command("fail-node");
  request.Set("node_id", Json::Number(node_id));
  return CallJson(request, response, error);
}

bool Client::RecoverNode(int node_id, Json* response, std::string* error) {
  Json request = Command("recover-node");
  request.Set("node_id", Json::Number(node_id));
  return CallJson(request, response, error);
}

bool Client::Query(int64_t job_id, Json* response, std::string* error) {
  Json request = Command("query");
  request.Set("job_id", Json::Number(static_cast<double>(job_id)));
  return CallJson(request, response, error);
}

bool Client::Stats(Json* response, std::string* error) {
  return CallJson(Command("stats"), response, error);
}

bool Client::Metrics(const std::string& format, Json* response, std::string* error) {
  Json request = Command("metrics");
  request.Set("format", Json::Str(format));
  return CallJson(request, response, error);
}

bool Client::Shutdown(bool drain, Json* response, std::string* error) {
  Json request = Command("shutdown");
  request.Set("mode", Json::Str(drain ? "drain" : "now"));
  return CallJson(request, response, error);
}

}  // namespace serve
}  // namespace crius

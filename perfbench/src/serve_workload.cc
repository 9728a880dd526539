// serve-mixed: an in-process serving daemon (Controller + Unix-socket Server
// running crius on the simulated cluster) under an open-loop request mix.
//
// The load comes from this process: one sender thread that sleeps until the
// next request is due (it never spins) and one reader thread, on two
// connections -- writes (submit / cancel / fail-node / recover-node) on one,
// owner reads (query / stats) on the other. Every request is timed from the
// moment it was due, so a stall also charges the requests queued behind it,
// and the sender's lateness is reported. Offered rates climb a ladder of
// rungs; the writes keep a fixed rate while reads fill each rung.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string_view>
#include <thread>

#include "src/serve/controller.h"
#include "src/serve/protocol.h"
#include "src/serve/replay.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/sim/trace.h"
#include "src/timed_scheduler.h"
#include "src/util/counters.h"
#include "src/util/threadpool.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

constexpr int kPoolThreads = 1;
constexpr int kConnections = 2;  // 0: writes, 1: reads
// A rung "holds" when its ack p99 stays under this limit, nothing in it
// failed, and the in-flight backlog at its end is below rate x limit.
constexpr double kAckLimitMs = 100.0;
// The ladder: offered rate and share of the load phase. The nominal rung, on
// which the end-to-end latencies are reported, gets the most time.
constexpr double kRates[] = {4000.0, 16000.0, 32000.0};
constexpr double kRungShare[] = {0.2, 0.5, 0.3};
constexpr size_t kNominalRung = 1;
// Virtual seconds per 20 ms controller tick. At kSubmitRate submits/s of
// the week-heavy job mix this offers the cluster about 0.8 of its capacity,
// so jobs finish during the session and the live set stays bounded (the
// week-heavy trace itself offers 1.25).
constexpr double kTickVirtualSeconds = 900.0;
// Submits seeded before the load so owner queries always have a target.
constexpr int kPreloadJobs = 8;
// One request in this many gets spans in a traced run.
constexpr uint32_t kSpanSample = 64;

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Blocking one-line round trip (set-up and preload only).
bool CallLine(int fd, const std::string& line, std::string* response) {
  if (!WriteAll(fd, line + "\n")) {
    return false;
  }
  response->clear();
  char c;
  while (true) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n <= 0) {
      return false;
    }
    if (c == '\n') {
      return true;
    }
    response->push_back(c);
  }
}

int64_t ParseJobId(std::string_view line) {
  const size_t key = line.find("\"job_id\":");
  return key == std::string_view::npos ? -1 : std::strtoll(line.data() + key + 9, nullptr, 10);
}

// The daemon and the benchmark's two connections.
struct Daemon {
  crius::SessionRuntime runtime;
  std::unique_ptr<TimedScheduler> timed;
  std::unique_ptr<crius::Controller> controller;
  std::unique_ptr<crius::serve::Server> server;
  int fds[kConnections] = {-1, -1};

  // Closes the connections and stops the daemon without draining the
  // session (the benchmark measures ingress and live decisions, not the
  // simulation of what is left).
  void Stop() {
    for (int& fd : fds) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
    if (controller) {
      controller->Shutdown(/*drain=*/false);
      controller->Join();
    }
    if (server) {
      server->Stop();
    }
  }
};

std::unique_ptr<Daemon> StartDaemon(const std::string& socket_path, uint64_t seed,
                                    std::string* error) {
  auto d = std::make_unique<Daemon>();
  crius::SessionMeta meta;
  meta.cluster_spec = "simulated";
  meta.scheduler = "crius";
  meta.seed = seed;
  d->runtime = crius::MakeSessionRuntime(meta);
  d->timed = std::make_unique<TimedScheduler>(d->runtime.scheduler.get());
  crius::Controller::Config config;
  config.tick_virtual_seconds = kTickVirtualSeconds;
  config.queue.capacity = 4096;
  d->controller = std::make_unique<crius::Controller>(d->runtime.cluster, d->runtime.sim,
                                                      *d->timed, *d->runtime.oracle,
                                                      /*log=*/nullptr, config);
  d->server = std::make_unique<crius::serve::Server>(socket_path,
                                                     crius::serve::MakeHandler(*d->controller));
  if (!d->server->Start(error)) {
    return nullptr;
  }
  d->controller->Start();
  for (int& fd : d->fds) {
    fd = ConnectUnix(socket_path);
    if (fd < 0) {
      *error = "connect " + socket_path + ": " + std::strerror(errno);
      d->Stop();
      return nullptr;
    }
  }
  return d;
}

// What happened to one scheduled request.
struct OpResult {
  int64_t sent_ns = -1;   // from load start; -1 = never sent
  int64_t ack_ns = -1;    // -1 = unanswered
  int64_t asked_id = -1;  // query: the job id asked about
  bool ok = false;
  bool in_order = true;   // the response answers this request (see Classify)
  bool skipped = false;   // cancel whose target was never accepted
  std::string reason;     // rejection token
};

struct LoadOutcome {
  std::vector<OpResult> ops;
  std::vector<int64_t> accepted_ids;
  size_t transport_errors = 0;
  size_t unmatched_responses = 0;
  std::vector<size_t> inflight_at_rung_end;
  double load_s = 0.0;
  // CPU time the daemon's threads used during the load: the process's CPU
  // time minus that of the benchmark's sender and reader threads.
  double daemon_cpu_s = 0.0;
};

// Reads one response line: returns whether it is ok, records a rejection's
// reason token, and checks that an ok response answers its request.
// Responses are matched to requests by order, so a mismatch means the order
// broke: a query's response must echo the job id it asked about, a submit's
// must carry a job id above the previous submit's on the connection
// (`last_submit_id`; the daemon numbers jobs in acceptance order), and the
// others must have the shape their command implies.
bool Classify(OpKind kind, std::string_view line, int64_t* last_submit_id, OpResult* r) {
  if (line.find("\"ok\":true") == std::string_view::npos) {
    const size_t key = line.find("\"reason\":\"");
    r->reason = key == std::string_view::npos
                    ? "missing_reason"
                    : std::string(line.substr(key + 10, line.find('"', key + 10) - key - 10));
    return false;
  }
  switch (kind) {
    case OpKind::kSubmit: {
      const int64_t id = ParseJobId(line);
      r->in_order = id > *last_submit_id;
      *last_submit_id = std::max(id, *last_submit_id);
      break;
    }
    case OpKind::kQuery:
      r->in_order = line.find("\"first_start\":") != std::string_view::npos &&
                    ParseJobId(line) == r->asked_id;
      break;
    case OpKind::kStats:
      r->in_order = line.find("\"ticks\":") != std::string_view::npos;
      break;
    default:  // cancel / fail-node / recover-node answer a bare {"ok":true}
      r->in_order = line == "{\"ok\":true}";
      break;
  }
  return true;
}

// Drives `schedule` against the daemon. `submit_lines` are the pre-serialized
// submit bodies, indexed by ScheduledOp::arg.
LoadOutcome RunLoad(Daemon& daemon, const std::vector<ScheduledOp>& schedule,
                    const ServeLoadConfig& load, const std::vector<std::string>& submit_lines,
                    const std::vector<int64_t>& preloaded) {
  const size_t n = schedule.size();
  LoadOutcome out;
  out.ops.resize(n);
  out.inflight_at_rung_end.assign(load.rates.size(), 0);

  // Submit ordinal of every submit op (cancels name submits by ordinal).
  std::vector<uint32_t> ordinal(n, 0);
  uint32_t submits = 0;
  for (size_t i = 0; i < n; ++i) {
    if (schedule[i].kind == OpKind::kSubmit) {
      ordinal[i] = submits++;
    }
  }
  std::vector<std::atomic<int64_t>> submit_ids(submits);
  for (auto& id : submit_ids) {
    id.store(-1, std::memory_order_relaxed);
  }
  // Accepted ids in acceptance order; the reader appends, the sender reads.
  std::vector<int64_t> accepted(n + preloaded.size());
  std::copy(preloaded.begin(), preloaded.end(), accepted.begin());
  std::atomic<size_t> accepted_count{preloaded.size()};

  std::vector<uint32_t> order[kConnections];
  std::atomic<size_t> sent[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    order[c].resize(n);
    sent[c].store(0);
  }
  std::atomic<size_t> answered{0};
  std::atomic<bool> sender_done{false};
  const double process_cpu0 = ProcessCpuSeconds();
  const double sender_cpu0 = ThreadCpuSeconds();
  double reader_cpu_s = 0.0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto ns_since_start = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - start).count();
  };

  std::thread reader([&] {
    const double reader_cpu0 = ThreadCpuSeconds();
    int64_t last_submit_id = preloaded.empty() ? -1 : preloaded.back();
    std::string buf[kConnections];
    size_t next[kConnections] = {0, 0};
    bool closed[kConnections] = {false, false};
    while (true) {
      const size_t total_sent = sent[0].load() + sent[1].load();
      if (sender_done.load() && answered.load() >= total_sent) {
        break;
      }
      pollfd fds[kConnections];
      for (int c = 0; c < kConnections; ++c) {
        fds[c] = {closed[c] ? -1 : daemon.fds[c], POLLIN, 0};
      }
      const int ready = ::poll(fds, kConnections, 100);
      if (ready == 0 && sender_done.load() &&
          Clock::now() > start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(load.total_seconds() + 5.0))) {
        break;  // the rest stays unanswered
      }
      for (int c = 0; c < kConnections; ++c) {
        if (closed[c] || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        char chunk[65536];
        const ssize_t got = ::recv(daemon.fds[c], chunk, sizeof(chunk), 0);
        if (got <= 0) {
          closed[c] = true;
          ++out.transport_errors;
          continue;
        }
        const int64_t now = ns_since_start(Clock::now());
        buf[c].append(chunk, static_cast<size_t>(got));
        size_t begin = 0;
        for (size_t eol; (eol = buf[c].find('\n', begin)) != std::string::npos; begin = eol + 1) {
          const std::string_view line(buf[c].data() + begin, eol - begin);
          if (next[c] >= sent[c].load(std::memory_order_acquire)) {
            ++out.unmatched_responses;
            continue;
          }
          const uint32_t i = order[c][next[c]++];
          OpResult& r = out.ops[i];
          r.ack_ns = now;
          r.ok = Classify(schedule[i].kind, line, &last_submit_id, &r);
          if (r.ok && schedule[i].kind == OpKind::kSubmit) {
            const int64_t id = ParseJobId(line);
            submit_ids[ordinal[i]].store(id, std::memory_order_release);
            accepted[accepted_count.load(std::memory_order_relaxed)] = id;
            accepted_count.fetch_add(1, std::memory_order_release);
          }
          answered.fetch_add(1, std::memory_order_release);
        }
        buf[c].erase(0, begin);
      }
      if (closed[0] && closed[1]) {
        break;
      }
    }
    reader_cpu_s = ThreadCpuSeconds() - reader_cpu0;
  });

  // Sender: sleeps until the next request is due, then sends everything due.
  size_t send_errors = 0;  // the reader counts receive errors in `out`
  std::string out_buf[kConnections];
  size_t i = 0;
  size_t rung = 0;
  char line[160];
  while (i < n) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i].due_s));
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
    }
    const Clock::time_point now = Clock::now();
    const double now_s = SecondsBetween(start, now);
    while (static_cast<int>(rung) < load.RungAt(now_s)) {
      out.inflight_at_rung_end[rung++] = sent[0].load() + sent[1].load() - answered.load();
    }
    out_buf[0].clear();
    out_buf[1].clear();
    size_t queued[kConnections] = {sent[0].load(), sent[1].load()};
    for (; i < n && schedule[i].due_s <= now_s; ++i) {
      const ScheduledOp& op = schedule[i];
      int conn = 0;
      switch (op.kind) {
        case OpKind::kSubmit:
          out_buf[0] += submit_lines[op.arg];
          out_buf[0] += '\n';
          break;
        case OpKind::kCancel: {
          const int64_t id = submit_ids[op.arg].load(std::memory_order_acquire);
          if (id < 0) {
            out.ops[i].skipped = true;
            continue;
          }
          std::snprintf(line, sizeof(line), "{\"cmd\":\"cancel\",\"job_id\":%lld}\n",
                        static_cast<long long>(id));
          out_buf[0] += line;
          break;
        }
        case OpKind::kFailNode:
        case OpKind::kRecoverNode:
          std::snprintf(line, sizeof(line), "{\"cmd\":\"%s\",\"node_id\":%u}\n",
                        OpKindName(op.kind), op.arg);
          out_buf[0] += line;
          break;
        case OpKind::kQuery: {
          conn = 1;
          const size_t known = accepted_count.load(std::memory_order_acquire);
          out.ops[i].asked_id = accepted[op.arg % known];
          std::snprintf(line, sizeof(line), "{\"cmd\":\"query\",\"job_id\":%lld}\n",
                        static_cast<long long>(out.ops[i].asked_id));
          out_buf[1] += line;
          break;
        }
        case OpKind::kStats:
          conn = 1;
          out_buf[1] += "{\"cmd\":\"stats\"}\n";
          break;
      }
      out.ops[i].sent_ns = ns_since_start(now);
      order[conn][queued[conn]++] = static_cast<uint32_t>(i);
    }
    for (int c = 0; c < kConnections; ++c) {
      if (out_buf[c].empty()) {
        continue;
      }
      sent[c].store(queued[c], std::memory_order_release);
      ScopedSpan span("serve.client.send");
      if (!WriteAll(daemon.fds[c], out_buf[c])) {
        ++send_errors;
      }
    }
  }
  while (rung < load.rates.size()) {
    out.inflight_at_rung_end[rung++] = sent[0].load() + sent[1].load() - answered.load();
  }
  sender_done.store(true);
  reader.join();
  out.daemon_cpu_s =
      ProcessCpuSeconds() - process_cpu0 - (ThreadCpuSeconds() - sender_cpu0) - reader_cpu_s;
  out.transport_errors += send_errors;
  out.load_s = SecondsSince(start);
  out.accepted_ids.assign(accepted.begin() + static_cast<long>(preloaded.size()),
                          accepted.begin() + static_cast<long>(accepted_count.load()));

  // Sampled request spans: the request from due to ack, its socket round
  // trip (sent -> ack) as the child; the parent's self time is the sender's
  // lateness.
  if (Tracer::Get().enabled()) {
    for (size_t k = 0; k < n; k += kSpanSample) {
      const OpResult& r = out.ops[k];
      if (r.sent_ns < 0 || r.ack_ns < 0) {
        continue;
      }
      auto at = [&](int64_t ns) { return start + std::chrono::nanoseconds(ns); };
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule[k].due_s));
      const int parent = Tracer::Get().Record("serve.request", std::min(due, at(r.sent_ns)),
                                              at(r.ack_ns), -1, static_cast<int64_t>(k));
      Tracer::Get().Record("serve.socket_roundtrip", at(r.sent_ns), at(r.ack_ns), parent,
                           static_cast<int64_t>(k));
    }
  }
  return out;
}

// Latency from due time to ack, in ms, for answered requests matching `keep`.
template <typename Pred>
std::vector<double> AckMs(const std::vector<ScheduledOp>& schedule, const LoadOutcome& load,
                          Pred keep) {
  std::vector<double> out;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const OpResult& r = load.ops[i];
    if (r.ack_ns >= 0 && keep(schedule[i], r)) {
      out.push_back(r.ack_ns / 1e6 - schedule[i].due_s * 1e3);
    }
  }
  return out;
}

struct RungStats {
  double rate = 0.0;
  Dist ack;
  size_t attempted = 0, failed = 0;
  size_t on_time = 0;  // answered ok within kAckLimitMs of its due time
  double ok_per_s = 0.0;
  bool holds = false;
};

}  // namespace

void RunServeWorkload(const RunOptions& options, Report* report) {
  std::printf("workload serve-mixed: crius on the simulated cluster, open loop, 1 sender + 1 "
              "reader thread, %d connections, pool %d threads, seed %llu\n",
              kConnections, kPoolThreads, static_cast<unsigned long long>(options.seed));
  crius::ThreadPool::SetGlobalThreads(kPoolThreads);
  ::mkdir(kOutDir, 0755);
  const std::string socket_path =
      std::string(kOutDir) + "/serve-" + std::to_string(::getpid()) + ".sock";

  // Set-up: the week-heavy job mix, the daemon, and both connections. The
  // first repeats are torn down again.
  SpeedMeter meter;
  std::vector<double> setup_s;
  std::vector<std::string> submit_lines;
  std::unique_ptr<Daemon> daemon;
  std::string error;
  for (const Clock::time_point first = Clock::now();
       MoreSetups(setup_s.size(), SecondsSince(first));) {
    if (daemon) {
      daemon->Stop();
      daemon.reset();
    }
    meter.Begin();
    const double t0 = ThreadCpuSeconds();
    const crius::Cluster cluster = crius::MakeSimulatedCluster();
    crius::PerformanceOracle oracle(cluster, crius::PhillyWeekHeavyConfig().seed);
    const std::vector<crius::TrainingJob> mix =
        crius::GenerateTrace(cluster, oracle, crius::PhillyWeekHeavyConfig());
    submit_lines.clear();
    for (const crius::TrainingJob& job : mix) {
      submit_lines.push_back(crius::serve::Serialize(crius::serve::SubmitRequest(job)));
    }
    daemon = StartDaemon(socket_path, options.seed, &error);
    if (!daemon) {
      report->Check("serve.daemon_started", false, error);
      return;
    }
    const double raw_s = ThreadCpuSeconds() - t0;
    setup_s.push_back(raw_s * meter.End().factor);
  }

  // Owner reads need accepted jobs to ask about.
  std::vector<int64_t> preloaded;
  for (int i = 0; i < kPreloadJobs; ++i) {
    std::string response;
    if (CallLine(daemon->fds[0], submit_lines[static_cast<size_t>(i)], &response)) {
      const int64_t id = ParseJobId(response);
      if (id >= 0) {
        preloaded.push_back(id);
      }
    }
  }
  report->Check("serve.preload_accepted", preloaded.size() == kPreloadJobs);
  if (preloaded.size() != kPreloadJobs) {
    daemon->Stop();
    return;
  }

  ServeLoadConfig load;
  load.rates.assign(std::begin(kRates), std::end(kRates));
  load.num_nodes = static_cast<int>(daemon->runtime.cluster.nodes().size());
  load.job_mix = static_cast<uint32_t>(submit_lines.size());
  // A traced run measures an untraced and a traced ladder, each half as long.
  const int phases = options.trace ? 2 : 1;
  for (const double share : kRungShare) {
    load.rung_seconds.push_back(options.seconds * share / phases);
  }
  const std::vector<ScheduledOp> schedule = BuildOpenLoopSchedule(load, options.seed);

  crius::CounterRegistry::Global().Reset();
  // The daemon's CPU time over the untraced ladder, at reference speed (the
  // meter's samples bracket the ladder: the generator must not pause).
  meter.Begin();
  const LoadOutcome untraced = RunLoad(*daemon, schedule, load, submit_lines, preloaded);
  const double daemon_cpu_s = untraced.daemon_cpu_s * meter.End().factor;
  LoadOutcome traced;
  if (options.trace) {
    crius::CounterRegistry::Global().Reset();
    daemon->timed->Reset();
    Tracer::Get().SetEnabled(true);
    traced = RunLoad(*daemon, schedule, load, submit_lines, preloaded);
  }
  const LoadOutcome& measured = options.trace ? traced : untraced;
  crius::Controller::Stats stats;
  {
    ScopedSpan span("serve.Controller.GetStats");
    stats = daemon->controller->GetStats();
  }
  Tracer::Get().SetEnabled(false);
  daemon->Stop();
  ::unlink(socket_path.c_str());

  // --- Per-rung accounting ---------------------------------------------------
  std::vector<RungStats> rungs(load.rates.size());
  std::map<std::string, size_t> rejects;
  size_t attempted = 0, failed = 0, unanswered = 0, order_errors = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const OpResult& r = measured.ops[i];
    if (r.skipped) {
      continue;
    }
    RungStats& rs = rungs[static_cast<size_t>(schedule[i].rung)];
    ++attempted;
    ++rs.attempted;
    const bool fail = !r.ok || r.ack_ns < 0;
    if (r.ack_ns < 0) {
      ++unanswered;
    } else if (!r.ok) {
      ++rejects[r.reason];
    } else if (!r.in_order) {
      ++order_errors;
    }
    failed += fail ? 1 : 0;
    rs.failed += fail ? 1 : 0;
    rs.on_time += !fail && r.ack_ns / 1e6 - schedule[i].due_s * 1e3 <= kAckLimitMs ? 1 : 0;
    rs.ok_per_s += fail ? 0.0 : 1.0 / load.rung_seconds[static_cast<size_t>(schedule[i].rung)];
  }
  std::vector<double> late_ms;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (measured.ops[i].sent_ns >= 0) {
      late_ms.push_back(measured.ops[i].sent_ns / 1e6 - schedule[i].due_s * 1e3);
    }
  }
  double max_ok_rps = 0.0;
  for (size_t k = 0; k < rungs.size(); ++k) {
    RungStats& rs = rungs[k];
    rs.rate = load.rates[k];
    rs.ack = Summarize(AckMs(schedule, measured, [&](const ScheduledOp& op, const OpResult&) {
      return static_cast<size_t>(op.rung) == k;
    }));
    const bool no_backlog =
        measured.inflight_at_rung_end[k] <= rs.rate * kAckLimitMs / 1e3;
    rs.holds = rs.failed == 0 && rs.ack.tail <= kAckLimitMs && no_backlog;
    if (rs.holds) {
      max_ok_rps = rs.ok_per_s;
    }
    std::printf("rung %.0f/s: %zu requests, ack p50 %.3f ms p%s %.3f ms, %zu failed, %zu in "
                "flight at end, %.0f ok/s -> %s\n",
                rs.rate, rs.attempted, rs.ack.p50, FormatPermille(rs.ack.tail_permille).c_str(),
                rs.ack.tail, rs.failed, measured.inflight_at_rung_end[k], rs.ok_per_s,
                rs.holds ? "holds" : "does not hold");
  }
  for (const auto& [reason, count] : rejects) {
    std::printf("rejected %-24s %zu\n", reason.c_str(), count);
  }
  std::printf("load %.2f s, live jobs at end %d, decisions %llu\n", measured.load_s,
              stats.live_jobs,
              static_cast<unsigned long long>(stats.decisions));

  // --- Correctness -----------------------------------------------------------
  const size_t answered = attempted - unanswered;
  report->Check("serve.one_response_per_request",
                measured.unmatched_responses == 0 && unanswered == 0,
                std::to_string(unanswered) + " unanswered, " +
                    std::to_string(measured.unmatched_responses) + " unmatched of " +
                    std::to_string(answered) + " answered");
  report->Check("serve.responses_in_order", order_errors == 0,
                std::to_string(order_errors) + " responses do not fit their request");
  std::set<int64_t> ids(measured.accepted_ids.begin(), measured.accepted_ids.end());
  ids.insert(preloaded.begin(), preloaded.end());
  if (options.trace) {
    ids.insert(untraced.accepted_ids.begin(), untraced.accepted_ids.end());
  }
  const size_t accepted_total =
      measured.accepted_ids.size() + preloaded.size() +
      (options.trace ? untraced.accepted_ids.size() : 0);
  report->Check("serve.accepted_ids_unique", ids.size() == accepted_total,
                std::to_string(accepted_total) + " accepted, " + std::to_string(ids.size()) +
                    " distinct");
  report->Check("serve.no_transport_errors",
                measured.transport_errors == 0 && untraced.transport_errors == 0);
  report->attempted = static_cast<int64_t>(attempted);
  report->failed = static_cast<int64_t>(failed);

  const RungStats& nominal = rungs[kNominalRung];
  if (!options.trace) {
    // The daemon's capacity: ok responses per CPU-second its threads used
    // over the whole ladder. Unlike max_ok_rps, which stops at the top rung
    // the generator offers, it rises when the daemon gets cheaper per request.
    const double ok_per_cpu_s = static_cast<double>(attempted - failed) / daemon_cpu_s;
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("ok_frac", 1.0 - static_cast<double>(failed) / attempted, "1");
    report->Set("work_per_s", ok_per_cpu_s, "1/s");
    report->Set("p50_ms", stats.latency_p50_ms, "ms");
    report->Set("p99_ms", stats.latency_p99_ms, "ms");
    report->Set("quality", static_cast<double>(nominal.on_time) / nominal.attempted, "1");
    report->Note("ok_per_daemon_cpu_s", ok_per_cpu_s, "1/s");
    report->Note("daemon_cpu_s (measured)", measured.daemon_cpu_s, "s");
    report->Note("speed_factor (median)", meter.MedianFactor(), "1");
    report->Note("max_ok_rps", max_ok_rps, "1/s");
    report->Note("ack_p50_ms @" + std::to_string(static_cast<int>(nominal.rate)) + "/s",
                 nominal.ack.p50, "ms");
    report->Note("ack_p" + FormatPermille(nominal.ack.tail_permille) + "_ms (n=" +
                     std::to_string(nominal.ack.n) + ")",
                 nominal.ack.tail, "ms");
    report->Note("decision_p50_ms", stats.latency_p50_ms, "ms");
    report->Note("decision_p99_ms (n=" + std::to_string(stats.decisions) + ")",
                 stats.latency_p99_ms, "ms");
    report->Note("failed_frac", static_cast<double>(failed) / attempted, "1");
    report->Note("on_time_share @" + std::to_string(static_cast<int>(nominal.rate)) + "/s",
                 static_cast<double>(nominal.on_time) / nominal.attempted, "1");
    return;
  }

  // --- Per-layer (traced) ----------------------------------------------------
  SetLayerDefaults(report);
  const std::vector<Span> spans = Tracer::Get().Take();
  WriteTraceFile(options, spans, report);
  auto nominal_kind = [&](OpKind kind) {
    return Summarize(AckMs(schedule, measured, [&](const ScheduledOp& op, const OpResult&) {
      return static_cast<size_t>(op.rung) == kNominalRung && op.kind == kind;
    }));
  };
  const Dist submit = nominal_kind(OpKind::kSubmit);
  const Dist query = nominal_kind(OpKind::kQuery);
  const Dist late = Summarize(late_ms);
  const crius::CounterRegistry& reg = crius::CounterRegistry::Global();
  report->Set("serve.submit_ack_p50_ms", submit.p50, "ms");
  report->Set("serve.submit_ack_p99_ms", submit.tail, "ms");
  report->Set("serve.query_ack_p50_ms", query.p50, "ms");
  report->Set("serve.query_ack_p99_ms", query.tail, "ms");
  report->Set("serve.decision_p50_ms", stats.latency_p50_ms, "ms");
  report->Set("serve.decision_p99_ms", stats.latency_p99_ms, "ms");
  for (const char* phase : {"drain", "apply", "schedule", "log"}) {
    const crius::HistogramSnapshot h = reg.HistogramValues(
        crius::CanonicalMetricName("serve.phase_ms", {{"phase", phase}}));
    report->Set(std::string("serve.tick_") + phase + "_p50_ms", h.p50, "ms");
    report->Set(std::string("serve.tick_") + phase + "_p99_ms", h.p99, "ms");
  }
  report->Set("serve.ticks", static_cast<double>(reg.CounterValue("serve.ticks")), "count");
  size_t rejected = 0;
  for (const auto& [reason, count] : rejects) {
    rejected += count;
  }
  report->Set("serve.rejected", static_cast<double>(rejected), "count");
  report->Set("serve.unanswered", static_cast<double>(unanswered), "count");
  report->Set("serve.gen_late_p99_ms", late.tail, "ms");
  report->Set("serve.gen_late_max_ms", late.max, "ms");
  const TimedScheduler& ts = *daemon->timed;
  const Dist rounds = Summarize(ts.round_ms_);
  report->Set("sched.busy_s", rounds.sum / 1e3, "s");
  report->Set("sched.rounds", static_cast<double>(rounds.n), "count");
  report->Set("sched.round_p50_ms", rounds.p50, "ms");
  report->Set("sched.round_p99_ms", rounds.tail, "ms");
  report->Set("sched.steady_round_p50_ms", Summarize(ts.steady_ms_).p50, "ms");
  report->Set("sched.event_round_p99_ms", Summarize(ts.event_ms_).tail, "ms");
  report->Set("sched.profiling_s", ts.profiling_s_, "s");
  auto nominal_p50 = [&](const LoadOutcome& outcome) {
    return Summarize(AckMs(schedule, outcome, [](const ScheduledOp& op, const OpResult&) {
             return static_cast<size_t>(op.rung) == kNominalRung;
           })).p50;
  };
  report->Set("trace.overhead_frac", nominal_p50(traced) / nominal_p50(untraced) - 1.0, "1");
}

}  // namespace perfbench

// e2e_client: the benchmark's load client and answer checker.
//
//   e2e_client --urankd=PATH --workload=NAME --seed=N --seconds=T --out=DIR
//
// One process, one event-loop thread, at most one connection per
// hardware thread. A run:
//   1. generates the workload's inputs from the seed (workload.h);
//   2. sets up kSetupRounds times: spawn urankd with its default options,
//      admin/load every relation, send every reader key once, and time
//      spawn -> ready. Only the last daemon is kept;
//   3. open-loop phase: reader queries at the workload's fixed rate, on a
//      precomputed schedule, pipelined over the reader connections. Each
//      request is timed from its due time, so a server stall also delays
//      (and is charged to) every request due while it lasts;
//   4. closed-loop phase: each reader connection keeps one query in
//      flight. churn's writer keeps its fixed-rate schedule through both
//      phases on its own connection;
//   5. read-only workloads then run a write probe: fixed-rate mutate
//      batches against their relation once the query phases are over, so
//      every workload reports mutate latency;
//   6. stops urankd (its VmHWM was read before the probe) and checks
//      answers against an in-process reference QueryEngine built from
//      the same CSV bytes.
// It writes records.tsv (one row per request), stream.tsv (the setup and
// open-loop request lines, replayed by e2e_replay) and summary.json into
// DIR. Statistics are computed from those files by stats.py.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine/mutable_relation.h"
#include "core/engine/query_engine.h"
#include "io/csv.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workload.h"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;
using urank::serve::JsonValue;

constexpr int kSetupRounds = 5;
// Responses still missing this long after a timed phase stopped issuing
// count as failed. Setup requests (cold kernels) get longer.
constexpr std::int64_t kGraceNs = 2'000'000'000;
constexpr std::int64_t kSetupGraceNs = 120'000'000'000;
// Due time of a closed-loop request: the moment it is sent.
constexpr std::int64_t kDueWhenSent = -1;
// The open-loop phase must hold enough queries for a p99 with at least
// ten samples beyond it, and the mutate series enough for a p90.
constexpr long long kMinOpenQueries = 1000;
constexpr long long kMinMutates = 100;

enum Phase { kSetup = 0, kOpen = 1, kClosed = 2, kProbe = 3 };
enum RequestKind { kQuery = 0, kMutate = 1, kLoad = 2, kMetrics = 3 };
enum Verdict { kUnchecked = 0, kVerified = 1, kMismatch = 2 };

// One request and what came back. Times are nanoseconds since the run
// origin; recv_ns stays -1 for a request never answered.
struct Record {
  int phase = kSetup;
  int kind = kQuery;
  int conn = 0;
  int key = -1;  // reader key, or relation index for mutates
  long long seq = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = -1;
  std::int64_t recv_ns = -1;
  int code = -1;  // wire status code; -2 = unparseable or uncorrelated
  char cache = '-';
  std::uint64_t epoch = 0;
  double serve_ms = 0.0;
  double queue_ms = 0.0;
  double engine_ms = 0.0;
  bool reused = false;
  long long dp_cells = 0;
  long long tuples_scanned = 0;
  std::size_t bytes = 0;
  std::uint64_t answer_hash = 0;
  int verdict = kUnchecked;
};

struct Request {
  std::size_t record = 0;
  std::string line;
};

// ---------------------------------------------------------------------
// Response scanning: the few fields the statistics need, read without
// building a JSON tree (the loop must stay cheap next to the server).

std::size_t FindKey(const std::string& line, const char* key,
                    std::size_t from = 0) {
  const std::string pattern = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pattern, from);
  return at == std::string::npos ? at : at + pattern.size();
}

bool NumberAt(const std::string& line, const char* key, std::size_t from,
              double* out) {
  const std::size_t at = FindKey(line, key, from);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtod(line.c_str() + at, &end);
  return end != line.c_str() + at;
}

std::uint64_t Fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Fills the response fields of `rec` from `line`; returns the SIMD target
// an engine-run response reports (empty otherwise).
std::string ScanResponse(const std::string& line, Record* rec) {
  rec->bytes = line.size();
  double value = 0.0;
  if (!NumberAt(line, "id", 0, &value) ||
      static_cast<long long>(value) != rec->seq ||
      !NumberAt(line, "code", 0, &value)) {
    rec->code = -2;
    return {};
  }
  rec->code = static_cast<int>(value);
  if (NumberAt(line, "epoch", 0, &value)) {
    rec->epoch = static_cast<std::uint64_t>(value);
  }
  const std::size_t cache = FindKey(line, "cache");
  if (cache != std::string::npos && cache + 1 < line.size()) {
    rec->cache = line[cache + 1];  // 'h'it, 'm'iss or 'b'ypass
  }
  const std::size_t stats = FindKey(line, "stats");
  if (stats == std::string::npos) return {};
  const std::size_t ids = FindKey(line, "ids");
  if (ids != std::string::npos && ids < stats) {
    rec->answer_hash = Fnv1a(std::string_view(line).substr(ids, stats - ids));
  }
  NumberAt(line, "serve_ms", stats, &rec->serve_ms);
  NumberAt(line, "queue_ms", stats, &rec->queue_ms);
  NumberAt(line, "engine_ms", stats, &rec->engine_ms);
  if (NumberAt(line, "dp_cells", stats, &value)) {
    rec->dp_cells = static_cast<long long>(value);
  }
  if (NumberAt(line, "tuples_scanned", stats, &value)) {
    rec->tuples_scanned = static_cast<long long>(value);
  }
  const std::size_t reused = FindKey(line, "reused_cache", stats);
  rec->reused = reused != std::string::npos &&
                line.compare(reused, 4, "true") == 0;
  if (rec->cache == 'h') return {};
  const std::size_t simd = FindKey(line, "simd_target", stats);
  if (simd == std::string::npos) return {};
  const std::size_t close = line.find('"', simd + 1);
  return close == std::string::npos ? std::string()
                                    : line.substr(simd + 1, close - simd - 1);
}

// Reader keys in seeded, shuffled rounds: each round of keys.size()
// consecutive requests asks every key once, so any stretch of traffic
// carries the workload's mix of cheap and costly queries.
class KeyCycle {
 public:
  KeyCycle(std::size_t keys, std::uint64_t seed) : rng_(seed), order_(keys) {
    for (std::size_t i = 0; i < keys; ++i) order_[i] = static_cast<int>(i);
  }

  int Next() {
    if (next_ == 0) rng_.Shuffle(order_);
    const int key = order_[next_];
    next_ = (next_ + 1) % order_.size();
    return key;
  }

 private:
  urank::Rng rng_;
  std::vector<int> order_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------
// The daemon under test: a child urankd with its default options.

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& path, std::string* error) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *error = std::strerror(errno);
      return false;
    }
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = std::strerror(errno);
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      // Never outlive the client, whatever kills it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl(path.c_str(), path.c_str(), "--port=0",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    stderr_fd_ = fds[0];

    // urankd announces "urankd: listening on 127.0.0.1:PORT".
    const char* kBanner = "listening on 127.0.0.1:";
    std::string text;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      const std::size_t at = text.find(kBanner);
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        port_ = std::atoi(text.c_str() + at + std::strlen(kBanner));
        return port_ > 0;
      }
      pollfd pfd{stderr_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
    *error = "urankd did not report a port: " + text;
    return false;
  }

  int port() const { return port_; }

  // Peak resident set (VmHWM) in KiB; -1 when unreadable.
  long PeakRssKb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
    }
    return -1;
  }

  // SIGTERM (urankd drains and exits 0), SIGKILL after 10 s.
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const Clock::time_point deadline =
          Clock::now() + std::chrono::seconds(10);
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (stderr_fd_ >= 0) {
      ::close(stderr_fd_);
      stderr_fd_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
};

// ---------------------------------------------------------------------
// The event loop: every connection, one thread.

struct Conn {
  int fd = -1;
  std::string out;  // bytes not yet accepted by the socket
  std::string in;   // bytes received after the last complete line
  std::deque<std::size_t> inflight;  // records in send order
  bool closed_loop = false;          // issues via PhasePlan::next
};

// What one phase sends. `schedule` is due-ordered; `next` (when set)
// produces the next request of a closed-loop connection, or false when
// that connection has nothing more to send.
struct PhasePlan {
  std::vector<Request> schedule;
  std::vector<int> closed_conns;
  std::function<bool(int conn, Request* out)> next;
  std::int64_t closed_until_ns = 0;
  std::int64_t grace_ns = kGraceNs;
};

// A plan that sends `next`'s requests one at a time per connection until
// it runs dry (loads, warm-up, metrics snapshots).
PhasePlan ListPlan(std::vector<int> conns,
                   std::function<bool(int conn, Request* out)> next) {
  PhasePlan plan;
  plan.closed_conns = std::move(conns);
  plan.next = std::move(next);
  plan.closed_until_ns = std::numeric_limits<std::int64_t>::max();
  plan.grace_ns = kSetupGraceNs;
  return plan;
}

class EventLoop {
 public:
  explicit EventLoop(Clock::time_point origin) : origin_(origin) {}
  ~EventLoop() { CloseAll(); }
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  std::vector<Record>& records() { return records_; }
  const std::string& simd_target() const { return simd_target_; }

  // Appends a record for a new request and returns its index.
  std::size_t NewRecord(int phase, int kind, int conn, int key,
                        std::int64_t due_ns) {
    Record rec;
    rec.phase = phase;
    rec.kind = kind;
    rec.conn = conn;
    rec.key = key;
    rec.seq = next_seq_++;
    rec.due_ns = due_ns;
    records_.push_back(rec);
    return records_.size() - 1;
  }

  bool Connect(int port, int count, std::string* error) {
    CloseAll();
    port_ = port;
    conns_.resize(static_cast<std::size_t>(count));
    for (Conn& conn : conns_) {
      if (!Open(&conn, error)) return false;
    }
    return true;
  }

  void CloseAll() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    conns_.clear();
  }

  // Called with each response line of a query (for the answer checker).
  std::function<void(std::size_t record, const std::string& line)> on_answer;
  // Called with each non-query response line.
  std::function<void(std::size_t record, const std::string& line)> on_reply;

  // Runs one phase: sends `plan.schedule` at its due times and keeps the
  // closed-loop connections busy until closed_until_ns, then waits for
  // outstanding responses (at most kGraceNs). A connection left with
  // unanswered requests is reopened so later phases stay correlated.
  bool Run(PhasePlan& plan, std::string* error) {
    for (Conn& conn : conns_) conn.closed_loop = false;
    for (int c : plan.closed_conns) {
      Conn& conn = conns_[static_cast<std::size_t>(c)];
      conn.closed_loop = true;
      IssueNext(plan, c);
    }
    std::size_t next = 0;
    std::int64_t drain_deadline = -1;
    std::vector<pollfd> pfds(conns_.size());
    for (;;) {
      std::int64_t now = Now();
      while (next < plan.schedule.size() &&
             records_[plan.schedule[next].record].due_ns <= now) {
        Request& request = plan.schedule[next];
        Send(records_[request.record].conn, request.record, request.line);
        ++next;
        now = Now();
      }
      bool issuing = next < plan.schedule.size();
      for (const Conn& conn : conns_) issuing = issuing || conn.closed_loop;
      std::size_t inflight = 0;
      for (const Conn& conn : conns_) inflight += conn.inflight.size();
      if (!issuing) {
        if (inflight == 0) break;
        if (drain_deadline < 0) drain_deadline = now + plan.grace_ns;
        if (now >= drain_deadline) break;
      }

      std::int64_t wait_ns = 50'000'000;
      if (next < plan.schedule.size()) {
        wait_ns = std::min(
            wait_ns, records_[plan.schedule[next].record].due_ns - now);
      }
      if (!plan.closed_conns.empty() && plan.closed_until_ns > now) {
        wait_ns = std::min(wait_ns, plan.closed_until_ns - now);
      }
      if (drain_deadline >= 0) wait_ns = std::min(wait_ns, drain_deadline - now);
      wait_ns = std::max<std::int64_t>(wait_ns, 0);
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        pfds[i].fd = conns_[i].fd;
        pfds[i].events = static_cast<short>(
            POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
        pfds[i].revents = 0;
      }
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
      if (ready < 0 && errno != EINTR) {
        *error = std::string("ppoll: ") + std::strerror(errno);
        return false;
      }
      if (Now() >= plan.closed_until_ns) {
        for (Conn& conn : conns_) conn.closed_loop = false;
      }
      for (std::size_t i = 0; i < conns_.size() && ready > 0; ++i) {
        if (pfds[i].revents & POLLOUT) Flush(static_cast<int>(i));
        if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          if (!Receive(plan, static_cast<int>(i), error)) return false;
        }
      }
    }
    for (Conn& conn : conns_) {
      if (conn.inflight.empty()) continue;
      conn.inflight.clear();
      ::close(conn.fd);
      conn.fd = -1;
      conn.out.clear();
      conn.in.clear();
      if (!Open(&conn, error)) return false;
    }
    return true;
  }

 private:
  bool Open(Conn* conn, std::string* error) {
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    if (conn->fd < 0 ||
        ::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    return true;
  }

  void IssueNext(PhasePlan& plan, int c) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    Request request;
    if (!conn.closed_loop || Now() >= plan.closed_until_ns ||
        !plan.next(c, &request)) {
      conn.closed_loop = false;
      return;
    }
    Send(c, request.record, request.line);
  }

  void Send(int c, std::size_t record, const std::string& line) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    Record& rec = records_[record];
    rec.conn = c;
    rec.sent_ns = Now();
    if (rec.due_ns == kDueWhenSent) rec.due_ns = rec.sent_ns;
    conn.inflight.push_back(record);
    conn.out.append(line);
    conn.out.push_back('\n');
    Flush(c);
  }

  void Flush(int c) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    std::size_t sent = 0;
    while (sent < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + sent,
                               conn.out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;  // EAGAIN: POLLOUT resumes; errors surface on read
      sent += static_cast<std::size_t>(n);
    }
    conn.out.erase(0, sent);
  }

  bool Receive(PhasePlan& plan, int c, std::string* error) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    char buf[65536];
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    const std::int64_t recv_ns = Now();
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) return true;
    if (n <= 0) {
      *error = "urankd closed connection " + std::to_string(c);
      return false;
    }
    conn.in.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn.in.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = conn.in.substr(start, nl - start);
      start = nl + 1;
      if (conn.inflight.empty()) continue;  // nothing expects it
      const std::size_t record = conn.inflight.front();
      conn.inflight.pop_front();
      Record& rec = records_[record];
      rec.recv_ns = recv_ns;
      const std::string simd = ScanResponse(line, &rec);
      if (simd_target_.empty() && !simd.empty()) simd_target_ = simd;
      if (rec.kind == kQuery) {
        if (on_answer) on_answer(record, line);
      } else if (on_reply) {
        on_reply(record, line);
      }
      if (conn.closed_loop) IssueNext(plan, c);
    }
    conn.in.erase(0, start);
    return true;
  }

  Clock::time_point origin_;
  int port_ = 0;
  std::vector<Conn> conns_;
  std::vector<Record> records_;
  long long next_seq_ = 1;
  std::string simd_target_;
};

// ---------------------------------------------------------------------
// Answer checking against an in-process reference engine.

bool ParseAnswer(const std::string& line, urank::RankingAnswer* out) {
  urank::serve::ParsedResponse parsed;
  if (!urank::serve::ParseResponse(line, &parsed)) return false;
  const JsonValue* ids = parsed.body.Find("ids");
  const JsonValue* statistics = parsed.body.Find("statistics");
  if (ids == nullptr || statistics == nullptr || !ids->is_array() ||
      !statistics->is_array()) {
    return false;
  }
  for (const JsonValue& id : ids->array_items()) {
    out->ids.push_back(static_cast<int>(id.number_value()));
  }
  for (const JsonValue& s : statistics->array_items()) {
    out->statistics.push_back(s.number_value());
  }
  return true;
}

bool SameAnswer(const urank::RankingAnswer& a, const urank::RankingAnswer& b) {
  return a.ids == b.ids && a.statistics == b.statistics;
}

// The first response line of every (reader key, epoch) group; all later
// responses of the group must carry the same answer bytes.
struct Group {
  std::size_t record = 0;
  std::string line;
  int verdict = kUnchecked;
};

using GroupKey = std::pair<int, std::uint64_t>;  // (reader key, epoch)

// Reference stores replay the writer's batches per relation: epoch e of
// a relation is its load (epoch 1) plus its first e-1 batches.
struct ReferenceStore {
  std::shared_ptr<urank::MutableTupleRelation> tuple;
  std::shared_ptr<urank::MutableAttrRelation> attr;
  std::unique_ptr<urank::QueryEngine> engine;
  std::vector<const MutateBatch*> batches;
  std::size_t applied = 0;

  bool AdvanceTo(std::uint64_t epoch, std::string* error) {
    const std::size_t want = static_cast<std::size_t>(epoch - 1);
    if (want > batches.size()) {
      *error = "epoch beyond the batches sent";
      return false;
    }
    if (want < applied) {
      *error = "reference cannot rewind";
      return false;
    }
    for (; applied < want; ++applied) {
      const MutateBatch& batch = *batches[applied];
      const bool ok = tuple != nullptr ? tuple->Apply(batch.tuple_ops, error)
                                       : attr->Apply(batch.attr_ops, error);
      if (!ok) return false;
    }
    if (tuple != nullptr) {
      tuple->Publish();
    } else {
      attr->Publish();
    }
    return true;
  }
};

struct CheckCounts {
  long long groups = 0;
  long long groups_checked = 0;
  long long groups_mismatched = 0;
  long long responses_verified = 0;
  long long responses_mismatched = 0;
  long long responses_unchecked = 0;
};

// ---------------------------------------------------------------------
// Output.

void WriteRecords(const std::string& path, const std::vector<Record>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "phase\tkind\tconn\tkey\tseq\tdue_ns\tsent_ns\trecv_ns\tcode\t"
               "cache\tepoch\tserve_ms\tqueue_ms\tengine_ms\treused\t"
               "dp_cells\ttuples_scanned\tbytes\tverdict\n");
  for (const Record& r : records) {
    std::fprintf(f,
                 "%d\t%d\t%d\t%d\t%lld\t%lld\t%lld\t%lld\t%d\t%c\t%llu\t%.6f\t"
                 "%.6f\t%.6f\t%d\t%lld\t%lld\t%zu\t%d\n",
                 r.phase, r.kind, r.conn, r.key, r.seq,
                 static_cast<long long>(r.due_ns),
                 static_cast<long long>(r.sent_ns),
                 static_cast<long long>(r.recv_ns), r.code, r.cache,
                 static_cast<unsigned long long>(r.epoch), r.serve_ms,
                 r.queue_ms, r.engine_ms, r.reused ? 1 : 0, r.dp_cells,
                 r.tuples_scanned, r.bytes, r.verdict);
  }
  std::fclose(f);
}

JsonValue Num(double v) { return JsonValue::MakeNumber(v); }

// Counter and gauge values of a Prometheus text page (histogram series
// and comments skipped).
std::map<std::string, double> ParseMetricsPage(const std::string& line) {
  std::map<std::string, double> values;
  JsonValue doc;
  if (!urank::serve::ParseJson(line, &doc, nullptr)) return values;
  const JsonValue* body = doc.Find("body");
  if (body == nullptr || !body->is_string()) return values;
  std::istringstream in(body->string_value());
  std::string row;
  while (std::getline(in, row)) {
    if (row.empty() || row[0] == '#' || row.find('{') != std::string::npos) {
      continue;
    }
    const std::size_t space = row.find(' ');
    if (space == std::string::npos) continue;
    values[row.substr(0, space)] = std::atof(row.c_str() + space + 1);
  }
  return values;
}

int AllowedCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

struct Options {
  std::string urankd;
  std::string workload;
  std::string out;
  std::uint64_t seed = 1;
  double seconds = 0.0;
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (name == "urankd") {
      options->urankd = value;
    } else if (name == "workload") {
      options->workload = value;
    } else if (name == "out") {
      options->out = value;
    } else if (name == "seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "seconds") {
      options->seconds = std::atof(value.c_str());
    } else {
      return false;
    }
  }
  return !options->urankd.empty() && !options->workload.empty() &&
         !options->out.empty() && options->seconds > 0.0;
}

std::int64_t SecondsToNs(double s) {
  return static_cast<std::int64_t>(s * 1e9);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "e2e_client: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2e_client --urankd=PATH --workload=NAME --seed=N "
                 "--seconds=T --out=DIR\n");
    return 2;
  }
  Workload workload;
  if (!FindWorkload(options.workload, &workload)) {
    return Fail("unknown workload " + options.workload);
  }
  const bool churn = workload.writer_qps > 0.0;
  const int connections = workload.reader_conns + (churn ? 1 : 0);
  const int cores = AllowedCores();
  if (connections > cores) {
    // Refused: the client may not ask for more connections (or threads)
    // than there are hardware threads.
    return Fail("workload needs " + std::to_string(connections) +
                " connections but only " + std::to_string(cores) +
                " hardware threads are allowed");
  }

  // Phase lengths: churn's writer spans open + closed; the read-only
  // workloads end with the write probe.
  const double open_s = options.seconds * (churn ? 0.7 : 0.6);
  const double closed_s = options.seconds * (churn ? 0.3 : 0.2);
  const double probe_s = churn ? 0.0 : options.seconds * 0.2;
  const auto open_queries =
      static_cast<long long>(open_s * workload.open_qps);
  const auto mutates = static_cast<long long>(
      churn ? (open_s + closed_s) * workload.writer_qps : kMinMutates);
  if (open_queries < kMinOpenQueries || mutates < kMinMutates) {
    return Fail("--seconds too short: the open-loop phase needs >= " +
                std::to_string(kMinOpenQueries) + " queries and >= " +
                std::to_string(kMinMutates) + " mutates");
  }

  const std::vector<Relation> relations =
      MakeRelations(workload, options.seed);
  const std::vector<ReaderKey> keys = ReaderKeys(workload);
  MutationStream writer_stream(relations, options.seed);
  std::vector<MutateBatch> batches;  // every mutate batch, in send order

  EventLoop loop(Clock::now());
  std::map<GroupKey, Group> groups;
  loop.on_answer = [&](std::size_t record, const std::string& line) {
    const Record& rec = loop.records()[record];
    if (rec.code != 0 || rec.phase == kSetup) return;
    const GroupKey key{rec.key, rec.epoch};
    if (groups.find(key) == groups.end()) groups[key] = {record, line};
  };
  std::string metrics_line;
  loop.on_reply = [&](std::size_t record, const std::string& line) {
    if (loop.records()[record].kind == kMetrics) metrics_line = line;
  };

  std::vector<int> reader_conns;
  for (int c = 0; c < workload.reader_conns; ++c) reader_conns.push_back(c);

  // Setup rounds: loads on connection 0, then every reader key once over
  // the reader connections.
  std::vector<std::string> stream_setup;  // lines of the last round
  JsonValue setups = JsonValue::MakeArray();
  std::string error;
  std::unique_ptr<Daemon> daemon;
  for (int round = 0; round < kSetupRounds; ++round) {
    const std::int64_t spawn_ns = loop.Now();
    daemon = std::make_unique<Daemon>();
    if (!daemon->Start(options.urankd, &error) ||
        !loop.Connect(daemon->port(), connections, &error)) {
      return Fail(error);
    }
    const bool last = round + 1 == kSetupRounds;
    std::size_t cursor = 0;
    PhasePlan loads = ListPlan({0}, [&](int conn, Request* out) {
      if (cursor >= relations.size()) return false;
      out->record = loop.NewRecord(kSetup, kLoad, conn,
                                     static_cast<int>(cursor), kDueWhenSent);
      out->line = LoadLine(relations[cursor++],
                           loop.records()[out->record].seq);
      if (last) stream_setup.push_back(out->line);
      return true;
    });
    const std::int64_t load_start = loop.Now();
    if (!loop.Run(loads, &error)) return Fail(error);
    const std::int64_t load_end = loop.Now();

    // Every reader key once, last key first. Reversed, the grid reaches
    // quantile-rank phi 0.9 and phi 0.5 (the two costliest statistics)
    // back to back, so both workers compute them at once instead of one
    // waiting on the other's single-flight memo entry.
    cursor = 0;
    PhasePlan warm = ListPlan(reader_conns, [&](int conn, Request* out) {
      if (cursor >= keys.size()) return false;
      const int key = static_cast<int>(keys.size() - 1 - cursor++);
      out->record =
          loop.NewRecord(kSetup, kQuery, conn, key, kDueWhenSent);
      out->line = QueryLine(keys[static_cast<std::size_t>(key)],
                            loop.records()[out->record].seq);
      if (last) stream_setup.push_back(out->line);
      return true;
    });
    if (!loop.Run(warm, &error)) return Fail(error);
    const std::int64_t ready_ns = loop.Now();

    JsonValue setup = JsonValue::MakeObject();
    setup.Set("setup_s", Num(static_cast<double>(ready_ns - spawn_ns) * 1e-9));
    setup.Set("load_ms", Num(static_cast<double>(load_end - load_start) * 1e-6));
    setup.Set("warmup_ms", Num(static_cast<double>(ready_ns - load_end) * 1e-6));
    setups.Append(std::move(setup));
    if (!last) {
      loop.CloseAll();
      daemon->Stop();
    }
  }

  // metrics snapshots bracket each timed phase (the "M" source).
  const auto snapshot = [&](std::map<std::string, double>* out) {
    bool sent = false;
    PhasePlan plan = ListPlan({0}, [&](int conn, Request* request) {
      if (std::exchange(sent, true)) return false;
      request->record =
          loop.NewRecord(kSetup, kMetrics, conn, -1, kDueWhenSent);
      request->line = MetricsLine(loop.records()[request->record].seq);
      return true;
    });
    metrics_line.clear();
    if (!loop.Run(plan, &error)) return false;
    *out = ParseMetricsPage(metrics_line);
    return true;
  };
  std::map<std::string, double> m_before, m_open, m_closed;
  if (!snapshot(&m_before)) return Fail(error);

  // Open-loop phase: reader queries round-robin over the reader
  // connections at the fixed rate; churn's writer on its own connection.
  // Schedules are built relative to 0 and shifted to a start a little in
  // the future, so building them never makes the first requests late.
  const auto shift = [&](PhasePlan* plan, std::int64_t start) {
    for (Request& request : plan->schedule) {
      loop.records()[request.record].due_ns += start;
    }
  };
  const auto add_writer_schedule = [&](PhasePlan* plan, int phase,
                                       double seconds) {
    const double interval_ns = 1e9 / workload.writer_qps;
    const auto count = static_cast<long long>(seconds * workload.writer_qps);
    for (long long j = 0; j < count; ++j) {
      batches.push_back(writer_stream.Next());
      const MutateBatch& batch = batches.back();
      const std::size_t record = loop.NewRecord(
          phase, kMutate, workload.reader_conns,
          batch.relation == kTupleRelation ? 0 : 1,
          static_cast<std::int64_t>((static_cast<double>(j) + 0.5) *
                                    interval_ns));
      plan->schedule.push_back(
          {record, MutateLine(batch, loop.records()[record].seq)});
    }
  };
  KeyCycle open_keys(keys.size(), options.seed * 7919 + 1);
  PhasePlan open;
  {
    const double interval_ns = 1e9 / workload.open_qps;
    for (long long i = 0; i < open_queries; ++i) {
      const int key = open_keys.Next();
      const std::size_t record = loop.NewRecord(
          kOpen, kQuery, static_cast<int>(i % workload.reader_conns), key,
          static_cast<std::int64_t>(static_cast<double>(i) * interval_ns));
      open.schedule.push_back(
          {record, QueryLine(keys[static_cast<std::size_t>(key)],
                             loop.records()[record].seq)});
    }
    if (churn) {
      add_writer_schedule(&open, kOpen, open_s);
      std::stable_sort(open.schedule.begin(), open.schedule.end(),
                       [&](const Request& a, const Request& b) {
                         return loop.records()[a.record].due_ns <
                                loop.records()[b.record].due_ns;
                       });
    }
  }
  // The replay gets the open-loop lines with their relative due times.
  std::vector<std::pair<std::int64_t, std::string>> stream_open;
  for (const Request& request : open.schedule) {
    stream_open.emplace_back(loop.records()[request.record].due_ns,
                             request.line);
  }
  shift(&open, loop.Now() + 20'000'000);
  if (!loop.Run(open, &error)) return Fail(error);
  if (!snapshot(&m_open)) return Fail(error);

  // Closed-loop phase.
  KeyCycle closed_keys(keys.size(), options.seed * 7919 + 2);
  PhasePlan closed;
  closed.closed_conns = reader_conns;
  closed.next = [&](int conn, Request* out) {
    const int key = closed_keys.Next();
    out->record = loop.NewRecord(kClosed, kQuery, conn, key, kDueWhenSent);
    out->line = QueryLine(keys[static_cast<std::size_t>(key)],
                          loop.records()[out->record].seq);
    return true;
  };
  if (churn) add_writer_schedule(&closed, kClosed, closed_s);
  const std::int64_t closed_start = loop.Now();
  const std::int64_t closed_end = closed_start + SecondsToNs(closed_s);
  closed.closed_until_ns = closed_end;
  shift(&closed, closed_start);
  if (!loop.Run(closed, &error)) return Fail(error);
  if (!snapshot(&m_closed)) return Fail(error);

  // Peak RSS of the read traffic (and churn's writes), before the probe's
  // copy-on-write publishes.
  const long rss_kb = daemon->PeakRssKb();

  // Write probe (read-only workloads): kMinMutates batches against the
  // relation at a fixed rate on connection 0, after every query phase.
  if (!churn) {
    PhasePlan plan;
    const double interval_ns = probe_s * 1e9 / kMinMutates;
    for (long long j = 0; j < kMinMutates; ++j) {
      batches.push_back(writer_stream.Next());
      const std::size_t record = loop.NewRecord(
          kProbe, kMutate, 0, 0,
          static_cast<std::int64_t>(static_cast<double>(j) * interval_ns));
      plan.schedule.push_back(
          {record, MutateLine(batches.back(), loop.records()[record].seq)});
    }
    shift(&plan, loop.Now() + 10'000'000);
    if (!loop.Run(plan, &error)) return Fail(error);
  }

  loop.CloseAll();
  daemon->Stop();

  // ---- Answer checks ------------------------------------------------
  std::vector<Record>& records = loop.records();
  CheckCounts counts;
  std::string check_error;
  {
    // Reference engines from the same CSV bytes, over mutable stores as
    // urankd builds them: a store renumbers exclusion rules by first
    // appearance, which can move U-Topk probabilities by an ulp against an
    // eager Prepare of the CSV's own rule numbering. churn's stores replay
    // the writer's batches.
    std::vector<ReferenceStore> refs(relations.size());
    for (std::size_t r = 0; r < relations.size(); ++r) {
      std::istringstream in(relations[r].csv);
      std::string parse_error;
      ReferenceStore& ref = refs[r];
      if (relations[r].model == urank::serve::WireModel::kTuple) {
        urank::TupleRelation rel;
        if (!urank::ReadTupleRelation(in, &rel, &parse_error)) {
          return Fail("reference parse: " + parse_error);
        }
        ref.tuple = std::make_shared<urank::MutableTupleRelation>(rel);
        ref.engine = std::make_unique<urank::QueryEngine>(ref.tuple);
      } else {
        urank::AttrRelation rel;
        if (!urank::ReadAttrRelation(in, &rel, &parse_error)) {
          return Fail("reference parse: " + parse_error);
        }
        ref.attr = std::make_shared<urank::MutableAttrRelation>(rel);
        ref.engine = std::make_unique<urank::QueryEngine>(ref.attr);
      }
    }
    for (const MutateBatch& batch : batches) {
      refs[batch.relation == kTupleRelation ? 0 : 1].batches.push_back(&batch);
    }

    // Mutate acks must publish consecutive epochs: the j-th batch of a
    // relation lands as epoch 1 + j.
    std::vector<std::uint64_t> expected_epoch(relations.size(), 1);
    for (Record& rec : records) {
      if (rec.kind != kMutate || rec.code != 0) continue;
      rec.verdict =
          rec.epoch == ++expected_epoch[static_cast<std::size_t>(rec.key)]
              ? kVerified
              : kMismatch;
    }

    // Which groups to check: every group of the read-only workloads; a
    // seeded sample of churn's (relation, epoch, key) groups.
    std::vector<GroupKey> order;
    for (const auto& [key, group] : groups) order.push_back(key);
    counts.groups = static_cast<long long>(order.size());
    if (churn) {
      urank::Rng sample_rng(options.seed * 7919 + 3);
      sample_rng.Shuffle(order);
      constexpr std::size_t kChurnSample = 40;
      if (order.size() > kChurnSample) order.resize(kChurnSample);
    }
    // Epoch order per relation, so each reference store only moves
    // forward.
    std::sort(order.begin(), order.end(),
              [&](const GroupKey& a, const GroupKey& b) {
                const std::string& ra = keys[static_cast<std::size_t>(a.first)].relation;
                const std::string& rb = keys[static_cast<std::size_t>(b.first)].relation;
                if (ra != rb) return ra > rb;  // "tuples" before "attrs"
                return a.second != b.second ? a.second < b.second
                                            : a.first < b.first;
              });
    // The read-only workloads ask one static relation: answer every group
    // at once on the engine's worker pool.
    std::vector<urank::QueryResult> batch_expected;
    if (!churn) {
      std::vector<urank::QueryRequest> requests;
      for (const GroupKey& gk : order) {
        requests.push_back(keys[static_cast<std::size_t>(gk.first)].request);
        requests.back().cache_mode = urank::CacheMode::kDefault;
      }
      batch_expected = refs[0].engine->RunBatch(requests, cores);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const GroupKey& gk = order[i];
      Group& group = groups[gk];
      const ReaderKey& key = keys[static_cast<std::size_t>(gk.first)];
      ReferenceStore& ref = refs[key.relation == kTupleRelation ? 0 : 1];
      urank::RankingAnswer served;
      bool ok = ParseAnswer(group.line, &served);
      if (ok && churn) {
        std::string advance_error;
        ok = ref.AdvanceTo(gk.second, &advance_error);
        if (!ok) check_error = advance_error;
      }
      if (ok) {
        const urank::QueryResult expected =
            churn ? ref.engine->Run(key.request) : batch_expected[i];
        ok = expected.status.ok() && SameAnswer(served, expected.answer);
      }
      group.verdict = ok ? kVerified : kMismatch;
      ++counts.groups_checked;
      if (!ok) ++counts.groups_mismatched;
    }
    for (Record& rec : records) {
      if (rec.kind != kQuery || rec.code != 0 || rec.phase == kSetup) continue;
      const auto it = groups.find({rec.key, rec.epoch});
      if (it == groups.end() || it->second.verdict == kUnchecked) continue;
      const bool same =
          rec.answer_hash == records[it->second.record].answer_hash;
      rec.verdict =
          same && it->second.verdict == kVerified ? kVerified : kMismatch;
    }
    for (const Record& rec : records) {
      if (rec.phase == kSetup) continue;
      if (rec.verdict == kVerified) ++counts.responses_verified;
      if (rec.verdict == kMismatch) ++counts.responses_mismatched;
      if (rec.verdict == kUnchecked) ++counts.responses_unchecked;
    }
  }

  // ---- Output --------------------------------------------------------
  const std::string dir = options.out;
  WriteRecords(dir + "/records.tsv", records);
  {
    std::FILE* f = std::fopen((dir + "/stream.tsv").c_str(), "w");
    if (f == nullptr) return Fail("cannot write " + dir + "/stream.tsv");
    for (const std::string& line : stream_setup) {
      std::fprintf(f, "setup\t0\t%s\n", line.c_str());
    }
    for (const auto& [due_ns, line] : stream_open) {
      std::fprintf(f, "open\t%lld\t%s\n", static_cast<long long>(due_ns),
                   line.c_str());
    }
    std::fclose(f);
  }
  const auto delta = [](const std::map<std::string, double>& before,
                        const std::map<std::string, double>& after) {
    JsonValue obj = JsonValue::MakeObject();
    for (const auto& [name, value] : after) {
      const auto it = before.find(name);
      obj.Set(name, Num(value - (it == before.end() ? 0.0 : it->second)));
    }
    return obj;
  };
  JsonValue summary = JsonValue::MakeObject();
  summary.Set("open_qps", Num(workload.open_qps));
  summary.Set("writer_qps", Num(workload.writer_qps));
  summary.Set("connections", Num(connections));
  summary.Set("client_threads", Num(1));
  summary.Set("closed_start_ns", Num(static_cast<double>(closed_start)));
  summary.Set("closed_end_ns", Num(static_cast<double>(closed_end)));
  summary.Set("setups", std::move(setups));
  summary.Set("peak_rss_kb", Num(static_cast<double>(rss_kb)));
  // urankd runs with its defaults; these are they.
  const urank::serve::ServerOptions server_defaults;
  JsonValue server = JsonValue::MakeObject();
  server.Set("workers", Num(server_defaults.workers));
  server.Set("queue", Num(static_cast<double>(server_defaults.queue_capacity)));
  server.Set("cache_bytes",
             Num(static_cast<double>(server_defaults.cache_bytes)));
  summary.Set("urankd_options", std::move(server));
  summary.Set("simd_target", JsonValue::MakeString(loop.simd_target()));
  JsonValue m = JsonValue::MakeObject();
  m.Set("open", delta(m_before, m_open));
  m.Set("closed", delta(m_open, m_closed));
  summary.Set("metrics_delta", std::move(m));
  JsonValue check = JsonValue::MakeObject();
  check.Set("groups", Num(static_cast<double>(counts.groups)));
  check.Set("groups_checked", Num(static_cast<double>(counts.groups_checked)));
  check.Set("groups_mismatched",
            Num(static_cast<double>(counts.groups_mismatched)));
  check.Set("responses_verified",
            Num(static_cast<double>(counts.responses_verified)));
  check.Set("responses_mismatched",
            Num(static_cast<double>(counts.responses_mismatched)));
  check.Set("responses_unchecked",
            Num(static_cast<double>(counts.responses_unchecked)));
  check.Set("error", JsonValue::MakeString(check_error));
  summary.Set("check", std::move(check));
  JsonValue labels = JsonValue::MakeArray();
  for (const ReaderKey& key : keys) labels.Append(JsonValue::MakeString(key.label));
  summary.Set("keys", std::move(labels));
  std::ofstream(dir + "/summary.json") << urank::serve::WriteJson(summary)
                                       << "\n";
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }

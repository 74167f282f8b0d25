#include "nucleus/serve/router/router.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <sstream>
#include <string_view>
#include <utility>

#include "nucleus/io/hierarchy_export.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/store/manifest.h"
#include "nucleus/util/socket.h"

namespace nucleus {
namespace {

/// Deadline for one backend dial, and for one health probe's dial +
/// `stats` round trip.
constexpr std::chrono::milliseconds kBackendTimeout{2000};

bool IsErrorLine(const std::string& response) {
  return response.rfind("{\"error\"", 0) == 0;
}

/// Replaces the `"line": N` value of a backend error object with the
/// front session's line number. The pattern `, "line": ` cannot occur
/// inside the escaped message (a literal quote is \" there), so the
/// last occurrence is always the real key.
std::string RewriteErrorLineNumber(const std::string& response,
                                   std::int64_t line_no) {
  const std::string key = ", \"line\": ";
  const std::size_t at = response.rfind(key);
  if (at == std::string::npos) return response;
  std::size_t digits = at + key.size();
  while (digits < response.size() &&
         (std::isdigit(static_cast<unsigned char>(response[digits])) ||
          response[digits] == '-')) {
    ++digits;
  }
  return response.substr(0, at) + key + std::to_string(line_no) +
         response.substr(digits);
}

/// Reads the escaped payload of a JSON string WE (or a backend we run)
/// formatted — not a general parser — from `i`, just past its opening
/// quote, up to its closing quote; returns the index past that quote.
std::size_t ReadEscapedString(const std::string& json, std::size_t i,
                              std::string* out) {
  const std::size_t start = i;
  while (i < json.size() && json[i] != '"') {
    i += json[i] == '\\' && i + 1 < json.size() ? 2 : 1;
  }
  out->assign(json, start, i - start);
  return i + 1;
}

/// The escaped message of a backend error object ("backend error" when
/// it has none).
std::string EscapedError(const std::string& response) {
  const std::string key = "\"error\": \"";
  const std::size_t at = response.find(key);
  std::string escaped = "backend error";
  if (at != std::string::npos) {
    ReadEscapedString(response, at + key.size(), &escaped);
  }
  return escaped;
}

/// Reverses JsonEscape for the path strings a `detach` response names.
std::string JsonUnescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      default: out.push_back(s[i]); break;  // \" \\ and anything else
    }
  }
  return out;
}

/// The `"persisted": ["p1", "p2", ...]` array of a detach response,
/// unescaped; empty when the field is absent (clean tenant).
std::vector<std::string> ParsePersistedArray(const std::string& response) {
  std::vector<std::string> paths;
  const std::string key = "\"persisted\": [";
  std::size_t i = response.find(key);
  if (i == std::string::npos) return paths;
  i += key.size();
  while (i < response.size() && response[i] != ']') {
    if (response[i++] != '"') continue;
    std::string escaped;
    i = ReadEscapedString(response, i, &escaped);
    paths.push_back(JsonUnescape(escaped));
  }
  return paths;
}

}  // namespace

std::uint64_t RouterTenantKey(const std::string& tenant) {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  for (const char c : tenant) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return hash;
}

std::int32_t JumpConsistentHash(std::uint64_t key,
                                std::int32_t num_buckets) {
  if (num_buckets <= 0) return 0;
  std::int64_t bucket = -1;
  std::int64_t next = 0;
  while (next < num_buckets) {
    bucket = next;
    key = key * 2862933555777941757ULL + 1;
    next = static_cast<std::int64_t>(
        static_cast<double>(bucket + 1) *
        (static_cast<double>(1LL << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<std::int32_t>(bucket);
}

/// One drained batch of a front session: every pending line's response
/// slot in input order, and the routed lines among them grouped by the
/// pooled connection they are pinned to. The front worker writes local
/// answers straight into `responses` and queues routed lines between
/// forwards; during Forward each routed slot is written exactly once, by
/// whoever removes its FIFO entry (the connection's reader, or a failure
/// path), and Forward returns after the countdown reaches zero under
/// `mutex`, which orders every slot write before the worker reads it.
struct TenantRouter::Batch {
  struct Line {
    std::size_t slot;      // its index in `responses`
    std::int64_t line_no;  // front session line number
    std::size_t end;       // end of its bytes (line + '\n') in the wire
  };
  /// One pooled connection's lines in input order, and their bytes: that
  /// connection's FIFO and wire order.
  struct Group {
    std::vector<Line> lines;
    std::string wire;
  };

  void Answer(std::string text) { responses.push_back(std::move(text)); }

  void Queue(std::size_t backend, std::size_t conn,
             const std::string& raw_line, std::int64_t line_no) {
    if (groups.size() <= backend) groups.resize(backend + 1);
    if (groups[backend].size() <= conn) groups[backend].resize(conn + 1);
    Group& group = groups[backend][conn];
    group.wire += raw_line;
    group.wire.push_back('\n');
    group.lines.push_back({responses.size(), line_no, group.wire.size()});
    responses.emplace_back();
    ++routed;
  }

  /// Fills routed slot `slot`; the last completion wakes the waiter.
  void Complete(std::size_t slot, std::string text) {
    responses[slot] = std::move(text);
    MutexLock lock(mutex);  // a leaf lock: nothing is acquired under it
    // Notify under the lock: the waiter may destroy the batch as soon as
    // it can reacquire the mutex.
    if (--outstanding == 0) cv.notify_one();
  }

  void Clear() {
    responses.clear();
    routed = 0;
    for (std::vector<Group>& row : groups) {
      for (Group& group : row) {
        group.lines.clear();
        group.wire.clear();
      }
    }
  }

  std::vector<std::string> responses;
  /// groups[backend][conn], kept across drains to reuse their buffers.
  std::vector<std::vector<Group>> groups;
  std::size_t routed = 0;
  Mutex mutex;
  std::condition_variable cv;
  std::size_t outstanding GUARDED_BY(mutex) = 0;
};

/// One pooled connection to one backend. Wire order must equal FIFO
/// order — write_mutex is held across the (push, send) pair to pin that
/// invariant; the reader thread pops the FIFO as response lines arrive.
struct TenantRouter::BackendConn {
  /// A forwarded, unanswered line: its batch slot and front line number.
  struct InFlight {
    Batch* batch;
    std::size_t slot;
    std::int64_t line_no;
  };
  /// Serializes forwarders; ACQUIRED_BEFORE mutex.
  Mutex write_mutex;
  Mutex mutex ACQUIRED_AFTER(write_mutex);
  int fd GUARDED_BY(mutex) = -1;
  bool alive GUARDED_BY(mutex) = false;
  std::deque<InFlight> fifo GUARDED_BY(mutex);
  /// Managed under write_mutex (EnsureConnected joins before re-dialing).
  std::thread reader;
};

struct TenantRouter::Backend {
  std::string address;
  std::string host;
  int port = 0;
  std::atomic<bool> up{false};
  std::vector<std::unique_ptr<BackendConn>> conns;
};

TenantRouter::TenantRouter(TenantRouterOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::Global()),
      m_forwarded_(
          metrics_->GetCounter("nucleus_router_lines_forwarded_total")),
      m_batches_(
          metrics_->GetCounter("nucleus_router_batches_forwarded_total")),
      m_rejected_(
          metrics_->GetCounter("nucleus_router_lines_rejected_total")),
      m_failures_(
          metrics_->GetCounter("nucleus_router_backend_failures_total")),
      m_migrations_(metrics_->GetCounter("nucleus_router_migrations_total")),
      m_backends_up_(metrics_->GetGauge("nucleus_router_backends_up")) {}

TenantRouter::~TenantRouter() { Stop(); }

Status TenantRouter::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::Internal("TenantRouter already started");
  }
  if (options_.backends.empty()) {
    return Status::InvalidArgument("route requires at least one backend");
  }
  const int pool =
      options_.pool_size < 1 ? 1 : options_.pool_size;
  // Validate every address into a local list first: a mid-list error
  // must leave backends_ empty, so a retried Start() cannot append
  // duplicates onto a partially populated table.
  std::vector<std::unique_ptr<Backend>> validated;
  for (const std::string& address : options_.backends) {
    std::string host;
    int port = 0;
    if (Status s = ParseHostPort(address, &host, &port); !s.ok()) {
      return Status::InvalidArgument("backend " + s.message());
    }
    auto backend = std::make_unique<Backend>();
    backend->address = address;
    backend->host = host;
    backend->port = port;
    for (int i = 0; i < pool; ++i) {
      backend->conns.push_back(std::make_unique<BackendConn>());
    }
    validated.push_back(std::move(backend));
  }
  backends_ = std::move(validated);
  stopping_.store(false, std::memory_order_release);
  // First health pass: unreachable backends start down (they re-admit
  // when a later probe succeeds) instead of failing startup.
  CheckBackendsNow();
  if (options_.health_interval_ms > 0) {
    if (::pipe(prober_wake_) != 0) {
      backends_.clear();
      return Status::Internal(std::string("router wake pipe: ") +
                              std::strerror(errno));
    }
    prober_ = std::thread(&TenantRouter::ProberLoop, this);
  }
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

void TenantRouter::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (prober_.joinable()) {
    const char byte = 'x';
    (void)!::write(prober_wake_[1], &byte, 1);
    prober_.join();
  }
  if (prober_wake_[0] >= 0) ::close(prober_wake_[0]);
  if (prober_wake_[1] >= 0) ::close(prober_wake_[1]);
  prober_wake_[0] = prober_wake_[1] = -1;
  for (auto& backend : backends_) {
    for (auto& conn : backend->conns) {
      {
        MutexLock lock(conn->mutex);
        // Wakes the reader with EOF; it fails outstanding slots and
        // exits. The fd is closed after the join.
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      }
      if (conn->reader.joinable()) conn->reader.join();
      MutexLock lock(conn->mutex);
      if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
      }
      conn->alive = false;
    }
  }
  backends_.clear();
  started_.store(false, std::memory_order_release);
}

const std::string& TenantRouter::backend_address(int index) const {
  return backends_[static_cast<std::size_t>(index)]->address;
}

bool TenantRouter::backend_up(int index) const {
  return backends_[static_cast<std::size_t>(index)]->up.load(
      std::memory_order_acquire);
}

int TenantRouter::BackendIndexFor(const std::string& tenant) const {
  {
    ReaderLock lock(route_mutex_);
    const auto it = overrides_.find(tenant);
    if (it != overrides_.end()) return it->second;
  }
  return JumpConsistentHash(RouterTenantKey(tenant), num_backends());
}

int TenantRouter::ConnIndexFor(const std::string& tenant) const {
  const int pool = static_cast<int>(backends_[0]->conns.size());
  if (pool <= 1) return 0;
  // The high half of the key, so the conn pin is independent of the
  // backend pin (which consumes the key through the jump hash).
  return static_cast<int>((RouterTenantKey(tenant) >> 32) %
                          static_cast<std::uint64_t>(pool));
}

Status TenantRouter::EnsureConnected(Backend& backend, BackendConn& conn) {
  {
    MutexLock lock(conn.mutex);
    if (conn.alive) return Status::Ok();
  }
  // The previous session (if any) is fully dead: its reader cleared
  // `alive` on the way out. Join it, recycle the fd, dial fresh.
  if (conn.reader.joinable()) conn.reader.join();
  {
    MutexLock lock(conn.mutex);
    if (conn.fd >= 0) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  const StatusOr<int> fd = DialTcp(backend.host, backend.port,
                                   SocketClock::now() + kBackendTimeout);
  if (!fd.ok()) {
    return Status::Internal("backend " + backend.address +
                            " unreachable: request rejected");
  }
  {
    MutexLock lock(conn.mutex);
    conn.fd = *fd;
    conn.alive = true;
  }
  conn.reader =
      std::thread(&TenantRouter::ReaderLoop, this, &backend, &conn, *fd);
  return Status::Ok();
}

void TenantRouter::ReaderLoop(Backend* backend, BackendConn* conn, int fd) {
  std::string buffered;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffered.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffered.find('\n', start);
         nl != std::string::npos; nl = buffered.find('\n', start)) {
      std::string line = buffered.substr(start, nl - start);
      start = nl + 1;
      BackendConn::InFlight entry{};
      {
        MutexLock lock(conn->mutex);
        if (conn->fifo.empty()) continue;  // stray line; nothing waits
        entry = conn->fifo.front();
        conn->fifo.pop_front();
      }
      if (IsErrorLine(line)) {
        // The backend numbered the error in ITS session; renumber it
        // into the front session the client actually sees.
        line = RewriteErrorLineNumber(line, entry.line_no);
      }
      entry.batch->Complete(entry.slot, std::move(line));
    }
    buffered.erase(0, start);
  }
  // EOF or hard error: the session is gone. Fail whatever was in
  // flight, flag the connection for lazy reconnect, and treat the tear
  // as a down signal — the prober re-admits when the backend answers
  // again.
  {
    MutexLock lock(conn->mutex);
    conn->alive = false;
    const std::string reason = JsonEscape(
        "backend " + backend->address + " connection lost before responding");
    for (const BackendConn::InFlight& entry : conn->fifo) {
      entry.batch->Complete(entry.slot, ErrorLine(reason, entry.line_no));
    }
    conn->fifo.clear();
    // Half-close to send our FIN now: a draining backend lingers until
    // it sees it, and nothing will be written on this fd again before
    // EnsureConnected replaces it.
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_WR);
  }
  if (!stopping_.load(std::memory_order_acquire)) {
    backend->up.store(false, std::memory_order_release);
    backend_failures_.fetch_add(1, std::memory_order_relaxed);
    m_failures_->Increment();
  }
}

void TenantRouter::Forward(Batch& batch) {
  if (batch.routed == 0) return;
  {
    MutexLock lock(batch.mutex);
    batch.outstanding = batch.routed;
  }
  bool sent = false;
  for (std::size_t b = 0; b < batch.groups.size(); ++b) {
    for (std::size_t c = 0; c < batch.groups[b].size(); ++c) {
      if (!batch.groups[b][c].lines.empty()) sent |= SendGroup(batch, b, c);
    }
  }
  if (sent) m_batches_->Increment();
  MutexLock lock(batch.mutex);
  while (batch.outstanding > 0) batch.cv.wait(lock.native());
}

bool TenantRouter::SendGroup(Batch& batch, std::size_t backend_index,
                             std::size_t conn_index) {
  Backend& backend = *backends_[backend_index];
  BackendConn& conn = *backend.conns[conn_index];
  const Batch::Group& group = batch.groups[backend_index][conn_index];
  const std::vector<Batch::Line>& lines = group.lines;
  // Rejects lines[from, ...) at admission, one structured error each.
  const auto reject = [&](std::size_t from, const std::string& escaped) {
    for (std::size_t i = from; i < lines.size(); ++i) {
      batch.Complete(lines[i].slot, ErrorLine(escaped, lines[i].line_no));
    }
    const auto count = static_cast<std::int64_t>(lines.size() - from);
    lines_rejected_.fetch_add(count, std::memory_order_relaxed);
    m_rejected_->Increment(count);
  };
  if (!backend.up.load(std::memory_order_acquire)) {
    reject(0, "backend " + backend.address +
                  " is down (health check failed): request rejected");
    return false;
  }
  MutexLock wlock(conn.write_mutex);
  if (Status s = EnsureConnected(backend, conn); !s.ok()) {
    reject(0, JsonEscape(s.message()));
    return false;
  }
  std::size_t admitted = 0;
  int fd = -1;
  {
    MutexLock lock(conn.mutex);
    if (!conn.alive) {
      reject(0, "backend " + backend.address +
                    " connection lost: request rejected");
      return false;
    }
    // The same admission discipline the TCP tier applies to its queues:
    // bound the buffer, reject the lines past it with a structured error.
    const std::int64_t room =
        options_.max_inflight - static_cast<std::int64_t>(conn.fifo.size());
    admitted = static_cast<std::size_t>(std::clamp<std::int64_t>(
        room, 0, static_cast<std::int64_t>(lines.size())));
    for (std::size_t i = 0; i < admitted; ++i) {
      conn.fifo.push_back({&batch, lines[i].slot, lines[i].line_no});
    }
    fd = conn.fd;
  }
  bool sent = false;
  if (admitted > 0) {
    // Send outside conn.mutex (the reader must keep popping while we
    // block on a full socket) but inside write_mutex (wire order == FIFO
    // order).
    sent = SendAll(fd, std::string_view(group.wire)
                           .substr(0, lines[admitted - 1].end));
    if (sent) {
      lines_forwarded_.fetch_add(static_cast<std::int64_t>(admitted),
                                 std::memory_order_relaxed);
      m_forwarded_->Increment(static_cast<std::int64_t>(admitted));
    } else {
      MutexLock lock(conn.mutex);
      // write_mutex is still held, so this group's entries that neither
      // the reader answered nor its exit path failed are the FIFO's tail.
      while (!conn.fifo.empty() && conn.fifo.back().batch == &batch) {
        const BackendConn::InFlight entry = conn.fifo.back();
        conn.fifo.pop_back();
        batch.Complete(entry.slot,
                       ErrorLine("backend " + backend.address +
                                     " send failed: request not delivered",
                                 entry.line_no));
      }
    }
  }
  if (admitted < lines.size()) {
    reject(admitted, "backend " + backend.address + " in-flight limit (" +
                         std::to_string(options_.max_inflight) +
                         " lines) reached: request rejected");
  }
  return sent;
}

std::string TenantRouter::ForwardOne(int backend_index, int conn_index,
                                     const std::string& raw_line,
                                     std::int64_t line_no) {
  Batch batch;
  batch.Queue(backend_index, conn_index, raw_line, line_no);
  Forward(batch);
  return std::move(batch.responses[0]);
}

bool TenantRouter::ProbeBackend(Backend& backend) {
  const SocketClock::time_point deadline =
      SocketClock::now() + kBackendTimeout;
  const StatusOr<int> fd = DialTcp(backend.host, backend.port, deadline);
  if (!fd.ok()) return false;
  // Any one-line answer counts: the probe is a liveness check of the
  // serving loop, not a health grade of the registry behind it.
  std::string carry;
  std::string line;
  const bool healthy =
      SendAll(*fd, "stats\n") &&
      ReadLineWithDeadline(*fd, deadline, carry, &line) == LineRead::kLine &&
      !line.empty();
  ::shutdown(*fd, SHUT_RDWR);
  ::close(*fd);
  return healthy;
}

void TenantRouter::TearBackendConns(Backend& backend) {
  for (auto& conn : backend.conns) {
    MutexLock lock(conn->mutex);
    // Wakes the reader out of recv(); its exit path fails every
    // in-flight line, so no front worker is left blocked in a drain on
    // a backend that is still connected but no longer answering.
    if (conn->alive && conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void TenantRouter::CheckBackendsNow() {
  int up_count = 0;
  for (auto& backend : backends_) {
    const bool healthy = ProbeBackend(*backend);
    backend->up.store(healthy, std::memory_order_release);
    if (healthy) {
      ++up_count;
    } else {
      // A down backend may still hold forwarded-but-unanswered lines on
      // live connections (e.g. it wedged without closing). Tear them on
      // EVERY failed probe, not just the down transition: a forward can
      // race the probe and re-dial a half-dead backend, and the next
      // pass must fail those slots too.
      TearBackendConns(*backend);
    }
  }
  m_backends_up_->Set(static_cast<double>(up_count));
}

void TenantRouter::ProberLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = prober_wake_[0];
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int r = ::poll(&pfd, 1, options_.health_interval_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r > 0) return;  // Stop() wrote the wake byte
    CheckBackendsNow();
  }
}

std::string TenantRouter::RouterStatsJson() const {
  int up_count = 0;
  std::int64_t inflight = 0;
  for (const auto& backend : backends_) {
    if (backend->up.load(std::memory_order_acquire)) ++up_count;
    for (const auto& conn : backend->conns) {
      MutexLock lock(conn->mutex);
      inflight += static_cast<std::int64_t>(conn->fifo.size());
    }
  }
  std::string json;
  json += "\"backends\": " + std::to_string(backends_.size());
  json += ", \"backends_up\": " + std::to_string(up_count);
  json += ", \"pool_size\": " +
          std::to_string(backends_.empty()
                             ? options_.pool_size
                             : static_cast<int>(backends_[0]->conns.size()));
  json += ", \"max_inflight\": " + std::to_string(options_.max_inflight);
  json += ", \"inflight\": " + std::to_string(inflight);
  json += ", \"lines_forwarded\": " +
          std::to_string(lines_forwarded_.load(std::memory_order_relaxed));
  json += ", \"lines_rejected\": " +
          std::to_string(lines_rejected_.load(std::memory_order_relaxed));
  json += ", \"backend_failures\": " +
          std::to_string(backend_failures_.load(std::memory_order_relaxed));
  json += ", \"migrations\": " +
          std::to_string(migrations_.load(std::memory_order_relaxed));
  return json;
}

std::string TenantRouter::FanOutAdmin(const std::string& raw_line,
                                      const std::string& query_name,
                                      std::int64_t line_no) {
  // Fan the verb to conn 0 of every up backend as one batch; responses
  // come back in backend order.
  Batch batch;
  std::vector<bool> up(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    up[i] = backends_[i]->up.load(std::memory_order_acquire);
    if (up[i]) batch.Queue(i, 0, raw_line, line_no);
  }
  Forward(batch);
  std::string json = "{\"query\": \"" + query_name + "\"";
  if (query_name == "stats") {
    json += ", \"router\": {" + RouterStatsJson() + "}";
    if (server_stats_json_) {
      json += ", \"server\": " + server_stats_json_();
    }
  } else if (query_name == "metrics") {
    // The router's own registry, in the single-process metrics schema.
    if (raw_line == "metrics text") {
      json += ", \"format\": \"text\", \"exposition\": \"" +
              JsonEscape(metrics_->ToPrometheusText()) + "\"";
    } else {
      json += ", " + metrics_->ToJsonBody();
    }
  }
  json += ", \"backends\": [";
  std::size_t next = 0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{\"backend\": \"" + JsonEscape(backends_[i]->address) + "\"";
    json += ", \"up\": ";
    json += up[i] ? "true" : "false";
    if (up[i]) {
      // The backend's whole response object, verbatim.
      json += ", \"response\": " + batch.responses[next++];
    }
    json += "}";
  }
  json += "]}";
  return json;
}

std::string TenantRouter::Migrate(const std::string& tenant,
                                  const std::string& target_address,
                                  const std::vector<std::string>& spec_args,
                                  std::int64_t line_no) {
  const auto found = std::find_if(
      backends_.begin(), backends_.end(),
      [&](const auto& backend) { return backend->address == target_address; });
  if (found == backends_.end()) {
    return ErrorLine(
        JsonEscape("migrate: unknown backend '" + target_address +
                   "' (expected one of the configured backend addresses)"),
        line_no);
  }
  const int target = static_cast<int>(found - backends_.begin());
  const int source = BackendIndexFor(tenant);
  if (source == target) {
    return ErrorLine(JsonEscape("migrate: tenant '" + tenant +
                                "' is already routed to " + target_address),
                     line_no);
  }
  Backend& src = *backends_[static_cast<std::size_t>(source)];
  Backend& dst = *backends_[static_cast<std::size_t>(target)];
  if (!dst.up.load(std::memory_order_acquire)) {
    return ErrorLine(JsonEscape("migrate: target backend " + dst.address +
                                " is down"),
                     line_no);
  }

  // Resolve the spec BEFORE detaching, so a bad spec can never strand a
  // detached tenant.
  std::vector<std::string> args = spec_args;
  if (args.empty()) {
    ReaderLock lock(route_mutex_);
    const auto it = specs_.find(tenant);
    if (it != specs_.end()) args = it->second;
  }
  if (args.empty()) {
    return ErrorLine(
        JsonEscape("migrate: no recorded attach spec for tenant '" + tenant +
                   "' — attach it through the router first, or pass the "
                   "spec inline: migrate <tenant> <backend> snapshot=<path> "
                   "[deltas=<p1,p2>] [graph=<path>]"),
        line_no);
  }
  TenantSpec spec;
  spec.name = tenant;
  if (Status s = ParseTenantSpecArgs(args, "", &spec); !s.ok()) {
    return ErrorLine(JsonEscape("migrate: invalid spec: " + s.message()),
                     line_no);
  }

  const int conn_index = ConnIndexFor(tenant);
  // 1. Detach-persist on the source, through the tenant's pinned conn so
  // it lands behind every in-flight line of this tenant. A dirty live
  // tenant writes its pending delta batches and latest graph to disk and
  // names them in the response.
  const std::string detach_resp =
      ForwardOne(source, conn_index, "detach " + tenant, line_no);
  if (IsErrorLine(detach_resp)) {
    return ErrorLine(JsonEscape("migrate " + tenant + ": detach on " +
                                src.address + " failed: ") +
                         EscapedError(detach_resp),
                     line_no);
  }
  const std::vector<std::string> persisted =
      ParsePersistedArray(detach_resp);

  // 2. Extend the spec with the persisted chain: pending deltas continue
  // the delta list, and the persisted graph replaces the original so the
  // target re-resolves to exactly the detached state.
  for (const std::string& path : persisted) {
    if (path.ends_with(".nucdelta")) {
      spec.delta_paths.push_back(path);
    } else {
      spec.graph_path = path;
    }
  }
  std::vector<std::string> new_args = {"snapshot=" + spec.snapshot_path};
  if (!spec.delta_paths.empty()) {
    std::string deltas = "deltas=";
    for (std::size_t i = 0; i < spec.delta_paths.size(); ++i) {
      if (i > 0) deltas += ",";
      deltas += spec.delta_paths[i];
    }
    new_args.push_back(deltas);
  }
  if (!spec.graph_path.empty()) new_args.push_back("graph=" + spec.graph_path);
  std::string attach_line = "attach " + tenant;
  for (const std::string& arg : new_args) attach_line += " " + arg;

  // 3. Attach on the target through the tenant's pinned conn there.
  const std::string attach_resp =
      ForwardOne(target, conn_index, attach_line, line_no);
  if (IsErrorLine(attach_resp)) {
    // Best-effort rollback: re-attach the persisted state on the source
    // so the tenant is not stranded detached.
    const bool rolled_back = !IsErrorLine(
        ForwardOne(source, conn_index, attach_line, line_no));
    return ErrorLine(
        JsonEscape("migrate " + tenant + ": attach on " + dst.address +
                   " failed (" +
                   (rolled_back
                        ? "tenant re-attached on " + src.address
                        : "tenant is now detached; re-attach manually") +
                   "): ") +
            EscapedError(attach_resp),
        line_no);
  }

  // 4. Flip the route and remember the extended spec for the next move.
  {
    WriterLock lock(route_mutex_);
    overrides_[tenant] = target;
    specs_[tenant] = std::move(new_args);
  }
  migrations_.fetch_add(1, std::memory_order_relaxed);
  m_migrations_->Increment();
  return "{\"query\": \"migrate\", \"tenant\": \"" + JsonEscape(tenant) +
         "\", \"from\": \"" + JsonEscape(src.address) + "\", \"to\": \"" +
         JsonEscape(dst.address) +
         "\", \"persisted\": " + std::to_string(persisted.size()) +
         ", \"ok\": true}";
}

/// The front-connection protocol driver: parses each line, answers admin
/// verbs (merging backend responses where the verb fans out), forwards
/// routed lines raw to the tenant's pinned backend connection, and emits
/// responses strictly in input order.
class RouterHandler : public ConnectionHandler {
 public:
  RouterHandler(TenantRouter* router, std::ostream& out)
      : ConnectionHandler(out, kRouterBatchBound), router_(router) {}

 private:
  void Reject(const Status& status) override {
    Emit(ErrorLine(JsonEscape(status.message()), line_no()));
  }

  std::size_t pending() const override { return batch_.responses.size(); }

  void Drain() override {
    router_->Forward(batch_);
    for (const std::string& response : batch_.responses) {
      out_ << response << '\n';
    }
    batch_.Clear();
  }

  void Emit(std::string text) { batch_.Answer(std::move(text)); }

  /// Answers `line` if its first token is `migrate`.
  bool HandleMigrate(const std::string& line) {
    std::istringstream tokens(line);
    std::string head;
    std::string tenant;
    std::string target;
    tokens >> head >> tenant >> target;
    if (head != "migrate") return false;
    std::vector<std::string> spec_args;
    for (std::string arg; tokens >> arg;) spec_args.push_back(arg);
    if (tenant.empty() || target.empty()) {
      Emit(ErrorLine(
          JsonEscape("migrate expects: migrate <tenant> <host:port> "
                     "[snapshot=<path> [deltas=<p1,p2>] [graph=<path>]]"),
          line_no()));
      return true;
    }
    // A sequencing point like every admin verb: everything already
    // queued is answered before the move starts.
    Drain();
    Emit(router_->Migrate(tenant, target, spec_args, line_no()));
    return true;
  }

  void Handle(const std::string& line) override {
    StatusOr<RoutedServeLine> parsed = ParseRoutedServeLine(line);
    if (!parsed.ok()) {
      // `migrate` is a router-only verb, so the shared grammar rejects it:
      // the backends never see it.
      if (!HandleMigrate(line)) {
        Emit(ErrorLine(JsonEscape(parsed.status().message()), line_no()));
      }
      return;
    }
    switch (parsed->admin) {
      case RoutedServeLine::Admin::kNone:
        break;
      case RoutedServeLine::Admin::kShutdown:
        // Drains the ROUTER's front; the backends keep serving (they
        // have their own shutdown verbs).
        RequestShutdown();
        Emit("{\"query\": \"shutdown\", \"ok\": true}");
        return;
      case RoutedServeLine::Admin::kStats:
      case RoutedServeLine::Admin::kTenants:
      case RoutedServeLine::Admin::kMetrics: {
        Drain();
        const std::string verb =
            parsed->admin == RoutedServeLine::Admin::kStats     ? "stats"
            : parsed->admin == RoutedServeLine::Admin::kTenants ? "tenants"
                                                                : "metrics";
        const bool text = !parsed->admin_args.empty() &&
                          parsed->admin_args[0] == "text";
        Emit(router_->FanOutAdmin(text ? "metrics text" : verb, verb,
                                  line_no()));
        return;
      }
      case RoutedServeLine::Admin::kAttach:
      case RoutedServeLine::Admin::kDetach: {
        // The shared parser defers attach validation to the backend,
        // but the tenant name IS the routing key — a bare `attach` has
        // no route, so answer with the backend's own arity error.
        if (parsed->admin_args.empty()) {
          Emit(ErrorLine(
              JsonEscape("'attach' expects: attach <name> snapshot=<path> "
                         "[deltas=<p1,p2>] [graph=<path>]"),
              line_no()));
          return;
        }
        // Synchronous: the route table changes only once the home
        // backend confirmed the verb.
        Drain();
        const std::string& tenant = parsed->admin_args[0];
        std::string response = router_->ForwardOne(
            router_->BackendIndexFor(tenant), router_->ConnIndexFor(tenant),
            line, line_no());
        if (!IsErrorLine(response)) {
          WriterLock lock(router_->route_mutex_);
          if (parsed->admin == RoutedServeLine::Admin::kAttach) {
            router_->specs_[tenant].assign(parsed->admin_args.begin() + 1,
                                           parsed->admin_args.end());
          } else {
            // Clean slate: the tenant's next attach goes to its hash home.
            router_->specs_.erase(tenant);
            router_->overrides_.erase(tenant);
          }
        }
        Emit(std::move(response));
        return;
      }
    }
    if (parsed->tenant.empty()) {
      Emit(ErrorLine(
          JsonEscape("the router serves routed lines (<tenant>:<verb> ...) "
                     "and admin verbs (attach | detach | tenants | stats | "
                     "metrics | migrate | shutdown); unrouted requests "
                     "need a direct `serve` session"),
          line_no()));
      return;
    }
    // A routed request: forward the RAW line — the backend's response
    // bytes are the client's response bytes.
    batch_.Queue(router_->BackendIndexFor(parsed->tenant),
                 router_->ConnIndexFor(parsed->tenant), line, line_no());
  }

  TenantRouter* const router_;
  /// The lines since the last drain; Drain forwards and emits them.
  TenantRouter::Batch batch_;
};

ConnectionHandlerFactory TenantRouter::HandlerFactory() {
  return [this](std::ostream& out) -> std::unique_ptr<ConnectionHandler> {
    return std::make_unique<RouterHandler>(this, out);
  };
}

}  // namespace nucleus

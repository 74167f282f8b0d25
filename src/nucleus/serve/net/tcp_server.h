// TcpServer: the network front door of the serving stack.
//
// Everything below the socket already exists — the routed
// one-JSON-object-per-line grammar (serve/request_loop.h), the
// multi-tenant registry, live updates. What this module adds is
// CONNECTION LIFECYCLE, in three pieces (the acceptor / limited-queue /
// stat-counter layering production stores use):
//
//   * an acceptor: one poll()-based IO thread owns the loopback listener
//     and every connection's read side. Connections past
//     `max_connections` are answered with one error object and closed.
//   * bounded admission: each connection owns a queue of at most
//     `queue_high_water` admitted lines. Lines arriving past the high
//     water mark are REJECTED with a structured error carrying their
//     line number — the queue never grows without bound, and rejected
//     ranges coalesce to O(1) memory, so a firehose client costs the
//     server nothing but a counter. Oversized lines (no newline within
//     `max_line_bytes`) are likewise rejected without buffering them.
//   * graceful drain: RequestDrain() (async-signal-safe, also triggered
//     by a client's `shutdown` verb) stops the acceptor, stops admitting
//     input, lets every connection's worker finish its queued lines,
//     flushes, and closes. Wait() returns once the last worker is gone.
//
// Each connection runs its own worker thread driving a ConnectionHandler
// (a RequestProcessor unless a factory is given), so the per-session
// protocol contract is exactly the stdio one: one JSON object per line,
// input order, byte-identical to serving the same lines over
// stdin/stdout (tests/tcp_server_test.cc pins this against the
// request-loop fuzz corpus). A connection that disconnects mid-line
// has its partial final line served like std::getline would — as a line.
//
// The per-server counters surface through the `stats` admin verb (the
// processor's server_stats_json hook) and through Stats(). They are also
// mirrored into the obs metrics registry (nucleus_tcp_* families, plus a
// queue-wait histogram timed from admission to worker dequeue) so a
// scrape sees the same numbers `stats` reports — the atomics here stay
// the source of truth; the mirror is last-writer-wins and updates only
// while obs::MetricsEnabled().
#ifndef NUCLEUS_SERVE_NET_TCP_SERVER_H_
#define NUCLEUS_SERVE_NET_TCP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include "nucleus/obs/metrics.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/util/status.h"

namespace nucleus {

/// Builds one handler per accepted connection, writing to that
/// connection's socket stream; the server feeds it ProcessLine per
/// admitted line, RejectLine per back-pressure/oversized slot, Flush when
/// input runs dry and Finish once. Invoked on the connection's worker
/// thread; must be safe to call concurrently from many workers.
using ConnectionHandlerFactory =
    std::function<std::unique_ptr<ConnectionHandler>(std::ostream& out)>;

struct TcpServerOptions {
  /// Numeric listen address. Loopback by default — the tier is built for
  /// a trusted reverse proxy or local clients first; binding wider is a
  /// deliberate operator decision.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by port() after Start().
  int port = 0;
  /// Connections past this are answered with an error object and closed.
  int max_connections = 64;
  /// Admitted-but-unprocessed lines per connection before back-pressure
  /// rejects new ones.
  std::int64_t queue_high_water = 1024;
  /// A line longer than this (no newline yet) is rejected and discarded
  /// up to its newline instead of being buffered.
  std::int64_t max_line_bytes = 1 << 20;
  /// Per-connection session options (threads, batch size). The server
  /// installs its own server_stats_json hook.
  ServeOptions serve;
};

/// Snapshot of the per-server counters (the "server" object of the
/// `stats` verb).
struct TcpServerStats {
  std::int64_t connections_accepted = 0;
  std::int64_t connections_rejected = 0;  // over max_connections
  std::int64_t connections_open = 0;      // gauge
  std::int64_t connections_drained = 0;   // fully closed
  std::int64_t accept_errors = 0;         // accept() failures (EMFILE, ...)
  std::int64_t lines_admitted = 0;
  std::int64_t lines_rejected = 0;        // back-pressure + oversized
  std::int64_t oversized_lines = 0;
  std::int64_t queue_depth = 0;           // gauge, across connections
  std::int64_t max_queue_depth = 0;       // high-water mark observed
  bool draining = false;
};

class TcpServer {
 public:
  /// `resolver` and `registry` have ServeResolvedRequests semantics and
  /// are shared by every connection (the registry and engines are
  /// thread-safe; each connection's protocol state is its own). Each
  /// connection's handler is a RequestProcessor with the server's stats
  /// hook installed.
  TcpServer(ServeSessionResolver resolver, SnapshotRegistry* registry,
            TcpServerOptions options);

  /// Generic front: each accepted connection drives a handler built by
  /// `factory`. The accept / admission / back-pressure / drain machinery
  /// is identical; only the per-line protocol logic changes (the router
  /// tier plugs in here).
  TcpServer(ConnectionHandlerFactory factory, TcpServerOptions options);
  ~TcpServer();  // Stop()

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and starts the IO thread. Fails on bind/listen
  /// errors (port taken, bad host).
  Status Start();

  /// The actually bound port (after Start(); resolves port 0).
  int port() const { return port_; }

  /// Initiates graceful drain: stop accepting, stop admitting, finish
  /// queued work, flush, close. Async-signal-safe (a flag and a
  /// self-pipe write), so a SIGINT handler may call it directly.
  void RequestDrain();

  /// Blocks until the drain completes and the IO thread exits.
  void Wait();

  /// RequestDrain() + Wait().
  void Stop();

  TcpServerStats Stats() const;
  /// Stats() as a JSON object body, e.g. {"connections_open": 2, ...}.
  std::string StatsJson() const;

 private:
  struct Connection;

  void PollLoop();
  void AcceptPending();
  void ReadFromConnection(Connection& conn);
  void AdmitLine(Connection& conn, std::string line);
  void RejectOversized(Connection& conn);
  void EnqueueEof(Connection& conn);
  void WorkerLoop(Connection* conn);
  void WakeIoThread();

  /// Set once during construction, read only by connection workers.
  ConnectionHandlerFactory handler_factory_;
  const TcpServerOptions options_;

  int listen_fd_ = -1;
  /// While now < this deadline the listener is left out of the poll set
  /// (accept() hit resource exhaustion; re-armed by the poll timeout).
  /// Touched only by the IO thread.
  std::chrono::steady_clock::time_point accept_backoff_until_{};
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::thread io_thread_;
  /// Owned by the IO thread between Start() and PollLoop() exit.
  std::list<std::unique_ptr<Connection>> connections_;

  std::atomic<bool> draining_{false};
  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> rejected_connections_{0};
  std::atomic<std::int64_t> open_{0};
  std::atomic<std::int64_t> drained_{0};
  std::atomic<std::int64_t> accept_errors_{0};
  std::atomic<std::int64_t> lines_admitted_{0};
  std::atomic<std::int64_t> lines_rejected_{0};
  std::atomic<std::int64_t> oversized_lines_{0};
  std::atomic<std::int64_t> queue_depth_{0};
  std::atomic<std::int64_t> max_queue_depth_{0};

  // Scrape mirror of the counters above, resolved once in the
  // constructor (options_.serve.metrics, or the process registry).
  // Gauges are Set() from the freshly updated atomic rather than
  // Add()ed, so a mid-run kill-switch toggle can never leave them
  // drifted from the source-of-truth atomics.
  obs::MetricsRegistry* const metrics_;
  obs::Counter* const m_accepted_;
  obs::Counter* const m_rejected_connections_;
  obs::Counter* const m_drained_;
  obs::Counter* const m_accept_errors_;
  obs::Counter* const m_lines_admitted_;
  obs::Counter* const m_lines_rejected_;
  obs::Counter* const m_oversized_lines_;
  obs::Gauge* const m_open_;
  obs::Gauge* const m_queue_depth_;
  obs::Gauge* const m_max_queue_depth_;
  obs::Histogram* const m_queue_wait_;  // sampled 1-in-8 admissions
};

}  // namespace nucleus

#endif  // NUCLEUS_SERVE_NET_TCP_SERVER_H_

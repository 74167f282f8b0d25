// TenantRouter: the cross-process sharding tier of the serving stack.
//
// One `nucleus_cli route` process speaks the existing one-JSON-object-
// per-line protocol on the front and fans `<tenant>:<verb>` lines out to
// backend `serve --listen` processes over pooled persistent connections.
// The pieces, mirroring the peer-liveness / routing / cross-peer-stats
// layering of distributed stores:
//
//   * deterministic placement: a tenant's home backend is
//     JumpConsistentHash(FNV1a64(name), num_backends) over the backend
//     list IN ITS GIVEN ORDER — a pure function of (name, backend list),
//     so the same tenant set lands identically on every run and every
//     router replica (tests pin the constants). A migration installs a
//     per-tenant override on top of the hash.
//   * ordered forwarding: within its home backend a tenant is pinned to
//     ONE pooled connection (hash over the pool), so all of a tenant's
//     lines flow through a single ordered backend session — which is
//     what keeps per-tenant response slices byte-identical to a
//     dedicated single-backend replay. A front session forwards per
//     drained batch, not per line: it queues routed lines, and at each
//     drain (the kRouterBatchBound bound, a flush of quiescent input, or
//     an admin verb, so a batch never spans one) groups them by pooled
//     connection in input order and sends each group with one write;
//     the whole batch completes through one countdown and one wake.
//     Successful responses are relayed verbatim; error responses get
//     their "line" field rewritten to the front session's line number
//     (the backend's own numbering is meaningless to the client).
//   * bounded in-flight: each backend connection caps its
//     forwarded-but-unanswered lines; lines past the cap are rejected
//     with the same structured-error admission discipline the TCP tier
//     applies to its queues.
//   * health: a prober pings every backend with the `stats` verb on an
//     interval; a failed probe (or a torn connection) marks the backend
//     down, after which its tenants' lines fail fast with structured
//     errors until a probe succeeds again and the backend is re-admitted.
//   * migration: `migrate <tenant> <backend-addr> [spec args]` runs the
//     dirty-detach protocol — `detach` on the source persists pending
//     deltas and the latest graph, the router extends the recorded
//     attach spec with those artifacts, attaches on the target, then
//     flips the route override. Applied updates survive the move.
//   * merged observability: router-level `stats` / `metrics` / `tenants`
//     embed each backend's own JSON response verbatim under a
//     "backends" array next to the router's counters, and the router's
//     counters live in the ordinary obs registry (nucleus_router_*).
#ifndef NUCLEUS_SERVE_ROUTER_ROUTER_H_
#define NUCLEUS_SERVE_ROUTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nucleus/obs/metrics.h"
#include "nucleus/serve/net/tcp_server.h"
#include "nucleus/util/mutex.h"
#include "nucleus/util/status.h"

namespace nucleus {

/// FNV-1a 64-bit over the tenant name: the stable key the placement
/// hash consumes. Pinned by tests — changing it reshuffles every
/// deployment's tenant placement.
std::uint64_t RouterTenantKey(const std::string& tenant);

/// Lamport & Veach's jump-consistent hash: maps `key` to a bucket in
/// [0, num_buckets) such that growing the bucket count moves only
/// ~1/num_buckets of the keys. Pure function, fixed constants, pinned by
/// tests.
std::int32_t JumpConsistentHash(std::uint64_t key, std::int32_t num_buckets);

/// Lines a router front session holds before it forwards them as one
/// batch and writes the responses out: the router handler's
/// ConnectionHandler batch bound.
inline constexpr std::int64_t kRouterBatchBound = 256;

struct TenantRouterOptions {
  /// Backend addresses as numeric "host:port". ORDER IS PLACEMENT:
  /// position in this list is the hash bucket, so every router given the
  /// same list routes identically.
  std::vector<std::string> backends;
  /// Persistent connections per backend. A tenant is pinned to one of
  /// them, so the pool parallelizes across tenants, never within one.
  int pool_size = 2;
  /// Forwarded-but-unanswered lines per backend connection before new
  /// lines are rejected with a structured error.
  std::int64_t max_inflight = 1024;
  /// Health-probe cadence; <= 0 disables the prober thread (tests call
  /// CheckBackendsNow() directly). One probe (connect + `stats` round
  /// trip) gets 2 s.
  int health_interval_ms = 250;
  /// Metrics registry for the nucleus_router_* families (null = the
  /// process-global registry).
  obs::MetricsRegistry* metrics = nullptr;
};

class TenantRouter {
 public:
  explicit TenantRouter(TenantRouterOptions options);
  ~TenantRouter();

  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  /// Validates addresses, probes every backend once (unreachable ones
  /// start down rather than failing startup — they re-admit when their
  /// probe first succeeds), and starts the prober thread.
  Status Start();

  /// Stops the prober and closes every backend connection. Called by the
  /// destructor; must not run while front connections are still being
  /// served (stop the front TcpServer first).
  void Stop();

  /// Builds the per-connection protocol handlers for the front
  /// TcpServer: TcpServer(router.HandlerFactory(), options).
  ConnectionHandlerFactory HandlerFactory();

  /// Installs the front server's live stats hook, embedded as the
  /// "server" field of the router-level `stats` response.
  void set_server_stats_json(std::function<std::string()> hook) {
    server_stats_json_ = std::move(hook);
  }

  /// Deterministic routing decision for `tenant`, override table
  /// included.
  int BackendIndexFor(const std::string& tenant) const;

  int num_backends() const { return static_cast<int>(backends_.size()); }
  const std::string& backend_address(int index) const;

  /// Whether the backend currently passes health checks.
  bool backend_up(int index) const;

  /// One synchronous health pass over every backend (the prober's body).
  void CheckBackendsNow();

 private:
  friend class RouterHandler;

  struct Batch;
  struct BackendConn;
  struct Backend;

  /// Forwards every routed line of `batch`: one write per pooled
  /// connection its lines are pinned to, then one wait until each line's
  /// response slot is filled — by the backend's answer, or by a
  /// structured error carrying the line's own number when the backend is
  /// down, unreachable, at its in-flight cap, or the send or connection
  /// fails.
  void Forward(Batch& batch);
  /// Sends the lines of `batch` pinned to pooled connection `conn` of
  /// backend `backend` with one write; returns whether any line went on
  /// the wire.
  bool SendGroup(Batch& batch, std::size_t backend, std::size_t conn);
  /// A batch of one: forwards `raw_line` and returns its response.
  std::string ForwardOne(int backend_index, int conn_index,
                         const std::string& raw_line, std::int64_t line_no);

  /// Dials `conn` unless its session is alive, starting its reader.
  Status EnsureConnected(Backend& backend, BackendConn& conn)
      REQUIRES(conn.write_mutex);
  void ReaderLoop(Backend* backend, BackendConn* conn, int fd);
  int ConnIndexFor(const std::string& tenant) const;

  bool ProbeBackend(Backend& backend);
  /// Half-kills every live connection of a down backend (shutdown(2) on
  /// the fd) so each reader exits and fails its in-flight lines — the
  /// unblocking path for front workers waiting on a wedged backend.
  void TearBackendConns(Backend& backend);
  void ProberLoop();

  /// `migrate <tenant> <target-addr> [spec args]`, synchronous; returns
  /// the response line (without trailing newline).
  std::string Migrate(const std::string& tenant,
                      const std::string& target_address,
                      const std::vector<std::string>& spec_args,
                      std::int64_t line_no);

  /// Fan one admin verb line out to every up backend and merge the
  /// verbatim responses under a "backends" array.
  std::string FanOutAdmin(const std::string& raw_line,
                          const std::string& query_name,
                          std::int64_t line_no);

  std::string RouterStatsJson() const;

  const TenantRouterOptions options_;
  std::vector<std::unique_ptr<Backend>> backends_;

  /// Route overrides (migrations) and remembered attach specs, keyed by
  /// tenant. Reads are per forwarded line, writes only on
  /// attach/detach/migrate.
  mutable SharedMutex route_mutex_;
  std::unordered_map<std::string, int> overrides_ GUARDED_BY(route_mutex_);
  std::unordered_map<std::string, std::vector<std::string>> specs_
      GUARDED_BY(route_mutex_);

  std::function<std::string()> server_stats_json_;

  std::thread prober_;
  int prober_wake_[2] = {-1, -1};  // self-pipe: Stop interrupts the nap
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  std::atomic<std::int64_t> lines_forwarded_{0};
  std::atomic<std::int64_t> lines_rejected_{0};
  std::atomic<std::int64_t> backend_failures_{0};
  std::atomic<std::int64_t> migrations_{0};

  obs::MetricsRegistry* const metrics_;
  obs::Counter* const m_forwarded_;
  obs::Counter* const m_batches_;
  obs::Counter* const m_rejected_;
  obs::Counter* const m_failures_;
  obs::Counter* const m_migrations_;
  obs::Gauge* const m_backends_up_;
};

}  // namespace nucleus

#endif  // NUCLEUS_SERVE_ROUTER_ROUTER_H_

// What every workload shares: arguments, seeded graphs and protocol
// scripts, the timed build (Decompose -> MakeSnapshot -> default save),
// in-process reference replays, server topologies and the serving
// session with its correctness checks and layer pricing.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "nucleus/core/decomposition.h"
#include "nucleus/graph/graph.h"
#include "nucleus/util/rng.h"
#include "util.h"

namespace perfbench {

/// Per-layer values of a traced run, by metric name.
using Ledger = std::map<std::string, double>;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;      // nucleus_cli binary
  std::string workdir;  // per-run scratch files live below this
  std::string run_dir;  // this run's scratch directory (server logs)
};

/// Fixed shape of the load: one client thread, nproc = 4 connections,
/// each with this many lines in flight.
inline constexpr int kConnections = 4;
inline constexpr int kWindow = 32;
/// Set-up is repeated this many times; setup_s is the median.
inline constexpr int kSetupRepeats = 3;
/// Length of one serving window; a measured round has two.
inline constexpr double kServeWindowSeconds = 0.3;
/// 4-thread builds per measured round (one 1-thread build). A 4-thread
/// build wakes the pool for every peel wave, so on a shared host it swings
/// far more from build to build than a serial one and needs more samples.
inline constexpr int kThreadedBuildsPerRound = 2;

/// One served graph: its data, where its files are, and the id ranges
/// its protocol script draws from.
struct Tenant {
  std::string name;
  nucleus::Family family = nucleus::Family::kCore12;
  nucleus::Algorithm algorithm = nucleus::Algorithm::kFnd;
  nucleus::Graph graph;
  bool live = false;  // graph= in the manifest: the update verb is on
  std::string snapshot_path;
  std::string graph_path;  // live tenants only
  // Filled by the reference build.
  std::vector<nucleus::Lambda> lambda;
  CanonicalHierarchy canon;
  std::int64_t num_cliques = 0;
  nucleus::Lambda max_lambda = 0;
  /// Nodes `members` queries draw from: nuclei of at most
  /// kMaxMemberList members, so that no single answer dwarfs the rest.
  std::vector<std::int32_t> member_nodes;
};

inline constexpr std::int64_t kMaxMemberList = 1000;

/// The build every workload times: Decompose (with tree) at `threads`,
/// MakeSnapshot with index tables, and the default-format save to
/// `path` — what `nucleus_cli decompose --out-snapshot` does after
/// parsing. Returns wall seconds; `ok` reports whether the lambdas and
/// the canonical hierarchy equal the tenant's reference, and
/// `peak_rss_mb` (if set) the process's peak RSS during the build.
double TimedBuild(const Tenant& tenant, int threads, const std::string& path,
                  bool* ok, double* peak_rss_mb = nullptr);
/// The serial reference build: fills the tenant's lambda, canonical
/// hierarchy and id ranges, and saves its snapshot (plus its edge list
/// when live).
void ReferenceBuild(Tenant* tenant);

/// `count` protocol lines for one tenant in the shared read mix:
/// 35% lambda, 25% nucleus, 30% common/level, 7% top, 3% members.
std::vector<std::string> ReadLines(nucleus::Rng& rng, const Tenant& tenant,
                                   std::int64_t count);

/// Writes a registry manifest naming `tenants`.
void WriteManifest(const std::string& path,
                   const std::vector<const Tenant*>& tenants);

/// Replays `lines` through ServeRegistryRequests on a fresh in-process
/// registry holding `tenants`; one response per line. Fails the run on
/// an error response or a count mismatch.
std::vector<std::string> ReferenceReplay(
    const std::vector<const Tenant*>& tenants,
    const std::vector<std::string>& lines, Report& report);

/// A running set of servers and the port clients talk to.
struct Topology {
  std::vector<std::unique_ptr<ServerProcess>> servers;  // entry point last
  std::vector<int> backend_ports;  // processes that answer queries
  int entry_port = -1;
  bool routed() const { return servers.size() > backend_ports.size(); }
  double PeakRssMb() const;
};

/// How to start one workload's servers: each backend is `serve --listen 0
/// --registry <manifest>`; with `routed`, a `route` front over them.
struct TopologySpec {
  std::vector<std::string> manifests;
  bool routed = false;
};
std::unique_ptr<Topology> StartTopology(const RunArgs& args,
                                        const TopologySpec& spec);

/// Starts the topology and answers `probe` through it: the serving open
/// path end to end. Returns wall seconds; the topology is stopped.
double TimedColdStart(const RunArgs& args, const TopologySpec& spec,
                      const std::string& probe, const std::string& expected,
                      Report& report);

/// Closed-loop serving against one topology, in windows that the caller
/// interleaves with other work, so that a burst of outside load skews a
/// few windows instead of a whole metric. Every response is byte-checked
/// against the in-process replay; Finish() checks that the request and
/// update counts the servers (and the router) export moved by exactly
/// what the client sent.
class CheckedServing {
 public:
  CheckedServing(const Topology& topology,
                 const std::vector<ConnScript>& scripts, Report& report);
  /// One window of `seconds`; its qps, p50 and p99 become one sample each.
  const SessionResult& Window(double seconds, bool record_spans = false);
  void Finish();

  /// p50_ms: the median over the windows (plus qps, p99_ms, the update
  /// lines' latency and the client's CPU share, in the table only).
  void AddMetrics(Report& report) const;
  /// client.busy_ratio, and client.lateness_us: the median over windows
  /// of each window's 99th-percentile refill lateness.
  void AddClientMetrics(Ledger& ledger, Report& report) const;
  /// Every window's qps, in order.
  const std::vector<double>& window_qps() const { return window_qps_; }
  const std::vector<double>& update_latency_ms() const {
    return update_latency_ms_;
  }
  /// After Finish(): the servers' own update time (the
  /// nucleus_serve_update_us histogram's sum) over the session's wall
  /// time, i.e. the share of connection 0's time spent in updates.
  double update_share() const { return update_share_; }

 private:
  struct Counts {
    std::int64_t reads = 0;
    std::int64_t updates = 0;
    std::int64_t forwarded = 0;
    std::int64_t update_us = 0;
  };
  Counts ReadExportedCounts() const;
  /// Client CPU over wall time; flags a saturated client in `report`.
  double BusyRatio(Report& report) const;

  const Topology& topology_;
  const std::vector<ConnScript>& scripts_;
  Report& report_;
  Counts before_;
  std::int64_t answered_ = 0;
  std::int64_t updates_ = 0;
  double wall_seconds_ = 0.0;
  double client_cpu_seconds_ = 0.0;
  double update_share_ = 0.0;
  Samples qps_;
  Samples p50_ms_;
  Samples p99_ms_;
  std::vector<double> window_qps_;  // every window, in order
  std::vector<double> update_latency_ms_;
  std::vector<double> lateness_us_;
  SessionResult last_;
};

/// The traced run's session: serving windows alternately without and with
/// a span per line (bench.trace_overhead = untraced qps / traced qps - 1),
/// plus the client's load and, where updates ran, their median latency.
void TracedServing(const Topology& topology,
                   const std::vector<ConnScript>& scripts, Tracer& tracer,
                   Ledger& ledger, Report& report);

/// Per-layer prices of the serving stack, each a replay of the same
/// scripts (read-only lines) at one boundary: QueryEngine::RunBatch,
/// the request loop, a direct server, and (when routed) the router.
void PriceServingLayers(const RunArgs& args,
                        const std::vector<const Tenant*>& tenants,
                        const std::vector<ConnScript>& read_scripts,
                        const TopologySpec& direct,
                        const TopologySpec* routed, Tracer& tracer,
                        Ledger& ledger, Report& report);

/// Adds every per-layer metric to `report`, in a fixed order; a layer the
/// workload does not exercise reads 0.
void AddLedger(const Ledger& ledger, Report& report);

/// One workload: what the shared run skeleton (RunWorkload) calls on it.
/// SetUp leaves `topology` running and `scripts` (one per connection,
/// with the in-process transcripts) filled in.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Graphs, reference builds, scripts and servers, from scratch each
  /// call: timed as setup_s.
  virtual void SetUp(Report& report) = 0;
  /// One checked build of the workload's graph(s) at `threads`: the wall
  /// seconds of the builds.
  virtual double Build(int threads, Report& report) = 0;
  /// One checked open through the serving path, after a build at
  /// `threads`: wall seconds until the first answer.
  virtual double Load(int threads, Report& report) = 0;
  /// peak_rss_mb, once the measured rounds are over.
  virtual void AddPeakRss(Report& report) const = 0;
  /// Runs once serving is over (serve-update detaches its live tenant).
  virtual void EndServing(Report& /*report*/) {}
  /// The traced run's layer pricing beyond the serving session.
  virtual void Trace(Tracer& tracer, Ledger& ledger, Report& report) = 0;

  std::unique_ptr<Topology> topology;
  std::vector<ConnScript> scripts;
};

std::unique_ptr<Workload> MakeBuildWorkload(const RunArgs& args);
std::unique_ptr<Workload> MakeServeWorkload(const RunArgs& args);

/// The run skeleton every workload shares: set-up kSetupRepeats times,
/// then either measured rounds (a build at 1 thread, its load and a
/// serving window, then kThreadedBuildsPerRound builds at 4 threads, each
/// with its load, and a window) until `args.seconds`, or the traced run;
/// prints the report. Returns the exit code.
int RunWorkload(const RunArgs& args, Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

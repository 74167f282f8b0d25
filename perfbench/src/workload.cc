#include "workload.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <sstream>

#include "nucleus/graph/edge_list_io.h"
#include "nucleus/obs/metrics.h"
#include "nucleus/parallel/thread_pool.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_source.h"

namespace perfbench {

using nucleus::DecomposeOptions;
using nucleus::SnapshotData;

namespace {

DecomposeOptions OptionsFor(const Tenant& tenant, int threads) {
  DecomposeOptions options;
  options.family = tenant.family;
  options.algorithm = tenant.algorithm;
  options.parallel.num_threads = threads;
  return options;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  for (std::size_t eol = text.find('\n'); eol != std::string::npos;
       eol = text.find('\n', begin)) {
    lines.push_back(text.substr(begin, eol - begin));
    begin = eol + 1;
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

void AttachAll(nucleus::SnapshotRegistry& registry,
               const std::vector<const Tenant*>& tenants) {
  for (const Tenant* tenant : tenants) {
    nucleus::TenantSpec spec;
    spec.name = tenant->name;
    spec.snapshot_path = tenant->snapshot_path;
    if (tenant->live) spec.graph_path = tenant->graph_path;
    if (nucleus::Status s = registry.Attach(spec); !s.ok()) {
      Die("attach " + tenant->name + ": " + s.ToString());
    }
  }
}

}  // namespace

double TimedBuild(const Tenant& tenant, int threads, const std::string& path,
                  bool* ok, double* peak_rss_mb) {
  const DecomposeOptions options = OptionsFor(tenant, threads);
  // Every build starts from the same heap state, as a fresh process would.
  ResetPeakRss();
  const Clock::time_point start = Clock::now();
  const SnapshotData snapshot =
      nucleus::MakeSnapshot(tenant.graph, options,
                            nucleus::Decompose(tenant.graph, options),
                            /*with_index=*/true);
  const nucleus::Status saved = nucleus::SaveSnapshot(snapshot, path);
  const double seconds = SecondsSince(start);
  if (peak_rss_mb != nullptr) *peak_rss_mb = SelfPeakRssMb();
  *ok = saved.ok() && snapshot.peel.lambda == tenant.lambda &&
        Canonicalize(snapshot.hierarchy) == tenant.canon;
  return seconds;
}

void ReferenceBuild(Tenant* tenant) {
  const DecomposeOptions options = OptionsFor(*tenant, 1);
  nucleus::DecompositionResult result = nucleus::Decompose(tenant->graph, options);
  tenant->lambda = result.peel.lambda;
  tenant->canon = Canonicalize(result.hierarchy);
  tenant->member_nodes.clear();
  // A live tenant's node ids shift a little with every update; the lower
  // half of them exists in every state its script visits.
  const std::int64_t nodes = tenant->live ? result.hierarchy.NumNodes() / 2
                                          : result.hierarchy.NumNodes();
  for (std::int32_t node = 1; node < nodes; ++node) {
    if (result.hierarchy.node(node).subtree_members <= kMaxMemberList) {
      tenant->member_nodes.push_back(node);
    }
  }
  const SnapshotData snapshot = nucleus::MakeSnapshot(
      tenant->graph, options, std::move(result), /*with_index=*/true);
  tenant->num_cliques = snapshot.meta.num_cliques;
  tenant->max_lambda = snapshot.meta.max_lambda;
  if (nucleus::Status s = nucleus::SaveSnapshot(snapshot, tenant->snapshot_path);
      !s.ok()) {
    Die("save " + tenant->snapshot_path + ": " + s.ToString());
  }
  if (tenant->live) {
    if (nucleus::Status s =
            nucleus::WriteEdgeList(tenant->graph, tenant->graph_path);
        !s.ok()) {
      Die("write " + tenant->graph_path + ": " + s.ToString());
    }
  }
}

std::vector<std::string> ReadLines(nucleus::Rng& rng, const Tenant& tenant,
                                   std::int64_t count) {
  const std::int64_t n = tenant.num_cliques;
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t roll = rng.UniformInt(0, 99);
    std::ostringstream line;
    line << tenant.name << ':';
    if (roll < 35) {
      line << "lambda " << rng.UniformInt(0, n - 1);
    } else if (roll < 60 && tenant.max_lambda >= 1) {
      line << "nucleus " << rng.UniformInt(0, n - 1) << ' '
           << rng.UniformInt(1, tenant.max_lambda);
    } else if (roll < 90) {
      line << (rng.Bernoulli(0.5) ? "common " : "level ")
           << rng.UniformInt(0, n - 1) << ' ' << rng.UniformInt(0, n - 1);
    } else if (roll < 97) {
      line << "top " << rng.UniformInt(1, 10);
    } else {
      line << "members "
           << tenant.member_nodes[static_cast<std::size_t>(rng.UniformInt(
                  0, static_cast<std::int64_t>(tenant.member_nodes.size()) - 1))];
    }
    lines.push_back(line.str());
  }
  return lines;
}

void WriteManifest(const std::string& path,
                   const std::vector<const Tenant*>& tenants) {
  std::string text;
  for (const Tenant* tenant : tenants) {
    text += "tenant " + tenant->name + " snapshot=" + tenant->snapshot_path;
    if (tenant->live) text += " graph=" + tenant->graph_path;
    text += "\n";
  }
  WriteFile(path, text);
}

std::vector<std::string> ReferenceReplay(
    const std::vector<const Tenant*>& tenants,
    const std::vector<std::string>& lines, Report& report) {
  nucleus::SnapshotRegistry registry;
  AttachAll(registry, tenants);
  std::istringstream in(JoinLines(lines));
  std::ostringstream out;
  nucleus::ServeRegistryRequests(registry, in, out, nucleus::ServeOptions{});
  std::vector<std::string> responses = SplitLines(out.str());
  if (responses.size() != lines.size()) {
    report.Fail("reference replay answered " +
                std::to_string(responses.size()) + " of " +
                std::to_string(lines.size()) + " lines");
  }
  for (const std::string& response : responses) {
    if (response.find("\"error\"") != std::string::npos) {
      report.Fail("reference replay produced an error: " + response);
      break;
    }
  }
  return responses;
}

double Topology::PeakRssMb() const {
  double total = 0.0;
  for (const auto& server : servers) total += server->PeakRssMb();
  return total;
}

std::unique_ptr<Topology> StartTopology(const RunArgs& args,
                                        const TopologySpec& spec) {
  auto topology = std::make_unique<Topology>();
  std::string backends;
  for (std::size_t i = 0; i < spec.manifests.size(); ++i) {
    auto server = std::make_unique<ServerProcess>();
    server->Start({args.cli, "serve", "--listen", "0", "--registry",
                   spec.manifests[i]},
                  args.run_dir + "/serve" + std::to_string(i) + ".log");
    topology->backend_ports.push_back(server->port());
    if (!backends.empty()) backends += ",";
    backends += "127.0.0.1:" + std::to_string(server->port());
    topology->servers.push_back(std::move(server));
  }
  if (spec.routed) {
    auto router = std::make_unique<ServerProcess>();
    router->Start({args.cli, "route", "--listen", "0", "--backend", backends},
                  args.run_dir + "/route.log");
    topology->servers.push_back(std::move(router));
  }
  topology->entry_port = topology->servers.back()->port();
  return topology;
}

double TimedColdStart(const RunArgs& args, const TopologySpec& spec,
                      const std::string& probe, const std::string& expected,
                      Report& report) {
  const Clock::time_point start = Clock::now();
  const std::unique_ptr<Topology> topology = StartTopology(args, spec);
  const std::string response = RoundTrip(topology->entry_port, probe);
  const double seconds = SecondsSince(start);
  report.CountOps(1, response == expected ? 0 : 1);
  return seconds;
}

CheckedServing::CheckedServing(const Topology& topology,
                               const std::vector<ConnScript>& scripts,
                               Report& report)
    : topology_(topology), scripts_(scripts), report_(report) {
  before_ = ReadExportedCounts();
}

CheckedServing::Counts CheckedServing::ReadExportedCounts() const {
  Counts counts;
  for (int port : topology_.backend_ports) {
    const std::string metrics = RoundTrip(port, "metrics");
    counts.reads += SumCounter(metrics, "nucleus_serve_requests_total");
    counts.updates += SumCounter(metrics, "nucleus_serve_updates_total");
    const std::size_t at = metrics.find("\"nucleus_serve_update_us\": {");
    if (at != std::string::npos) {
      counts.update_us += JsonInt(metrics.substr(at), "sum_us");
    }
  }
  if (topology_.routed()) {
    counts.forwarded =
        JsonInt(RoundTrip(topology_.entry_port, "stats"), "lines_forwarded");
  }
  return counts;
}

const SessionResult& CheckedServing::Window(double seconds,
                                            bool record_spans) {
  SessionOptions options;
  options.window = kWindow;
  options.seconds = seconds;
  options.record_spans = record_spans;
  const StealMeter steal;
  last_ = RunSession(topology_.entry_port, scripts_, options);
  const double steal_share = steal.Share();
  report_.CountOps(last_.sent, last_.mismatched);
  if (last_.mismatched > 0) {
    report_.Fail(std::to_string(last_.mismatched) +
                 " response(s) differ from the in-process replay");
  }
  answered_ += last_.answered;
  updates_ += last_.updates;
  wall_seconds_ += last_.wall_seconds;
  client_cpu_seconds_ += last_.client_cpu_seconds;
  window_qps_.push_back(last_.answered / last_.wall_seconds);
  qps_.Add(window_qps_.back(), steal_share);
  p50_ms_.Add(Median(last_.latency_ms), steal_share);
  p99_ms_.Add(Percentile(last_.latency_ms, 0.99), steal_share);
  // Only per-window summaries accumulate, so that the bench's own memory
  // stays flat across the rounds whose builds it measures.
  lateness_us_.push_back(Percentile(last_.lateness_us, 0.99));
  update_latency_ms_.insert(update_latency_ms_.end(),
                            last_.update_latency_ms.begin(),
                            last_.update_latency_ms.end());
  return last_;
}

void CheckedServing::Finish() {
  // Bench numbers = exported numbers: what the client sent must be what
  // the serving processes counted, exactly.
  const Counts after = ReadExportedCounts();
  const auto check = [&](const char* what, std::int64_t exported,
                         std::int64_t sent) {
    report_.CountOps(1, 0);
    if (exported != sent) {
      report_.Fail(std::string("exported ") + what + " count " +
                   std::to_string(exported) + " != " + std::to_string(sent) +
                   " sent by the client");
    }
  };
  check("read", after.reads - before_.reads, answered_ - updates_);
  check("update", after.updates - before_.updates, updates_);
  update_share_ = static_cast<double>(after.update_us - before_.update_us) /
                  (wall_seconds_ * 1e6);
  if (topology_.routed()) {
    // The `stats` verb itself is fanned out to every backend.
    check("forwarded", after.forwarded - before_.forwarded,
          answered_ + static_cast<std::int64_t>(topology_.backend_ports.size()));
  }
}

void CheckedServing::AddMetrics(Report& report) const {
  report.AddSamples("p50_ms", "ms", p50_ms_);
  // Throughput and the 99th percentile pay for every stall of every
  // thread on the line's path, so on a shared host they follow the
  // hypervisor's steal more than the server; they are shown, not gated.
  report.AddSamples("qps", "1/s", qps_, /*in_json=*/false);
  report.AddSamples("p99_ms", "ms", p99_ms_, /*in_json=*/false);
  if (!update_latency_ms_.empty()) {
    report.AddInfo("update_p50_ms", "ms", update_latency_ms_);
  }
  report.AddInfo("client.busy_ratio", "ratio", {BusyRatio(report)});
}

void CheckedServing::AddClientMetrics(Ledger& ledger, Report& report) const {
  ledger["client.busy_ratio"] = BusyRatio(report);
  ledger["client.lateness_us"] = Median(lateness_us_);
}

double CheckedServing::BusyRatio(Report& report) const {
  const double busy = client_cpu_seconds_ / wall_seconds_;
  if (busy > 0.9) {
    report.Note("FLAG: the client thread was busy " + std::to_string(busy) +
                " of the wall time; qps may be the generator's ceiling");
  }
  return busy;
}

void TracedServing(const Topology& topology,
                   const std::vector<ConnScript>& scripts, Tracer& tracer,
                   Ledger& ledger, Report& report) {
  CheckedServing plain(topology, scripts, report);
  std::vector<double> traced_qps;
  for (int i = 0; i < 3; ++i) {
    plain.Window(kServeWindowSeconds);
    const int window = tracer.Begin("client.window");
    const SessionResult& traced = plain.Window(kServeWindowSeconds, true);
    tracer.End(window);
    traced_qps.push_back(plain.window_qps().back());
    // Every line was a span in memory; one in 64 is written out.
    for (std::size_t s = 0; s < traced.spans.size(); s += 64) {
      tracer.Record("client.line", window, traced.spans[s].send_ns,
                    traced.spans[s].recv_ns);
    }
  }
  plain.Finish();
  std::vector<double> untraced_qps;
  for (std::size_t i = 0; i < plain.window_qps().size(); i += 2) {
    untraced_qps.push_back(plain.window_qps()[i]);
  }
  ledger["bench.trace_overhead"] = Median(untraced_qps) / Median(traced_qps) - 1.0;
  plain.AddClientMetrics(ledger, report);
  if (!plain.update_latency_ms().empty()) {
    ledger["serve.live.update_p50_ms"] = Median(plain.update_latency_ms());
    ledger["serve.live.update_share"] = plain.update_share();
  }
}

namespace {

/// A script's lines once through, for fixed-work replays.
std::vector<ConnScript> OncePerScript(const std::vector<ConnScript>& scripts) {
  std::vector<ConnScript> once = scripts;
  for (ConnScript& script : once) script.cycle = false;
  return once;
}

/// ns per line of one fixed-work pipelined pass, and the median round trip
/// (µs) with one line in flight.
std::pair<double, double> PriceServer(const RunArgs& args,
                                      const TopologySpec& spec,
                                      const std::vector<ConnScript>& scripts,
                                      Report& report) {
  const std::unique_ptr<Topology> topology = StartTopology(args, spec);
  SessionOptions options;
  options.window = kWindow;
  options.seconds = 60.0;
  const SessionResult pass =
      RunSession(topology->entry_port, OncePerScript(scripts), options);
  report.CountOps(pass.sent, pass.mismatched);
  ConnScript ping = scripts.front();
  ping.lines.resize(std::min<std::size_t>(ping.lines.size(), 2000));
  ping.expected.resize(ping.lines.size());
  ping.cycle = false;
  options.window = 1;
  const SessionResult rtt = RunSession(topology->entry_port, {ping}, options);
  report.CountOps(rtt.sent, rtt.mismatched);
  if (pass.mismatched + rtt.mismatched > 0) {
    report.Fail("a layer replay diverged from the in-process transcript");
  }
  return {pass.wall_seconds * 1e9 / static_cast<double>(pass.answered),
          Median(rtt.latency_ms) * 1e3};
}

}  // namespace

void PriceServingLayers(const RunArgs& args,
                        const std::vector<const Tenant*>& tenants,
                        const std::vector<ConnScript>& read_scripts,
                        const TopologySpec& direct,
                        const TopologySpec* routed, Tracer& tracer,
                        Ledger& ledger, Report& report) {
  const int root = tracer.Begin("serve");
  // Engine: QueryEngine::RunBatch over each tenant's parsed queries, in
  // request-loop sized batches, on the one-thread pool `serve` uses.
  {
    nucleus::ThreadPool pool(1);
    double seconds = 0.0;
    std::int64_t queries = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    const int span = tracer.Begin("serve.engine", root);
    for (const Tenant* tenant : tenants) {
      auto source = nucleus::OpenSnapshotSource(tenant->snapshot_path,
                                                nucleus::SnapshotMemoryMode::kHeap);
      if (!source.ok()) Die(source.status().ToString());
      auto engine = nucleus::QueryEngine::FromSource(std::move(*source));
      std::vector<nucleus::QueryEngine::Query> batch;
      const std::string prefix = tenant->name + ":";
      for (const ConnScript& script : read_scripts) {
        for (const std::string& line : script.lines) {
          if (line.compare(0, prefix.size(), prefix) != 0) continue;
          auto query = nucleus::ParseRequestLine(line.substr(prefix.size()));
          if (query.ok()) batch.push_back(*query);
        }
      }
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < batch.size(); i += 256) {
        const std::vector<nucleus::QueryEngine::Query> chunk(
            batch.begin() + static_cast<std::ptrdiff_t>(i),
            batch.begin() + static_cast<std::ptrdiff_t>(
                                std::min(batch.size(), i + 256)));
        engine->RunBatch(chunk, pool);
      }
      seconds += SecondsSince(start);
      queries += static_cast<std::int64_t>(batch.size());
      hits += engine->CacheStats().hits;
      misses += engine->CacheStats().misses;
    }
    tracer.End(span);
    ledger["serve.engine.ns_per_query"] = seconds * 1e9 / std::max<std::int64_t>(queries, 1);
    ledger["serve.engine.cache_hit_ratio"] =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
  }
  // Request loop: the same lines through ServeRegistryRequests, with the
  // metrics kill switch off and on.
  {
    nucleus::SnapshotRegistry registry;
    AttachAll(registry, tenants);
    std::vector<std::string> lines;
    std::vector<std::string> expected;
    for (const ConnScript& script : read_scripts) {
      lines.insert(lines.end(), script.lines.begin(), script.lines.end());
      expected.insert(expected.end(), script.expected.begin(),
                      script.expected.end());
    }
    const std::string text = JoinLines(lines);
    const std::string transcript = JoinLines(expected);
    nucleus::ServeStats stats;
    const auto replay = [&](bool metrics_on) {
      nucleus::obs::SetMetricsEnabled(metrics_on);
      std::istringstream in(text);
      std::ostringstream out;
      const Clock::time_point start = Clock::now();
      stats = nucleus::ServeRegistryRequests(registry, in, out,
                                             nucleus::ServeOptions{});
      const double seconds = SecondsSince(start);
      nucleus::obs::SetMetricsEnabled(true);
      // Metrics are a side channel: the transcript is the same either way.
      report.CountOps(1, out.str() == transcript ? 0 : 1);
      return seconds;
    };
    const int span = tracer.Begin("serve.loop", root);
    // A first pass fills the engines' member caches; then off and on
    // alternate, best of five each, so neither sees a colder cache.
    replay(true);
    double off = std::numeric_limits<double>::infinity();
    double on = off;
    for (int rep = 0; rep < 5; ++rep) {
      off = std::min(off, replay(false));
      on = std::min(on, replay(true));
    }
    tracer.End(span);
    ledger["serve.loop.ns_per_line"] = on * 1e9 / static_cast<double>(lines.size());
    ledger["serve.loop.lines_per_batch"] =
        static_cast<double>(stats.requests) / std::max<std::int64_t>(stats.batches, 1);
    ledger["obs.metrics_efficiency"] = off / on;
  }
  // TCP tier: a server answering directly.
  {
    const int span = tracer.Begin("serve.net", root);
    const auto [ns, rtt] = PriceServer(args, direct, read_scripts, report);
    tracer.End(span);
    ledger["serve.net.ns_per_line"] = ns;
    ledger["serve.net.rtt_us"] = rtt;
  }
  if (routed != nullptr) {
    const int span = tracer.Begin("serve.router", root);
    const auto [ns, rtt] = PriceServer(args, *routed, read_scripts, report);
    tracer.End(span);
    ledger["serve.router.ns_per_line"] = ns;
    ledger["serve.router.rtt_us"] = rtt;
    ledger["serve.router.efficiency"] = ledger["serve.net.ns_per_line"] / ns;
  }
  tracer.End(root);
}

void AddLedger(const Ledger& ledger, Report& report) {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"cliques.edge_index_s.t1", "s"},   {"cliques.edge_index_s.t4", "s"},
      {"cliques.triangle_index_s.t1", "s"}, {"cliques.triangle_index_s.t4", "s"},
      {"cliques.support_s.t1", "s"},      {"cliques.support_s.t4", "s"},
      {"cliques.triangles", "count"},     {"cliques.supercliques", "count"},
      {"core.peel_s.t1", "s"},            {"core.peel_s.t4", "s"},
      {"core.peel_self_s.t1", "s"},       {"core.peel_self_s.t4", "s"},
      {"core.max_lambda", "count"},
      {"core.fnd_s.t1", "s"},             {"core.fnd_s.t4", "s"},
      {"core.fnd_post_s.t1", "s"},        {"core.fnd_post_s.t4", "s"},
      {"core.subnuclei", "count"},        {"core.adj", "count"},
      {"core.nodes_per_subnucleus", "ratio"},
      {"core.tree_s", "s"},               {"core.jump_tables_s", "s"},
      {"core.tree_nodes", "count"},       {"core.jump_levels", "count"},
      {"store.make_s", "s"},              {"store.save_s", "s"},
      {"store.save_bytes", "bytes"},      {"store.load_s", "s"},
      {"build.accounted_ratio", "ratio"},
      {"serve.engine.ns_per_query", "ns"}, {"serve.engine.cache_hit_ratio", "ratio"},
      {"serve.loop.ns_per_line", "ns"},   {"serve.loop.lines_per_batch", "count"},
      {"serve.net.ns_per_line", "ns"},    {"serve.net.rtt_us", "us"},
      {"serve.router.ns_per_line", "ns"}, {"serve.router.rtt_us", "us"},
      {"serve.router.efficiency", "ratio"},
      {"serve.live.update_p50_ms", "ms"}, {"serve.live.update_share", "ratio"},
      {"serve.live.apply_ms", "ms"},
      {"serve.live.touched", "count"},    {"serve.live.swap_ms", "ms"},
      {"serve.registry.detach_persist_ms", "ms"},
      {"store.delta_bytes", "bytes"},
      {"obs.metrics_efficiency", "ratio"}, {"bench.trace_overhead", "ratio"},
      {"client.busy_ratio", "ratio"},     {"client.lateness_us", "us"},
  };
  for (const auto& [name, unit] : kMetrics) {
    const auto it = ledger.find(name);
    report.AddValue(name, unit, it == ledger.end() ? 0.0 : it->second);
  }
  for (const auto& [name, value] : ledger) {
    const bool known = std::any_of(kMetrics.begin(), kMetrics.end(),
                                   [&](const auto& m) { return m.first == name; });
    if (!known) Die("unlisted per-layer metric " + name);
  }
}

int RunWorkload(const RunArgs& args, Workload& workload) {
  std::filesystem::create_directories(args.run_dir);
  Report report;
  const StealMeter run_steal;
  Samples setup_s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    setup_s.Measure([&] {
      const Clock::time_point start = Clock::now();
      workload.SetUp(report);
      return SecondsSince(start);
    });
  }
  if (!args.trace) {
    // Rounds until the time is up. Serving windows sit between the builds,
    // so that a burst of outside load skews a few samples of each metric
    // instead of one metric's whole run.
    const Clock::time_point start = Clock::now();
    Samples t1;
    Samples t4;
    Samples load;
    CheckedServing serving(*workload.topology, workload.scripts, report);
    while (t4.size() < 3 || SecondsSince(start) < args.seconds) {
      t1.Measure([&] { return workload.Build(1, report); });
      load.Measure([&] { return workload.Load(1, report); });
      serving.Window(kServeWindowSeconds);
      for (int i = 0; i < kThreadedBuildsPerRound; ++i) {
        t4.Measure([&] { return workload.Build(4, report); });
        load.Measure([&] { return workload.Load(4, report); });
      }
      serving.Window(kServeWindowSeconds);
    }
    serving.Finish();
    report.AddSamples("build_t1_s", "s", t1);
    report.AddSamples("build_t4_s", "s", t4);
    report.AddSamples("load_s", "s", load);
    serving.AddMetrics(report);
    report.AddSamples("setup_s", "s", setup_s);
    workload.AddPeakRss(report);
    workload.EndServing(report);
  } else {
    Tracer tracer(true);
    Ledger ledger;
    TracedServing(*workload.topology, workload.scripts, tracer, ledger,
                  report);
    workload.EndServing(report);
    workload.Trace(tracer, ledger, report);
    tracer.Write(args.workdir + "/" + args.workload + "-" +
                 std::to_string(args.seed) + ".trace.jsonl");
    AddLedger(ledger, report);
  }
  workload.topology.reset();
  RemoveTree(args.run_dir);
  report.NoteSteal(run_steal);
  report.Print("perfbench " + args.workload + " seed " +
               std::to_string(args.seed) + (args.trace ? " (traced)" : ""));
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench

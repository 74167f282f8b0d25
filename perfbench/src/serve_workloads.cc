// serve-routed and serve-update: seeded tenants built into snapshots,
// served by `nucleus_cli serve --listen --registry` processes (behind a
// `nucleus_cli route` front for serve-routed), and loaded by the
// closed-loop client over loopback.
#include <filesystem>
#include <memory>

#include "nucleus/graph/edge_list_io.h"
#include "nucleus/graph/generators.h"
#include "nucleus/serve/live_update.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/router/router.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/util/mutex.h"
#include "workload.h"

namespace perfbench {
namespace {

using nucleus::Algorithm;
using nucleus::Family;

constexpr std::int64_t kScriptLines = 20000;  // per read connection, cycled
/// serve-update: reads of the live tenant between two updates on
/// connection 0. Sized from the traced run's serve.live.update_share so
/// that updates take about half of the connection's time.
constexpr std::int64_t kReadsPerUpdate = 9000;

/// A graph of the repository's dataset proxies (PaperDatasets in
/// src/nucleus/bench/datasets.cc): the proxy's generator and parameters,
/// with the run's seed in place of the proxy's fixed one.
nucleus::Graph ProxyGraph(const std::string& proxy, std::uint64_t seed) {
  if (proxy == "skitter-syn") {  // sparse internet topology
    return nucleus::RMat(15, 280000, 0.57, 0.19, 0.19, seed);
  }
  if (proxy == "mit-syn") {  // small dense facebook100-style network
    return nucleus::PlantedPartition(10, 90, 0.55, 0.012, seed);
  }
  if (proxy == "stanford3-syn") {  // dense facebook100-style network
    return nucleus::PlantedPartition(12, 130, 0.50, 0.008, seed);
  }
  if (proxy == "twitter-hb-syn") {  // skewed follower graph, triadic closure
    return nucleus::WithTriadicClosure(nucleus::BarabasiAlbert(12000, 10, seed),
                                       120000, seed + 1);
  }
  if (proxy == "uk-2005-syn") {  // clique-heavy web-host graph
    return nucleus::MixedCaveman(36, 16, 48, 220, seed);
  }
  Die("unknown dataset proxy " + proxy);
}

/// A read-only (2,3) tenant named after its proxy.
Tenant ReadTenant(const std::string& proxy, std::uint64_t seed) {
  Tenant tenant;
  tenant.name = proxy;
  tenant.family = Family::kTruss23;
  tenant.graph = ProxyGraph(proxy, seed);
  return tenant;
}

std::vector<const Tenant*> Pointers(const std::vector<Tenant>& tenants) {
  std::vector<const Tenant*> out;
  for (const Tenant& tenant : tenants) out.push_back(&tenant);
  return out;
}

/// Connection 0 of serve-update: reads of the live tenant around an
/// insert of a missing edge and its removal. One pass leaves the graph as
/// it found it, so the script cycles; the replay of two passes must
/// repeat itself for that to hold.
void LiveScript(const Tenant& live, std::uint64_t seed,
                const std::vector<const Tenant*>& tenants, ConnScript* script,
                Report& report) {
  nucleus::Rng rng(seed * 1000 + 7);
  nucleus::VertexId u = 0;
  nucleus::VertexId v = 0;
  do {
    u = rng.UniformVertex(live.graph.NumVertices());
    v = rng.UniformVertex(live.graph.NumVertices());
  } while (u == v || live.graph.HasEdge(u, v) || live.graph.Degree(u) == 0 ||
           live.graph.Degree(v) == 0);
  const std::string edge = std::to_string(u) + " " + std::to_string(v);
  for (const char* op : {"+", "-"}) {
    for (const std::string& line : ReadLines(rng, live, kReadsPerUpdate)) {
      script->lines.push_back(line);
    }
    script->lines.push_back(live.name + ":update " + edge + " " + op);
  }
  std::vector<std::string> twice = script->lines;
  twice.insert(twice.end(), script->lines.begin(), script->lines.end());
  std::vector<std::string> replay = ReferenceReplay(tenants, twice, report);
  const std::size_t n = script->lines.size();
  if (replay.size() != 2 * n ||
      !std::equal(replay.begin(), replay.begin() + n, replay.begin() + n)) {
    report.Fail("the live script does not return the tenant to its state");
  }
  replay.resize(n);
  script->expected = std::move(replay);
  script->whole_passes = true;
}

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const RunArgs& args)
      : args_(args), routed_(args.workload == "serve-routed") {}

  void SetUp(Report& report) override {
    const std::string& dir = args_.run_dir;
    topology.reset();
    tenants_.clear();
    const std::uint64_t seed = args_.seed * 7919;
    if (routed_) {
      // The paper's Table 1 graphs (router_serving serves the first two,
      // multi_tenant_serving all three) plus a small dense network; the
      // router's placement hash puts two on each backend.
      const char* proxies[] = {"stanford3-syn", "twitter-hb-syn",
                               "uk-2005-syn", "mit-syn"};
      for (std::uint64_t i = 0; i < 4; ++i) {
        tenants_.push_back(ReadTenant(proxies[i], seed + 2 * i));
      }
    } else {
      Tenant live;
      live.name = "skitter-syn";
      live.family = Family::kCore12;
      // LiveUpdater maintains DFT-shaped (1,2) hierarchies.
      live.algorithm = Algorithm::kDft;
      live.live = true;
      live.graph = ProxyGraph(live.name, seed);
      tenants_.push_back(std::move(live));
      tenants_.push_back(ReadTenant("mit-syn", seed + 2));
      tenants_.push_back(ReadTenant("stanford3-syn", seed + 4));
    }
    for (Tenant& tenant : tenants_) {
      tenant.snapshot_path = dir + "/" + tenant.name + ".nucsnap";
      tenant.graph_path = dir + "/" + tenant.name + ".txt";
      if (tenant.live) {
        // The server re-reads the graph from its edge list, which drops
        // trailing isolated vertices: serve and build the same graph.
        if (!nucleus::WriteEdgeList(tenant.graph, tenant.graph_path).ok()) {
          Die("cannot write " + tenant.graph_path);
        }
        auto reread = nucleus::ReadEdgeList(tenant.graph_path);
        if (!reread.ok()) Die(reread.status().ToString());
        tenant.graph = std::move(*reread);
      }
      ReferenceBuild(&tenant);
    }
    const std::vector<const Tenant*> all = Pointers(tenants_);

    // Read connections draw each line's tenant uniformly from the
    // read-only tenants.
    std::vector<const Tenant*> readable;
    for (const Tenant* tenant : all) {
      if (!tenant->live) readable.push_back(tenant);
    }
    scripts.assign(kConnections, ConnScript{});
    for (int c = 0; c < kConnections; ++c) {
      ConnScript& script = scripts[static_cast<std::size_t>(c)];
      if (!routed_ && c == 0) {
        LiveScript(tenants_.front(), args_.seed, all, &script, report);
        continue;
      }
      nucleus::Rng rng(args_.seed * 1000 + static_cast<std::uint64_t>(c) + 1);
      for (std::int64_t i = 0; i < kScriptLines; ++i) {
        const Tenant& tenant = *readable[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(readable.size()) - 1))];
        script.lines.push_back(ReadLines(rng, tenant, 1)[0]);
      }
      script.expected = ReferenceReplay(all, script.lines, report);
    }

    direct_ = {{dir + "/all.manifest"}, false};
    WriteManifest(direct_.manifests[0], all);
    if (routed_) {
      // Shard by the router's own placement function, so each backend
      // holds exactly the tenants routed to it.
      std::vector<std::vector<const Tenant*>> shards(2);
      for (const Tenant* tenant : all) {
        shards[static_cast<std::size_t>(nucleus::JumpConsistentHash(
                   nucleus::RouterTenantKey(tenant->name), 2))]
            .push_back(tenant);
      }
      spec_ = {{}, true};
      for (std::size_t b = 0; b < shards.size(); ++b) {
        const std::string manifest =
            dir + "/backend" + std::to_string(b) + ".manifest";
        WriteManifest(manifest, shards[b]);
        spec_.manifests.push_back(manifest);
      }
    } else {
      spec_ = direct_;
    }
    topology = StartTopology(args_, spec_);
  }

  /// One build of every tenant; the sum of their wall times.
  double Build(int threads, Report& report) override {
    double seconds = 0.0;
    for (const Tenant& tenant : tenants_) {
      bool ok = false;
      seconds +=
          TimedBuild(tenant, threads, args_.run_dir + "/build.nucsnap", &ok);
      report.CountOps(1, ok ? 0 : 1);
      if (!ok) report.Fail("build of " + tenant.name + " differs from reference");
    }
    return seconds;
  }

  /// A cold start of the whole topology, answering one read-only line.
  double Load(int /*threads*/, Report& report) override {
    const ConnScript& probe = scripts.back();  // read-only in both
    return TimedColdStart(args_, spec_, probe.lines[0], probe.expected[0],
                          report);
  }

  /// The sum of the serving processes' peak RSS.
  void AddPeakRss(Report& report) const override {
    report.AddValue("peak_rss_mb", "MiB", topology->PeakRssMb());
  }

  /// Detaches the live tenant, which persists the deltas its updates left.
  void EndServing(Report& report) override {
    if (routed_) return;
    const std::string response =
        RoundTrip(topology->entry_port, "detach " + tenants_.front().name);
    report.CountOps(1, 0);
    if (response.find("\"ok\": true") == std::string::npos) {
      report.Fail("detach of the live tenant failed: " + response);
    }
  }

  void Trace(Tracer& tracer, Ledger& ledger, Report& report) override {
    topology.reset();
    // Layer replays use the read-only connections' scripts.
    const std::vector<ConnScript> reads(scripts.begin() + (routed_ ? 0 : 1),
                                        scripts.end());
    std::vector<const Tenant*> readable;
    for (const Tenant& tenant : tenants_) {
      if (!tenant.live) readable.push_back(&tenant);
    }
    PriceServingLayers(args_, readable, reads, direct_,
                       routed_ ? &spec_ : nullptr, tracer, ledger, report);
    if (!routed_) PriceLiveLayer(tracer, ledger, report);
  }

 private:
  /// The live layer priced in-process: LiveUpdater::Apply, the engine
  /// swap (QueryEngine::ApplyUpdate), and the registry's persist-on-detach.
  void PriceLiveLayer(Tracer& tracer, Ledger& ledger, Report& report) const;

  const RunArgs args_;
  const bool routed_;
  std::vector<Tenant> tenants_;
  TopologySpec spec_;    // the workload's own servers
  TopologySpec direct_;  // one server holding every tenant
};

void ServeWorkload::PriceLiveLayer(Tracer& tracer, Ledger& ledger,
                                   Report& report) const {
  const Tenant& live = tenants_.front();
  std::vector<nucleus::EdgeEdit> edits;
  std::string update_lines;
  for (const std::string& line : scripts.front().lines) {
    auto parsed = nucleus::ParseRoutedServeLine(line);
    if (parsed.ok() && parsed->request.is_update) {
      edits.push_back(parsed->request.edit);
      update_lines += line + "\n";
    }
  }
  constexpr int kRounds = 3;  // each round inserts and removes the edge
  auto snapshot = nucleus::LoadSnapshot(live.snapshot_path);
  if (!snapshot.ok()) Die(snapshot.status().ToString());
  auto updater = nucleus::LiveUpdater::Create(live.graph, *snapshot);
  if (!updater.ok()) Die(updater.status().ToString());
  auto engine = nucleus::QueryEngine::FromSnapshotData(std::move(*snapshot));
  std::vector<double> apply_ms;
  std::vector<double> swap_ms;
  std::vector<double> touched;
  const int root = tracer.Begin("serve.live");
  for (int round = 0; round < kRounds; ++round) {
    for (const nucleus::EdgeEdit& edit : edits) {
      nucleus::MutexLock lock((*updater)->apply_mutex());
      nucleus::StatusOr<nucleus::LiveUpdater::Result> result =
          nucleus::Status::Ok();
      apply_ms.push_back(1e3 * tracer.Time("serve.live.apply", root, [&] {
        result = (*updater)->Apply(std::span<const nucleus::EdgeEdit>(&edit, 1));
      }));
      report.CountOps(1, result.ok() && result->changed ? 0 : 1);
      if (!result.ok() || !result->changed) continue;
      touched.push_back(static_cast<double>(result->report.touched.size()));
      swap_ms.push_back(1e3 * tracer.Time("serve.live.swap", root, [&] {
        report.CountOps(1, engine->ApplyUpdate(std::move(result->snapshot)).ok() ? 0 : 1);
      }));
    }
  }
  tracer.End(root);
  ledger["serve.live.apply_ms"] = Median(apply_ms);
  ledger["serve.live.swap_ms"] = Median(swap_ms);
  ledger["serve.live.touched"] = Median(touched);

  // Persist-on-detach, on a copy of the tenant's files.
  const std::string copy = args_.run_dir + "/persist";
  std::filesystem::create_directories(copy);
  nucleus::TenantSpec spec;
  spec.name = live.name;
  spec.snapshot_path = copy + "/live.nucsnap";
  spec.graph_path = copy + "/live.txt";
  std::filesystem::copy_file(live.snapshot_path, spec.snapshot_path);
  std::filesystem::copy_file(live.graph_path, spec.graph_path);
  nucleus::SnapshotRegistry registry;
  if (nucleus::Status s = registry.Attach(spec); !s.ok()) Die(s.ToString());
  std::string text;
  for (int round = 0; round < kRounds; ++round) text += update_lines;
  std::istringstream in(text);
  std::ostringstream out;
  nucleus::ServeRegistryRequests(registry, in, out, nucleus::ServeOptions{});
  std::vector<std::string> persisted;
  nucleus::Status detached = nucleus::Status::Ok();
  ledger["serve.registry.detach_persist_ms"] =
      1e3 * tracer.Time("serve.registry.detach", -1, [&] {
        detached = registry.Detach(spec.name, false, &persisted);
      });
  report.CountOps(1, detached.ok() ? 0 : 1);
  double delta_bytes = 0.0;
  for (const std::string& path : persisted) {
    if (path.find(".nucdelta") != std::string::npos) {
      delta_bytes += static_cast<double>(FileSize(path));
    }
  }
  ledger["store.delta_bytes"] = delta_bytes;
}

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const RunArgs& args) {
  return std::make_unique<ServeWorkload>(args);
}

}  // namespace perfbench

// build-core and build-nucleus34: one seeded graph built into a durable
// snapshot at 1 and 4 threads, every build checked against the serial
// reference, every saved snapshot reopened through the serving open path
// and probed, then served by a `serve --listen --registry` process.
#include <cmath>
#include <memory>
#include <optional>

#include "nucleus/cliques/edge_index.h"
#include "nucleus/cliques/triangle_index.h"
#include "nucleus/core/fast_nucleus.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/core/peeling.h"
#include "nucleus/graph/generators.h"
#include "nucleus/parallel/parallel_fnd.h"
#include "nucleus/parallel/parallel_peel.h"
#include "nucleus/parallel/thread_pool.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_source.h"
#include "workload.h"

namespace perfbench {
namespace {

using nucleus::Family;
using nucleus::QueryEngine;

constexpr std::int64_t kScriptLines = 20000;  // per connection, cycled
constexpr std::int64_t kProbeLines = 256;     // per loaded snapshot

nucleus::Graph MakeGraph(const std::string& workload, std::uint64_t seed) {
  if (workload == "build-core") {
    // RMat scale 18: 262,144 vertices, ~2.33M distinct edges.
    return nucleus::RMat(18, 2'500'000, 0.57, 0.19, 0.19, seed);
  }
  // The stanford3-syn regime (dense planted communities, same p_in and
  // p_out) with 110-vertex blocks instead of 130: about half the K4s, so
  // a run fits twice the builds and its medians see fewer noisy samples.
  return nucleus::PlantedPartition(12, 110, 0.50, 0.008, seed);
}

/// The probe set a reopened snapshot must answer: parsed queries and
/// their expected JSON. Serial and threaded FND number hierarchy nodes
/// differently (the trees are canonically equal), so each thread count
/// has its own expected answers, taken from a reference snapshot of it.
struct Probes {
  std::vector<QueryEngine::Query> queries;
  std::vector<std::string> expected_t1;
  std::vector<std::string> expected_t4;
};

std::vector<std::string> Answers(const std::string& snapshot_path,
                                 const std::vector<QueryEngine::Query>& queries) {
  auto source = nucleus::OpenSnapshotSource(snapshot_path,
                                            nucleus::SnapshotMemoryMode::kHeap);
  if (!source.ok()) Die(source.status().ToString());
  const auto engine = QueryEngine::FromSource(std::move(*source));
  std::vector<std::string> answers;
  for (const QueryEngine::Query& query : queries) {
    answers.push_back(nucleus::ResponseToJson(query, engine->Run(query)));
  }
  return answers;
}

Probes MakeProbes(const Tenant& tenant, const std::string& t4_snapshot,
                  std::uint64_t seed) {
  nucleus::Rng rng(seed * 1000 + 99);
  Probes probes;
  const std::string prefix = tenant.name + ":";
  for (const std::string& line :
       ReadLines(rng, tenant, kProbeLines)) {
    auto query = nucleus::ParseRequestLine(line.substr(prefix.size()));
    if (!query.ok()) Die("bad probe line " + line);
    probes.queries.push_back(*query);
  }
  probes.expected_t1 = Answers(tenant.snapshot_path, probes.queries);
  probes.expected_t4 = Answers(t4_snapshot, probes.queries);
  return probes;
}

/// load_s: the default serving open path (heap source -> engine) plus
/// one answered query; then the rest of the probe set must match.
double TimedLoad(const std::string& path, const Probes& probes, bool serial,
                 Report& report) {
  const std::vector<std::string>& expected =
      serial ? probes.expected_t1 : probes.expected_t4;
  const Clock::time_point start = Clock::now();
  auto source =
      nucleus::OpenSnapshotSource(path, nucleus::SnapshotMemoryMode::kHeap);
  if (!source.ok()) {
    report.CountOps(1, 1);
    return SecondsSince(start);
  }
  const auto engine = QueryEngine::FromSource(std::move(*source));
  const std::string first = nucleus::ResponseToJson(
      probes.queries[0], engine->Run(probes.queries[0]));
  const double seconds = SecondsSince(start);
  std::int64_t wrong = first == expected[0] ? 0 : 1;
  for (std::size_t i = 1; i < probes.queries.size(); ++i) {
    if (nucleus::ResponseToJson(probes.queries[i],
                                engine->Run(probes.queries[i])) !=
        expected[i]) {
      ++wrong;
    }
  }
  report.CountOps(static_cast<std::int64_t>(probes.queries.size()), wrong);
  return seconds;
}

/// The build path, one public call at a time, each call a span: the
/// clique indices, supports, peel, FND, tree, jump tables, snapshot
/// packaging and save. Returns the summed self time of the build-path
/// spans (index + FND + tree + make + save) and checks the result.
double TracedBuild(const Tenant& tenant, int threads,
                   const std::string& path, Tracer& tracer, Ledger& ledger,
                   Report& report) {
  const std::string t = ".t" + std::to_string(threads);
  const nucleus::ParallelConfig config =
      nucleus::ParallelConfig::WithThreads(threads);
  const nucleus::Graph& g = tenant.graph;
  ResetPeakRss();  // as TimedBuild does before every facade build
  const int root = tracer.Begin("build" + t);
  double path_seconds = 0.0;

  nucleus::FndResult fnd;
  std::int64_t num_cliques = 0;
  const auto run_space = [&](const auto& space) {
    num_cliques = space.NumCliques();
    std::vector<std::int32_t> supports;
    const double support = tracer.Time("cliques.support" + t, root, [&] {
      supports = threads > 1 ? nucleus::ComputeSupportsParallel(space, threads)
                             : nucleus::ComputeSupports(space);
    });
    std::int64_t total = 0;
    for (std::int32_t s : supports) total += s;
    const int s = tenant.family == Family::kCore12 ? 2 : 4;
    ledger["cliques.supercliques"] = static_cast<double>(total / s);
    nucleus::PeelResult peel;
    const double peel_s = tracer.Time("core.peel" + t, root, [&] {
      peel = threads > 1 ? nucleus::PeelParallel(space, config)
                         : nucleus::Peel(space);
    });
    // The facade runs FND on the heap state set-up left, not on memory the
    // separate support and peel calls above just freed.
    supports = {};
    peel = {};
    ResetPeakRss();
    const double fnd_s = tracer.Time("core.fnd" + t, root, [&] {
      fnd = threads > 1
                ? nucleus::FastNucleusDecompositionParallel(space, config)
                : nucleus::FastNucleusDecomposition(space);
    });
    ledger["cliques.support_s" + t] = support;
    ledger["core.peel_s" + t] = peel_s;
    ledger["core.peel_self_s" + t] = peel_s - support;
    ledger["core.fnd_s" + t] = fnd_s;
    ledger["core.fnd_post_s" + t] = fnd_s - peel_s;
    path_seconds += fnd_s;
  };

  if (tenant.family == Family::kCore12) {
    run_space(nucleus::VertexSpace(g));
  } else {
    std::optional<nucleus::ThreadPool> pool;
    if (threads > 1) pool.emplace(config);
    const std::int64_t grain = config.ResolvedGrain();
    nucleus::EdgeIndex edges;
    nucleus::TriangleIndex triangles;
    const double edge_s = tracer.Time("cliques.edge_index" + t, root, [&] {
      edges = pool ? nucleus::EdgeIndex::Build(g, *pool, grain)
                   : nucleus::EdgeIndex::Build(g);
    });
    const double triangle_s =
        tracer.Time("cliques.triangle_index" + t, root, [&] {
          triangles = pool ? nucleus::TriangleIndex::Build(g, edges, *pool, grain)
                           : nucleus::TriangleIndex::Build(g, edges);
        });
    pool.reset();
    ledger["cliques.edge_index_s" + t] = edge_s;
    ledger["cliques.triangle_index_s" + t] = triangle_s;
    ledger["cliques.triangles"] = static_cast<double>(triangles.NumTriangles());
    path_seconds += edge_s + triangle_s;
    run_space(nucleus::TriangleSpace(g, edges, triangles));
  }

  nucleus::DecompositionResult result;
  result.num_cliques = num_cliques;
  result.num_subnuclei = fnd.build.num_subnuclei;
  result.num_adj = fnd.num_adj;
  const double tree_s = tracer.Time("core.tree", root, [&] {
    result.hierarchy =
        nucleus::NucleusHierarchy::FromSkeleton(fnd.build, num_cliques);
  });
  result.peel = std::move(fnd.peel);
  std::int32_t levels = 0;
  const double jump_s = tracer.Time("core.jump_tables", root, [&] {
    const nucleus::HierarchyIndex index(result.hierarchy);
    levels = index.Tables().levels;
  });
  const bool lambda_ok = result.peel.lambda == tenant.lambda;
  const bool tree_ok = Canonicalize(result.hierarchy) == tenant.canon;
  nucleus::DecomposeOptions options;
  options.family = tenant.family;
  options.parallel = config;
  ledger["core.max_lambda"] = result.peel.max_lambda;
  ledger["core.subnuclei"] = static_cast<double>(result.num_subnuclei);
  ledger["core.adj"] = static_cast<double>(result.num_adj);
  ledger["core.tree_nodes"] = static_cast<double>(result.hierarchy.NumNodes());
  ledger["core.nodes_per_subnucleus"] =
      static_cast<double>(result.hierarchy.NumNodes()) /
      static_cast<double>(std::max<std::int64_t>(result.num_subnuclei, 1));
  ledger["core.jump_levels"] = levels;
  nucleus::SnapshotData snapshot;
  const double make_s = tracer.Time("store.make", root, [&] {
    snapshot = nucleus::MakeSnapshot(g, options, std::move(result), true);
  });
  nucleus::Status saved;
  const double save_s = tracer.Time("store.save", root, [&] {
    saved = nucleus::SaveSnapshot(snapshot, path);
  });
  bool loaded = false;
  const double load_s = tracer.Time("store.load", root, [&] {
    loaded = nucleus::LoadSnapshot(path).ok();
  });
  tracer.End(root);
  ledger["core.tree_s"] = tree_s;
  ledger["core.jump_tables_s"] = jump_s;
  ledger["store.make_s"] = make_s;
  ledger["store.save_s"] = save_s;
  ledger["store.save_bytes"] = static_cast<double>(FileSize(path));
  ledger["store.load_s"] = load_s;
  const bool ok = lambda_ok && tree_ok && saved.ok() && loaded;
  report.CountOps(1, ok ? 0 : 1);
  if (!ok) report.Fail("traced build at " + std::to_string(threads) +
                       " thread(s) differs from the reference");
  return path_seconds + tree_s + make_s + save_s;
}

/// The accounting check of the traced run: build-path spans against
/// facade builds at 4 threads, this many interleaved pairs.
constexpr int kAccountingPairs = 5;
/// How far the summed build-path spans may be from the facade build.
constexpr double kAccountingTolerance = 0.2;

class BuildWorkload final : public Workload {
 public:
  explicit BuildWorkload(const RunArgs& args)
      : args_(args), build_path_(args.run_dir + "/build.nucsnap") {}

  void SetUp(Report& report) override {
    const std::string& dir = args_.run_dir;
    topology.reset();
    tenant_ = Tenant{};
    tenant_.name = "g";
    tenant_.family = args_.workload == "build-core" ? Family::kCore12
                                                    : Family::kNucleus34;
    tenant_.graph = MakeGraph(args_.workload, args_.seed);
    tenant_.snapshot_path = dir + "/ref.nucsnap";
    ReferenceBuild(&tenant_);
    scripts.assign(kConnections, ConnScript{});
    for (int c = 0; c < kConnections; ++c) {
      nucleus::Rng rng(args_.seed * 1000 + static_cast<std::uint64_t>(c) + 1);
      ConnScript& script = scripts[static_cast<std::size_t>(c)];
      script.lines = ReadLines(rng, tenant_, kScriptLines);
      script.expected = ReferenceReplay({&tenant_}, script.lines, report);
    }
    // The threaded reference: checked against the serial one like every
    // measured build.
    bool ok = false;
    TimedBuild(tenant_, 4, dir + "/ref4.nucsnap", &ok);
    if (!ok) report.Fail("threaded reference build differs from the serial one");
    probes_ = MakeProbes(tenant_, dir + "/ref4.nucsnap", args_.seed);
    manifest_ = dir + "/manifest.txt";
    WriteManifest(manifest_, {&tenant_});
    topology = StartTopology(args_, {{manifest_}, false});
  }

  double Build(int threads, Report& report) override {
    bool ok = false;
    double rss = 0.0;
    const double seconds = TimedBuild(tenant_, threads, build_path_, &ok, &rss);
    if (threads > 1) rss_t4_.push_back(rss);
    report.CountOps(1, ok ? 0 : 1);
    if (!ok) report.Fail("build differs from the serial reference");
    return seconds;
  }

  double Load(int threads, Report& report) override {
    return TimedLoad(build_path_, probes_, threads == 1, report);
  }

  /// The bench process's peak RSS over each 4-thread build (the build
  /// build_t4_s times); 1-thread builds peak lower.
  void AddPeakRss(Report& report) const override {
    report.AddSamples("peak_rss_mb", "MiB", rss_t4_);
  }

  void Trace(Tracer& tracer, Ledger& ledger, Report& report) override {
    TracedBuild(tenant_, 1, build_path_, tracer, ledger, report);
    // The accounting check: the summed self times of the build-path spans
    // at 4 threads against what build_t4_s measures (TimedBuild's seconds),
    // interleaved so that both see the same host; medians of each.
    std::vector<double> path_t4;
    std::vector<double> facade_t4;
    for (int i = 0; i < kAccountingPairs; ++i) {
      path_t4.push_back(
          TracedBuild(tenant_, 4, build_path_, tracer, ledger, report));
      bool ok = false;
      const std::int64_t start_ns = NowNs();
      facade_t4.push_back(TimedBuild(tenant_, 4, build_path_, &ok));
      tracer.Record("build.facade.t4", -1, start_ns, NowNs());
      report.CountOps(1, ok ? 0 : 1);
      if (!ok) report.Fail("facade build differs from the serial reference");
    }
    const double accounted = Median(path_t4) / Median(facade_t4);
    ledger["build.accounted_ratio"] = accounted;
    if (std::abs(accounted - 1.0) > kAccountingTolerance) {
      report.Fail("build-path spans sum to " + std::to_string(accounted) +
                  " of build_t4_s, outside the stated tolerance of +-" +
                  std::to_string(kAccountingTolerance));
    }
    PriceServingLayers(args_, {&tenant_}, scripts, {{manifest_}, false},
                       nullptr, tracer, ledger, report);
  }

 private:
  const RunArgs args_;
  const std::string build_path_;
  Tenant tenant_;
  Probes probes_;
  std::string manifest_;
  std::vector<double> rss_t4_;
};

}  // namespace

std::unique_ptr<Workload> MakeBuildWorkload(const RunArgs& args) {
  return std::make_unique<BuildWorkload>(args);
}

}  // namespace perfbench

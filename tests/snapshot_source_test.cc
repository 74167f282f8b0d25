// SnapshotSource differential suite: a HeapSource (eager LoadSnapshot) and
// an MmapSource over the SAME snapshot file must be indistinguishable to
// clients — every query kind, every graph in the
// zoo, every thread count in {1, 2, 4, 8}, compared response by response
// AND on the serialized protocol bytes. Suites are named MmapSource* so
// the CI TSan job picks them up.
#include "nucleus/store/snapshot_source.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/store/snapshot.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::GraphZoo;
using testing_util::TempPath;

SnapshotData BuildSnapshot(const Graph& g, Family family) {
  DecomposeOptions options;
  options.family = family;
  options.algorithm = Algorithm::kFnd;
  const DecompositionResult result = Decompose(g, options);
  return MakeSnapshot(g, options, result, /*with_index=*/true);
}

/// Every query kind over the whole id space, including out-of-range
/// probes — the error strings must match across sources too.
std::vector<QueryEngine::Query> FullWorkload(std::int64_t num_cliques,
                                             std::int64_t num_nodes,
                                             Lambda max_lambda) {
  std::vector<QueryEngine::Query> workload;
  for (std::int64_t u = 0; u < num_cliques; ++u) {
    workload.push_back({QueryEngine::QueryKind::kLambda, u, 0});
    for (Lambda k = 1; k <= max_lambda; ++k) {
      workload.push_back({QueryEngine::QueryKind::kNucleus, u, k});
    }
    workload.push_back(
        {QueryEngine::QueryKind::kCommon, u, (u + 1) % num_cliques});
    workload.push_back(
        {QueryEngine::QueryKind::kLevel, u, (u * 7 + 3) % num_cliques});
  }
  for (std::int64_t node = 0; node < num_nodes; ++node) {
    workload.push_back({QueryEngine::QueryKind::kMembers, node, 0});
  }
  workload.push_back({QueryEngine::QueryKind::kTop, num_nodes + 1, 0});
  workload.push_back({QueryEngine::QueryKind::kLambda, num_cliques, 0});
  workload.push_back({QueryEngine::QueryKind::kMembers, -1, 0});
  return workload;
}

void ExpectResponsesEqual(const QueryEngine::Response& a,
                          const QueryEngine::Response& b) {
  ASSERT_EQ(a.status.ok(), b.status.ok());
  EXPECT_EQ(a.status.message(), b.status.message());
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.nucleus.node, b.nucleus.node);
  EXPECT_EQ(a.nucleus.k, b.nucleus.k);
  EXPECT_EQ(a.nucleus.size, b.nucleus.size);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].node, b.top[i].node);
    EXPECT_EQ(a.top[i].k, b.top[i].k);
    EXPECT_EQ(a.top[i].size, b.top[i].size);
  }
  ASSERT_EQ(a.members == nullptr, b.members == nullptr);
  if (a.members != nullptr) EXPECT_EQ(*a.members, *b.members);
}

class MmapSourceZooTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(MmapSourceZooTest, HeapAndMmapAnswerByteIdenticallyAtAllThreadCounts) {
  const Graph g = GetParam().make();
  const SnapshotData snapshot = BuildSnapshot(g, Family::kTruss23);
  const std::string path = TempPath("diff_" + GetParam().name + ".nucsnap");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());

  auto heap_source = OpenSnapshotSource(path, SnapshotMemoryMode::kHeap);
  ASSERT_TRUE(heap_source.ok()) << heap_source.status().ToString();
  auto mmap_source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(mmap_source.ok()) << mmap_source.status().ToString();
  EXPECT_EQ((*heap_source)->MappedBytes(), 0);
  EXPECT_GT((*mmap_source)->MappedBytes(), 0);

  const std::unique_ptr<QueryEngine> heap_engine =
      QueryEngine::FromSource(std::move(*heap_source));
  const std::unique_ptr<QueryEngine> mmap_engine =
      QueryEngine::FromSource(std::move(*mmap_source));
  EXPECT_EQ(heap_engine->NumCliques(), mmap_engine->NumCliques());
  EXPECT_EQ(heap_engine->NumNodes(), mmap_engine->NumNodes());
  EXPECT_EQ(heap_engine->NumNuclei(), mmap_engine->NumNuclei());

  const auto workload =
      FullWorkload(heap_engine->NumCliques(), heap_engine->NumNodes(),
                   heap_engine->meta().max_lambda);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const auto heap_responses = heap_engine->RunBatch(workload, pool);
    const auto mmap_responses = mmap_engine->RunBatch(workload, pool);
    ASSERT_EQ(heap_responses.size(), mmap_responses.size());
    for (std::size_t i = 0; i < workload.size(); ++i) {
      ExpectResponsesEqual(heap_responses[i], mmap_responses[i]);
    }
    // The serialized protocol answers — what a client actually reads off
    // the wire — are byte-identical too.
    for (std::size_t i = 0; i < workload.size(); i += 7) {
      EXPECT_EQ(ResponseToJson(workload[i], heap_responses[i]),
                ResponseToJson(workload[i], mmap_responses[i]));
    }
  }

  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Zoo, MmapSourceZooTest,
                         ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

TEST(MmapSource, ZeroCopyFootprintIsSmallerThanHeap) {
  // Large enough that the heap source's materialized arrays dwarf the
  // mapped source's fixed bookkeeping overhead.
  const Graph g = ErdosRenyiGnp(400, 0.05, 11);
  const SnapshotData snapshot = BuildSnapshot(g, Family::kCore12);
  const std::string path = TempPath("foot.nucsnap");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());

  auto heap_source = OpenSnapshotSource(path, SnapshotMemoryMode::kHeap);
  auto mmap_source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(heap_source.ok());
  ASSERT_TRUE(mmap_source.ok());

  // The mapped view owns no materialized arrays: its heap charge must be
  // a small fraction of the fully rebuilt snapshot's.
  EXPECT_GT((*heap_source)->HeapBytes(), 0);
  EXPECT_LT((*mmap_source)->HeapBytes(), (*heap_source)->HeapBytes() / 4);

  // Both sources materialize identical sorted member lists.
  for (std::int32_t node = 0; node < (*heap_source)->NumNodes(); ++node) {
    EXPECT_EQ((*heap_source)->MaterializeMembers(node),
              (*mmap_source)->MaterializeMembers(node))
        << "node " << node;
    EXPECT_EQ((*heap_source)->SubtreeSize(node),
              (*mmap_source)->SubtreeSize(node))
        << "node " << node;
  }
  std::remove(path.c_str());
}

TEST(MmapSource, MetaAndViewsMatchHeapSource) {
  const Graph g = testing_util::PaperFigure2Graph();
  const SnapshotData snapshot = BuildSnapshot(g, Family::kCore12);
  const std::string path = TempPath("meta.nucsnap");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());

  auto heap_source = OpenSnapshotSource(path, SnapshotMemoryMode::kHeap);
  auto mmap_source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(heap_source.ok());
  ASSERT_TRUE(mmap_source.ok());
  ASSERT_TRUE((*mmap_source)->Ensure(kNeedLookup | kNeedIndex | kNeedSizes |
                                     kNeedMembers | kNeedRanking)
                  .ok());

  const SnapshotMeta& a = (*heap_source)->meta();
  const SnapshotMeta& b = (*mmap_source)->meta();
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.num_vertices, b.num_vertices);
  EXPECT_EQ(a.num_edges, b.num_edges);
  EXPECT_EQ(a.graph_fingerprint, b.graph_fingerprint);
  EXPECT_EQ(a.num_cliques, b.num_cliques);
  EXPECT_EQ(a.max_lambda, b.max_lambda);

  const SourceView va = MakeSourceView(**heap_source);
  const SourceView vb = MakeSourceView(**mmap_source);
  ASSERT_EQ(va.node_lambda.size(), vb.node_lambda.size());
  ASSERT_EQ(va.up.size(), vb.up.size());
  EXPECT_EQ(va.levels, vb.levels);
  for (std::size_t i = 0; i < va.node_lambda.size(); ++i) {
    EXPECT_EQ(va.node_lambda[i], vb.node_lambda[i]);
    EXPECT_EQ(va.node_parent[i], vb.node_parent[i]);
    EXPECT_EQ(va.depth[i], vb.depth[i]);
  }
  for (std::size_t i = 0; i < va.up.size(); ++i) {
    EXPECT_EQ(va.up[i], vb.up[i]);
  }
  ASSERT_EQ(va.ranking.size(), vb.ranking.size());
  for (std::size_t i = 0; i < va.ranking.size(); ++i) {
    EXPECT_EQ(va.ranking[i], vb.ranking[i]);
  }
  std::remove(path.c_str());
}

TEST(HeapSource, ServesTheSnapshotsOwnIndexTables) {
  // The jump tables are held once: the views alias the wrapped snapshot's
  // tables (built into it when the snapshot arrives without them), and the
  // heap charge is the same either way.
  const Graph g = ErdosRenyiGnp(120, 0.06, 5);
  std::int64_t heap_bytes[2] = {0, 0};
  for (const bool with_index : {true, false}) {
    SCOPED_TRACE(with_index);
    DecomposeOptions options;
    options.family = Family::kCore12;
    const HeapSource source(
        MakeSnapshot(g, options, Decompose(g, options), with_index));
    const HierarchyIndexTables& tables = source.snapshot().index_tables;
    ASSERT_TRUE(source.snapshot().has_index);
    ASSERT_FALSE(tables.up.empty());
    EXPECT_EQ(source.UpTable().data(), tables.up.data());
    EXPECT_EQ(source.Depths().data(), tables.depth.data());
    EXPECT_EQ(source.IndexLevels(), tables.levels);
    heap_bytes[with_index ? 1 : 0] = source.HeapBytes();
  }
  EXPECT_EQ(heap_bytes[0], heap_bytes[1]);
}

}  // namespace
}  // namespace nucleus

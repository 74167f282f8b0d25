#include "nucleus/store/snapshot.h"

#include <utility>
#include <vector>

#include "nucleus/store/record_io.h"

namespace nucleus {

using store_internal::Fnv1a;

std::uint64_t GraphFingerprint(const Graph& g) {
  std::uint64_t hash = store_internal::kFnvOffset;
  const std::int64_t n = g.NumVertices();
  hash = Fnv1a(hash, &n, sizeof(n));
  for (VertexId v = 0; v < n; ++v) {
    const std::int64_t offset = g.AdjOffset(v);
    hash = Fnv1a(hash, &offset, sizeof(offset));
  }
  const std::vector<VertexId>& adj = g.AdjArray();
  if (!adj.empty()) {
    hash = Fnv1a(hash, adj.data(), adj.size() * sizeof(VertexId));
  }
  return hash;
}

SnapshotData MakeSnapshot(const Graph& g, const DecomposeOptions& options,
                          const DecompositionResult& result, bool with_index) {
  DecompositionResult copy;
  copy.num_cliques = result.num_cliques;
  copy.peel = result.peel;
  copy.hierarchy = result.hierarchy;
  return MakeSnapshot(g, options, std::move(copy), with_index);
}

SnapshotData MakeSnapshot(const Graph& g, const DecomposeOptions& options,
                          DecompositionResult&& result, bool with_index) {
  NUCLEUS_CHECK_MSG(result.hierarchy.NumNodes() >= 1,
                    "snapshot requires a built hierarchy (build_tree)");
  NUCLEUS_CHECK(result.hierarchy.NumCliques() == result.num_cliques);
  SnapshotData snapshot;
  snapshot.meta.family = options.family;
  snapshot.meta.algorithm = options.algorithm;
  snapshot.meta.num_vertices = g.NumVertices();
  snapshot.meta.num_edges = g.NumEdges();
  snapshot.meta.graph_fingerprint = GraphFingerprint(g);
  snapshot.meta.num_cliques = result.num_cliques;
  snapshot.meta.max_lambda = result.peel.max_lambda;
  snapshot.peel = std::move(result.peel);
  snapshot.hierarchy = std::move(result.hierarchy);
  snapshot.has_index = with_index;
  if (with_index) {
    snapshot.index_tables = HierarchyIndex(snapshot.hierarchy).Tables();
  }
  return snapshot;
}

}  // namespace nucleus

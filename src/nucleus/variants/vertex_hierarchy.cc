#include "nucleus/variants/vertex_hierarchy.h"

#include <algorithm>

#include "nucleus/core/spaces.h"
#include "nucleus/parallel/parallel_fnd.h"
#include "nucleus/parallel/thread_pool.h"

namespace nucleus {
namespace {

/// Dense rank of `label`: 0 for label <= 0, else 1 + index in the sorted
/// distinct positive labels.
Lambda RankOf(const std::vector<std::int64_t>& distinct, std::int64_t label) {
  if (label <= 0) return 0;
  const auto it = std::lower_bound(distinct.begin(), distinct.end(), label);
  NUCLEUS_CHECK(it != distinct.end() && *it == label);
  return static_cast<Lambda>(it - distinct.begin()) + 1;
}

}  // namespace

LabeledSkeleton BuildVertexHierarchy(const Graph& g,
                                     const std::vector<std::int64_t>& labels) {
  const VertexId n = g.NumVertices();
  NUCLEUS_CHECK(static_cast<std::int64_t>(labels.size()) == n);

  LabeledSkeleton out;
  out.distinct_labels.reserve(labels.size());
  for (std::int64_t l : labels) {
    if (l > 0) out.distinct_labels.push_back(l);
  }
  std::sort(out.distinct_labels.begin(), out.distinct_labels.end());
  out.distinct_labels.erase(
      std::unique(out.distinct_labels.begin(), out.distinct_labels.end()),
      out.distinct_labels.end());
  out.vertex_rank.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    out.vertex_rank[v] = RankOf(out.distinct_labels, labels[v]);
  }

  // The ranks are a vertex-level lambda: parallel FND's detection and
  // Alg. 9 stage builds the skeleton, serially on a 1-lane pool.
  ThreadPool pool(1);
  out.build = SkeletonFromLambda(
      VertexSpace(g), out.vertex_rank,
      static_cast<Lambda>(out.distinct_labels.size()), pool,
      ParallelConfig::kDefaultGrain);

  out.node_label.assign(out.build.skeleton.NumNodes(), 0);
  for (VertexId v = 0; v < n; ++v) {
    out.node_label[out.build.comp[v]] = std::max<std::int64_t>(labels[v], 0);
  }
  return out;
}

NucleusHierarchy LabeledHierarchyTree(const Graph& g,
                                      const LabeledSkeleton& skeleton) {
  return NucleusHierarchy::FromSkeleton(skeleton.build, g.NumVertices());
}

}  // namespace nucleus

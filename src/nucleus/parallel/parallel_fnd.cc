#include "nucleus/parallel/parallel_fnd.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "nucleus/dsf/concurrent_dsf.h"
#include "nucleus/parallel/parallel_peel.h"
#include "nucleus/parallel/thread_pool.h"
#include "nucleus/util/timer.h"

namespace nucleus {

template <typename Space>
SkeletonBuild SkeletonFromLambda(const Space& space,
                                 const std::vector<Lambda>& lambda,
                                 Lambda max_lambda, ThreadPool& pool,
                                 std::int64_t grain, std::int64_t* num_adj) {
  const std::int64_t n = space.NumCliques();

  // Concurrent sub-nucleus detection. Each superclique is visited once per
  // member; only the minimum-id member (the owner) processes it, so every
  // K_s contributes exactly once regardless of scheduling. ADJ pairs are
  // recorded as K_r-level (member, anchor) pairs per CHUNK — chunk
  // boundaries are pure functions of the grain, so the buffers concatenate
  // into the same ascending-owner order for every thread count.
  ConcurrentDisjointSet dsf(n);
  const std::int64_t num_chunks = n > 0 ? (n + grain - 1) / grain : 0;
  std::vector<std::vector<std::pair<CliqueId, CliqueId>>> chunk_adj(
      num_chunks);
  pool.ParallelFor(n, grain, [&](int, std::int64_t begin, std::int64_t end) {
    std::vector<std::pair<CliqueId, CliqueId>>& adj = chunk_adj[begin / grain];
    for (CliqueId u = static_cast<CliqueId>(begin); u < end; ++u) {
      space.ForEachSuperclique(u, [&](const CliqueId* members, int count) {
        CliqueId owner = members[0];
        Lambda min_lambda = lambda[members[0]];
        for (int i = 1; i < count; ++i) {
          owner = std::min(owner, members[i]);
          min_lambda = std::min(min_lambda, lambda[members[i]]);
        }
        if (owner != u) return;
        // The anchor is the minimum-id member at the superclique's minimum
        // lambda: all such members form one strongly connected sub-nucleus
        // piece (Alg. 8 line 15), and higher-lambda members connect to it
        // (Alg. 8 line 17).
        CliqueId anchor = kInvalidId;
        for (int i = 0; i < count; ++i) {
          const CliqueId m = members[i];
          if (lambda[m] == min_lambda && (anchor == kInvalidId || m < anchor)) {
            anchor = m;
          }
        }
        for (int i = 0; i < count; ++i) {
          const CliqueId m = members[i];
          if (lambda[m] == min_lambda) {
            if (m != anchor) dsf.Union(anchor, m);
          } else {
            adj.emplace_back(m, anchor);
          }
        }
      });
    }
  });

  SkeletonBuild build;
  internal::NumberSubnuclei(
      lambda, [&dsf](std::int32_t u) { return dsf.Find(u); }, &build);

  // Deterministic merge of the per-chunk ADJ buffers, resolved to skeleton
  // node ids.
  std::int64_t total_adj = 0;
  for (const auto& chunk : chunk_adj) {
    total_adj += static_cast<std::int64_t>(chunk.size());
  }
  std::vector<std::pair<std::int32_t, std::int32_t>> adj;
  adj.reserve(total_adj);
  for (const auto& chunk : chunk_adj) {
    for (const auto& [member, anchor] : chunk) {
      adj.emplace_back(build.comp[member], build.comp[anchor]);
    }
  }
  if (num_adj != nullptr) *num_adj = total_adj;

  internal::BuildHierarchy(adj, max_lambda, &build.skeleton);
  internal::CloseSkeleton(&build);
  return build;
}

template <typename Space>
FndResult FastNucleusDecompositionParallel(const Space& space,
                                           const ParallelConfig& config) {
  FndResult result;
  ThreadPool pool(config);
  const std::int64_t grain = config.ResolvedGrain();

  Timer timer;
  result.peel = PeelParallel(space, pool, grain);
  result.peel_seconds = timer.Seconds();
  timer.Restart();
  result.build = SkeletonFromLambda(space, result.peel.lambda,
                                    result.peel.max_lambda, pool, grain,
                                    &result.num_adj);
  result.build_seconds = timer.Seconds();
  return result;
}

// For the label-driven builder (variants/vertex_hierarchy.cc).
template SkeletonBuild SkeletonFromLambda<VertexSpace>(
    const VertexSpace&, const std::vector<Lambda>&, Lambda, ThreadPool&,
    std::int64_t, std::int64_t*);
template FndResult FastNucleusDecompositionParallel<VertexSpace>(
    const VertexSpace&, const ParallelConfig&);
template FndResult FastNucleusDecompositionParallel<EdgeSpace>(
    const EdgeSpace&, const ParallelConfig&);
template FndResult FastNucleusDecompositionParallel<TriangleSpace>(
    const TriangleSpace&, const ParallelConfig&);
template FndResult FastNucleusDecompositionParallel<GenericSpace>(
    const GenericSpace&, const ParallelConfig&);

}  // namespace nucleus

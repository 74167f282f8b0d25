#include "nucleus/core/fast_nucleus.h"

namespace nucleus {
namespace internal {

void BuildHierarchy(
    const std::vector<std::pair<std::int32_t, std::int32_t>>& adj,
    Lambda max_lambda, HierarchySkeleton* skeleton) {
  // Bin pairs by the lambda of the lower side (counting sort).
  std::vector<std::int64_t> bin(max_lambda + 2, 0);
  for (const auto& [s, t] : adj) ++bin[skeleton->LambdaOf(t) + 1];
  for (Lambda l = 0; l <= max_lambda; ++l) bin[l + 1] += bin[l];
  std::vector<std::int32_t> binned_s(adj.size());
  std::vector<std::int32_t> binned_t(adj.size());
  {
    std::vector<std::int64_t> fill(bin.begin(), bin.end() - 1);
    for (const auto& [s, t] : adj) {
      const std::int64_t p = fill[skeleton->LambdaOf(t)]++;
      binned_s[p] = s;
      binned_t[p] = t;
    }
  }

  std::vector<std::pair<std::int32_t, std::int32_t>> merge;
  for (Lambda level = max_lambda; level >= 0; --level) {
    AssembleBin(
        level,
        [&](auto&& visit) {
          for (std::int64_t i = bin[level]; i < bin[level + 1]; ++i) {
            visit(binned_s[i], binned_t[i]);
          }
        },
        &merge, skeleton);
  }
}

void CloseSkeleton(SkeletonBuild* build) {
  HierarchySkeleton& skeleton = build->skeleton;
  build->num_subnuclei = skeleton.NumNodes();
  build->root_id = skeleton.AddNode(kRootLambda);
  for (std::int32_t s = 0; s < build->root_id; ++s) {
    if (!skeleton.HasParent(s)) skeleton.SetParent(s, build->root_id);
  }
}

}  // namespace internal

template FndPeelState FastNucleusPeel<VertexSpace>(const VertexSpace&);
template FndPeelState FastNucleusPeel<EdgeSpace>(const EdgeSpace&);
template FndPeelState FastNucleusPeel<TriangleSpace>(const TriangleSpace&);
template FndResult FastNucleusDecomposition<VertexSpace>(const VertexSpace&);
template FndResult FastNucleusDecomposition<EdgeSpace>(const EdgeSpace&);
template FndResult FastNucleusDecomposition<TriangleSpace>(const TriangleSpace&);

}  // namespace nucleus

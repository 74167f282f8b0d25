// Hierarchy construction for ANY vertex-level decomposition.
//
// The paper's Section 3.1 observes that the threshold-based k-core
// adaptations in the literature — weighted (Giatsidis), probabilistic
// (Bonchi), temporal (Wu) — "adapt/improve the peeling part ... not the
// entire k-core decomposition which also needs traversal to locate all the
// (connected) k-cores". Every one of those variants assigns each vertex a
// scalar label lambda(v) (weighted core number, (k,eta)-core number, ...)
// such that the variant's "k-cores" are the connected components of the
// subgraphs induced on {v : lambda(v) >= t}. That is exactly the structure
// the paper's disjoint-set machinery organizes, so one label-driven builder
// closes the gap for all of them at once: it runs parallel FND's
// detection-plus-Alg. 9 stage (SkeletonFromLambda, parallel/parallel_fnd.h)
// on the vertex space with the label ranks as lambda:
//
//   1. union equal-rank edge endpoints   -> maximal sub-nuclei T
//   2. record rank-crossing edges        -> ADJ pairs
//   3. binned Alg. 9 (core/fast_nucleus) -> hierarchy-skeleton
//
// Labels may be any int64 (weighted degrees can exceed 2^31); they are
// mapped to dense ranks for the skeleton, with rank 0 reserved for labels
// <= 0 so the "lambda >= 1 means a real nucleus" convention of
// NucleusHierarchy carries over unchanged.
#ifndef NUCLEUS_VARIANTS_VERTEX_HIERARCHY_H_
#define NUCLEUS_VARIANTS_VERTEX_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "nucleus/core/hierarchy.h"
#include "nucleus/core/types.h"
#include "nucleus/graph/graph.h"

namespace nucleus {

/// A hierarchy-skeleton over arbitrary vertex labels. `build` is the
/// standard SkeletonBuild (node lambdas are dense label ranks);
/// `node_label` translates each skeleton node back to the original label.
struct LabeledSkeleton {
  SkeletonBuild build;
  /// Original label of each skeleton node (kRootLambda node excluded; its
  /// entry is 0). Indexed by skeleton node id.
  std::vector<std::int64_t> node_label;
  /// Sorted distinct positive labels; rank r >= 1 corresponds to
  /// distinct_labels[r - 1].
  std::vector<std::int64_t> distinct_labels;
  /// Dense rank of each vertex's label (0 for labels <= 0) — the lambda
  /// vector in the canonical tree's terms (NucleusHierarchy::Validate).
  std::vector<Lambda> vertex_rank;
};

/// Builds the containment hierarchy of the decomposition whose "cores" are
/// the connected components of {v : label(v) >= t}. `labels` has one entry
/// per vertex; non-positive labels mean "in no core" (rank 0).
LabeledSkeleton BuildVertexHierarchy(const Graph& g,
                                     const std::vector<std::int64_t>& labels);

/// Convenience: the canonical NucleusHierarchy of a labeled skeleton.
NucleusHierarchy LabeledHierarchyTree(const Graph& g,
                                      const LabeledSkeleton& skeleton);

}  // namespace nucleus

#endif  // NUCLEUS_VARIANTS_VERTEX_HIERARCHY_H_

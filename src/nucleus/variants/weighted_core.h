// Weighted k-core decomposition (Giatsidis et al., "Evaluating cooperation
// in communities with the k-core structure") WITH the connected-core
// hierarchy the paper's Section 3.1 points out that work leaves open.
//
// A weighted k-core is a maximal connected subgraph in which every vertex's
// weighted degree — the sum of its incident edge weights inside the
// subgraph — is at least k. The weighted core number lambda_w(v) is the
// largest k whose weighted k-core contains v. Peeling follows the
// Batagelj-Zaversnik generalized-core schema: repeatedly remove the vertex
// of minimum weighted degree; the running maximum of removal values is
// lambda_w (the vertex property "weighted degree" is monotone under vertex
// deletion, which is all the schema requires).
//
// Hierarchy: the weighted k-cores are the connected components of
// {v : lambda_w(v) >= k}, so BuildVertexHierarchy (parallel FND's
// detection plus the shared Alg. 9 assembler, run on label ranks) produces
// the full containment tree.
#ifndef NUCLEUS_VARIANTS_WEIGHTED_CORE_H_
#define NUCLEUS_VARIANTS_WEIGHTED_CORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nucleus/graph/graph.h"
#include "nucleus/util/common.h"
#include "nucleus/variants/vertex_hierarchy.h"

namespace nucleus {

/// One undirected weighted edge. Weights must be positive.
struct WeightedEdge {
  VertexId u = 0;
  VertexId v = 0;
  std::int64_t weight = 1;
};

/// Immutable undirected weighted simple graph: a Graph plus a weight array
/// aligned entry-for-entry with the CSR adjacency.
class WeightedGraph {
 public:
  /// Builds from an edge list. Self-loops are rejected; duplicate (u, v)
  /// pairs have their weights summed. Aborts on non-positive weights or
  /// out-of-range endpoints (programming errors, not data errors).
  static WeightedGraph FromEdges(VertexId num_vertices,
                                 std::vector<WeightedEdge> edges);

  /// Every edge of `g` with the same weight `w`.
  static WeightedGraph UniformWeights(const Graph& g, std::int64_t w);

  const Graph& graph() const { return graph_; }
  VertexId NumVertices() const { return graph_.NumVertices(); }
  std::int64_t NumEdges() const { return graph_.NumEdges(); }

  /// Weights aligned with graph().Neighbors(v).
  std::span<const std::int64_t> WeightsOf(VertexId v) const {
    return {weights_.data() + graph_.AdjOffset(v),
            static_cast<std::size_t>(graph_.Degree(v))};
  }

  /// Sum of v's incident edge weights.
  std::int64_t WeightedDegree(VertexId v) const;

 private:
  WeightedGraph(Graph graph, std::vector<std::int64_t> weights)
      : graph_(std::move(graph)), weights_(std::move(weights)) {}

  Graph graph_;
  std::vector<std::int64_t> weights_;  // aligned with graph_.AdjArray()
};

/// Weighted core numbers lambda_w of every vertex.
struct WeightedCoreResult {
  std::vector<std::int64_t> lambda;
  std::int64_t max_lambda = 0;
};

WeightedCoreResult WeightedCoreNumbers(const WeightedGraph& wg);

/// Core numbers plus the full connected-core hierarchy.
struct WeightedCoreDecomposition {
  WeightedCoreResult core;
  LabeledSkeleton skeleton;
};

WeightedCoreDecomposition DecomposeWeightedCore(const WeightedGraph& wg);

}  // namespace nucleus

#endif  // NUCLEUS_VARIANTS_WEIGHTED_CORE_H_

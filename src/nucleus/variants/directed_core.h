// D-core ((k, l)-core) decomposition of directed graphs (Giatsidis et al.,
// "D-cores: measuring collaboration of directed graphs based on
// degeneracy") WITH an explicit connectivity/hierarchy semantic.
//
// A (k, l)-D-core is a maximal subgraph in which every vertex has in-degree
// >= k and out-degree >= l. The paper's Section 3.1 singles this variant
// out: "connectedness definition is semantically unclear for ... the
// directed graph core decomposition [18]. It is only defined that in- and
// out-degrees can be considered to find two lambda values, but traversal
// semantic is not defined for finding subgraphs or constructing the
// hierarchy."
//
// We make the choice the paper hints at and document it: for a FIXED k,
// the out-number l_k(v) (the largest l with v in the (k, l)-core) is a
// scalar vertex label, the (k, l)-cores are the WEAKLY connected components
// of {v : l_k(v) >= l} — arcs used without direction for connectivity —
// and BuildVertexHierarchy (the shared Alg. 9 assembler on label ranks)
// produces the l-hierarchy. Sweeping k gives the
// D-core matrix.
#ifndef NUCLEUS_VARIANTS_DIRECTED_CORE_H_
#define NUCLEUS_VARIANTS_DIRECTED_CORE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "nucleus/graph/graph.h"
#include "nucleus/util/common.h"
#include "nucleus/variants/vertex_hierarchy.h"

namespace nucleus {

/// Immutable directed simple graph in dual-CSR form (out- and in-adjacency).
class DirectedGraph {
 public:
  /// Builds from an arc list. Self-loops and duplicate arcs are dropped;
  /// (u, v) and (v, u) are distinct arcs. Aborts on out-of-range endpoints.
  static DirectedGraph FromArcs(
      VertexId num_vertices, std::vector<std::pair<VertexId, VertexId>> arcs);

  VertexId NumVertices() const {
    return static_cast<VertexId>(out_offsets_.size()) - 1;
  }
  std::int64_t NumArcs() const {
    return static_cast<std::int64_t>(out_adj_.size());
  }

  std::int64_t OutDegree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  std::int64_t InDegree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {out_adj_.data() + out_offsets_[v],
            static_cast<std::size_t>(OutDegree(v))};
  }
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return {in_adj_.data() + in_offsets_[v],
            static_cast<std::size_t>(InDegree(v))};
  }

  /// The undirected simple view (arc directions dropped, reciprocal arcs
  /// coalesced) — the connectivity substrate of the hierarchy.
  Graph Underlying() const;

 private:
  std::vector<std::int64_t> out_offsets_, in_offsets_;
  std::vector<VertexId> out_adj_, in_adj_;
};

/// Membership of the (k, l)-D-core: pruning to the in>=k, out>=l fixpoint.
std::vector<char> DCoreMembership(const DirectedGraph& dg, std::int32_t k,
                                  std::int32_t l);

/// Out-numbers at fixed k: out[v] = largest l such that v is in the
/// (k, l)-core, or -1 if v is not even in the (k, 0)-core.
std::vector<std::int32_t> DCoreOutNumbers(const DirectedGraph& dg,
                                          std::int32_t k);

/// The D-core matrix: rows[k][v] = out-number of v at in-threshold k, for
/// k = 0..max_k (max_k = the largest k with a non-empty (k, 0)-core).
struct DCoreMatrix {
  std::vector<std::vector<std::int32_t>> rows;
  std::int32_t max_k = 0;
};

DCoreMatrix ComputeDCoreMatrix(const DirectedGraph& dg);

/// l-hierarchy at fixed k over weak connectivity. Vertex labels passed to
/// the builder are out-number + 1, so rank 0 = "not in the (k, 0)-core"
/// and a node with label L represents the (k, L-1)-core level.
struct DCoreHierarchy {
  std::vector<std::int32_t> out_numbers;
  LabeledSkeleton skeleton;  // node_label entries are out-number + 1
};

DCoreHierarchy DecomposeDCore(const DirectedGraph& dg, std::int32_t k);

}  // namespace nucleus

#endif  // NUCLEUS_VARIANTS_DIRECTED_CORE_H_

// Constant-ish-time queries over a NucleusHierarchy — the downstream
// payoff of building the hierarchy at all: once the tree exists, the
// community-search questions that Huang et al.'s TCP index answers with
// per-query traversal become ancestor lookups.
//
//   * NucleusAtLevel(u, k): the node of the k-(r,s) nucleus containing the
//     K_r u — Corollary 2's object, located without any traversal as the
//     highest ancestor of u's node whose lambda is still >= k (binary
//     lifting, O(log depth)).
//   * SmallestCommonNucleus(u, v): the densest nucleus containing both
//     K_r's — the lowest common ancestor of their nodes.
//
// The index is immutable and holds a pointer to the hierarchy it was built
// from; the hierarchy must outlive it.
#ifndef NUCLEUS_CORE_HIERARCHY_INDEX_H_
#define NUCLEUS_CORE_HIERARCHY_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "nucleus/core/hierarchy.h"
#include "nucleus/util/common.h"

namespace nucleus {

/// The index's precomputed state in serializable form (store/snapshot.h
/// persists these so a snapshot load skips the O(nodes * log depth) build).
struct HierarchyIndexTables {
  std::vector<std::int32_t> depth;  // per node, root = 0
  std::vector<std::int32_t> up;     // levels x num_nodes, row-major
  std::int32_t levels = 0;
};

/// Binary lifting over tables in HierarchyIndexTables' layout: the one
/// implementation behind HierarchyIndex and the serving tier's SourceView.
/// Inline so query hot paths pay no call; `lambda_of(node)` reads lambda.
struct JumpTableView {
  std::span<const std::int32_t> depth;  // per node, root = 0
  std::span<const std::int32_t> up;     // levels x depth.size(), row-major
  std::int32_t levels = 0;

  std::int32_t Up(std::int32_t j, std::int32_t x) const {
    return up[static_cast<std::size_t>(j) * depth.size() + x];
  }

  std::int32_t Lca(std::int32_t a, std::int32_t b) const {
    if (depth[a] < depth[b]) std::swap(a, b);
    // Lift a to b's depth.
    std::int32_t diff = depth[a] - depth[b];
    for (std::int32_t j = 0; diff != 0; ++j, diff >>= 1) {
      if (diff & 1) a = Up(j, a);
    }
    if (a == b) return a;
    for (std::int32_t j = levels - 1; j >= 0; --j) {
      if (Up(j, a) != Up(j, b)) {
        a = Up(j, a);
        b = Up(j, b);
      }
    }
    return Up(0, a);
  }

  /// The highest ancestor of node x whose lambda is still >= k, or
  /// kInvalidId when lambda(x) < k.
  template <typename NodeLambda>
  std::int32_t NucleusAtLevel(std::int32_t x, Lambda k,
                              NodeLambda lambda_of) const {
    if (lambda_of(x) < k) return kInvalidId;
    for (std::int32_t j = levels - 1; j >= 0; --j) {
      const std::int32_t anc = Up(j, x);
      if (anc != kInvalidId && lambda_of(anc) >= k) x = anc;
    }
    return x;
  }

  /// The LCA of a and b, or kInvalidId when it is not a nucleus (lambda
  /// < 1, e.g. the artificial root).
  template <typename NodeLambda>
  std::int32_t SmallestCommonNucleus(std::int32_t a, std::int32_t b,
                                     NodeLambda lambda_of) const {
    const std::int32_t lca = Lca(a, b);
    return lambda_of(lca) < 1 ? kInvalidId : lca;
  }
};

class HierarchyIndex {
 public:
  /// Builds jump tables in O(nodes * log depth).
  explicit HierarchyIndex(const NucleusHierarchy& hierarchy);

  /// Adopts tables previously produced by Tables() for an identical
  /// hierarchy (the snapshot load path). Shape mismatches abort; semantic
  /// validation of untrusted tables happens in the snapshot reader.
  HierarchyIndex(const NucleusHierarchy& hierarchy,
                 HierarchyIndexTables tables);

  /// Copies the precomputed state for serialization. A HierarchyIndex
  /// rebuilt from these tables answers queries identically.
  HierarchyIndexTables Tables() const { return {depth_, up_, levels_}; }

  /// Depth of a node (root = 0).
  std::int32_t Depth(std::int32_t node) const { return depth_[node]; }

  /// Lowest common ancestor of two nodes.
  std::int32_t Lca(std::int32_t a, std::int32_t b) const;

  /// Node of the k-(r,s) nucleus containing the K_r u: the highest
  /// ancestor of u's node with lambda >= k. Returns kInvalidId when
  /// lambda(u) < k (u is in no k-nucleus). Requires k >= 1.
  std::int32_t NucleusAtLevel(CliqueId u, Lambda k) const;

  /// The densest nucleus containing both u and v: their nodes' LCA.
  /// Returns kInvalidId when the only common ancestor is the artificial
  /// root (the K_r's share no nucleus).
  std::int32_t SmallestCommonNucleus(CliqueId u, CliqueId v) const;

  /// Largest k such that u and v are in a common k-(r,s) nucleus, or 0.
  Lambda CommonNucleusLevel(CliqueId u, CliqueId v) const;

 private:
  const NucleusHierarchy* hierarchy_;
  std::vector<std::int32_t> depth_;
  /// up_[j * num_nodes + x] = 2^j-th ancestor of x (kInvalidId past root).
  std::vector<std::int32_t> up_;
  std::int32_t num_nodes_ = 0;
  std::int32_t levels_ = 0;

  JumpTableView Jumps() const { return {depth_, up_, levels_}; }
  Lambda NodeLambda(std::int32_t node) const {
    return hierarchy_->node(node).lambda;
  }
};

}  // namespace nucleus

#endif  // NUCLEUS_CORE_HIERARCHY_INDEX_H_

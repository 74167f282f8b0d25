#include "nucleus/core/hierarchy_index.h"

#include <algorithm>

namespace nucleus {

HierarchyIndex::HierarchyIndex(const NucleusHierarchy& hierarchy)
    : hierarchy_(&hierarchy),
      num_nodes_(static_cast<std::int32_t>(hierarchy.NumNodes())) {
  depth_.assign(num_nodes_, 0);
  // Children always have larger ids than unrelated earlier subtrees is NOT
  // guaranteed; compute depths by an explicit traversal from the root.
  std::vector<std::int32_t> order;
  order.reserve(num_nodes_);
  order.push_back(hierarchy.root());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::int32_t x = order[i];
    for (std::int32_t c : hierarchy.node(x).children) {
      depth_[c] = depth_[x] + 1;
      order.push_back(c);
    }
  }
  NUCLEUS_CHECK(static_cast<std::int32_t>(order.size()) == num_nodes_);

  const std::int32_t max_depth =
      num_nodes_ == 0 ? 0 : *std::max_element(depth_.begin(), depth_.end());
  levels_ = 1;
  while ((1 << levels_) <= std::max(max_depth, 1)) ++levels_;

  up_.assign(static_cast<std::size_t>(levels_) * num_nodes_, kInvalidId);
  for (std::int32_t x = 0; x < num_nodes_; ++x) {
    up_[x] = hierarchy.node(x).parent;  // j = 0
  }
  const JumpTableView jumps = Jumps();
  for (std::int32_t j = 1; j < levels_; ++j) {
    for (std::int32_t x = 0; x < num_nodes_; ++x) {
      const std::int32_t half = jumps.Up(j - 1, x);
      up_[static_cast<std::size_t>(j) * num_nodes_ + x] =
          half == kInvalidId ? kInvalidId : jumps.Up(j - 1, half);
    }
  }
}

HierarchyIndex::HierarchyIndex(const NucleusHierarchy& hierarchy,
                               HierarchyIndexTables tables)
    : hierarchy_(&hierarchy),
      depth_(std::move(tables.depth)),
      up_(std::move(tables.up)),
      num_nodes_(static_cast<std::int32_t>(hierarchy.NumNodes())),
      levels_(tables.levels) {
  NUCLEUS_CHECK(static_cast<std::int32_t>(depth_.size()) == num_nodes_);
  NUCLEUS_CHECK(levels_ >= 1);
  NUCLEUS_CHECK(up_.size() ==
                static_cast<std::size_t>(levels_) * num_nodes_);
}

std::int32_t HierarchyIndex::Lca(std::int32_t a, std::int32_t b) const {
  NUCLEUS_CHECK(a >= 0 && a < num_nodes_ && b >= 0 && b < num_nodes_);
  return Jumps().Lca(a, b);
}

std::int32_t HierarchyIndex::NucleusAtLevel(CliqueId u, Lambda k) const {
  NUCLEUS_CHECK(k >= 1);
  return Jumps().NucleusAtLevel(
      hierarchy_->NodeOfClique(u), k,
      [this](std::int32_t x) { return NodeLambda(x); });
}

std::int32_t HierarchyIndex::SmallestCommonNucleus(CliqueId u,
                                                   CliqueId v) const {
  const std::int32_t a = hierarchy_->NodeOfClique(u);
  const std::int32_t b = hierarchy_->NodeOfClique(v);
  NUCLEUS_CHECK(a >= 0 && a < num_nodes_ && b >= 0 && b < num_nodes_);
  return Jumps().SmallestCommonNucleus(
      a, b, [this](std::int32_t x) { return NodeLambda(x); });
}

Lambda HierarchyIndex::CommonNucleusLevel(CliqueId u, CliqueId v) const {
  const std::int32_t node = SmallestCommonNucleus(u, v);
  return node == kInvalidId ? 0 : hierarchy_->node(node).lambda;
}

}  // namespace nucleus

#include "nucleus/core/fast_nucleus.h"

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/cliques/edge_index.h"
#include "nucleus/cliques/triangle_index.h"
#include "nucleus/core/df_traversal.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/naive_traversal.h"
#include "test_util.h"

namespace nucleus {
namespace {

TEST(FastNucleus, LambdasMatchPlainPeeling) {
  const Graph g = ErdosRenyiGnp(70, 0.12, 21);
  const VertexSpace space(g);
  const FndResult fnd = FastNucleusDecomposition(space);
  const PeelResult plain = Peel(space);
  EXPECT_EQ(fnd.peel.lambda, plain.lambda);
  EXPECT_EQ(fnd.peel.max_lambda, plain.max_lambda);
}

TEST(FastNucleus, TrussLambdasMatchPlainPeeling) {
  const Graph g = PlantedPartition(3, 12, 0.6, 0.08, 23);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  const FndResult fnd = FastNucleusDecomposition(space);
  EXPECT_EQ(fnd.peel.lambda, Peel(space).lambda);
}

TEST(FastNucleus, CompCoversAllCliquesWithMatchingLambda) {
  const Graph g = Caveman(4, 7, 5, 25);
  const VertexSpace space(g);
  const FndResult fnd = FastNucleusDecomposition(space);
  for (CliqueId u = 0; u < space.NumCliques(); ++u) {
    ASSERT_NE(fnd.build.comp[u], kInvalidId);
    EXPECT_EQ(fnd.build.skeleton.LambdaOf(fnd.build.comp[u]),
              fnd.peel.lambda[u]);
  }
}

TEST(FastNucleus, StarGraphLateMerge) {
  // The paper's star example (Section 4.3): the center is processed in the
  // last two peeling steps, so FND cannot know the leaves are connected
  // until then; non-maximal T* sub-nuclei must still union into ONE
  // hierarchy node.
  const Graph g = Star(10);
  const VertexSpace space(g);
  const FndResult fnd = FastNucleusDecomposition(space);
  const NucleusHierarchy h =
      NucleusHierarchy::FromSkeleton(fnd.build, space.NumCliques());
  h.Validate(fnd.peel.lambda);
  EXPECT_EQ(h.NumNuclei(), 1);
  // FND may create more sub-nuclei than the single maximal T_{1,2}.
  EXPECT_GE(fnd.build.num_subnuclei, 1);
}

TEST(FastNucleus, NonMaximalSubnucleiAtLeastMaximalCount) {
  const Graph g = ErdosRenyiGnp(60, 0.15, 27);
  const VertexSpace space(g);
  const FndResult fnd = FastNucleusDecomposition(space);
  const SkeletonBuild dft = DfTraversal(space, fnd.peel);
  EXPECT_GE(fnd.build.num_subnuclei, dft.num_subnuclei);
}

TEST(FastNucleus, AdjCountZeroWhenSingleLevel) {
  // Complete graph: all lambda equal, no downward connections recorded.
  const Graph g = Complete(8);
  const VertexSpace space(g);
  const FndResult fnd = FastNucleusDecomposition(space);
  EXPECT_EQ(fnd.num_adj, 0);
}

TEST(FastNucleus, AdjPositiveWithNestedStructure) {
  const Graph g = testing_util::PaperFigure2Graph();
  const VertexSpace space(g);
  const FndResult fnd = FastNucleusDecomposition(space);
  EXPECT_GT(fnd.num_adj, 0);
}

TEST(FastNucleus, HierarchyMatchesNaiveOnFigure2) {
  const Graph g = testing_util::PaperFigure2Graph();
  const VertexSpace space(g);
  const FndResult fnd = FastNucleusDecomposition(space);
  const NucleusHierarchy h =
      NucleusHierarchy::FromSkeleton(fnd.build, space.NumCliques());
  h.Validate(fnd.peel.lambda);
  const auto got = testing_util::NucleiFromHierarchy(h);
  const auto want = testing_util::Canonicalize(
      CollectNucleiNaive(space, fnd.peel.lambda, fnd.peel.max_lambda));
  EXPECT_TRUE(testing_util::NucleiEqual(got, want));
}

TEST(FastNucleus, IsolatedCliquesGetSingletonSubnuclei) {
  // Edges with no triangles: every edge its own lambda-0 sub-nucleus in the
  // (2,3) decomposition (the uk-2005 phenomenon in Table 3).
  const Graph g = Path(6);
  const EdgeIndex edges = EdgeIndex::Build(g);
  const EdgeSpace space(g, edges);
  const FndResult fnd = FastNucleusDecomposition(space);
  EXPECT_EQ(fnd.build.num_subnuclei, 5);
  EXPECT_EQ(fnd.num_adj, 0);
  for (CliqueId e = 0; e < 5; ++e) EXPECT_EQ(fnd.peel.lambda[e], 0);
}

TEST(FastNucleus, PhaseTimingsNonNegative) {
  const Graph g = ErdosRenyiGnp(50, 0.2, 31);
  const VertexSpace space(g);
  const FndResult fnd = FastNucleusDecomposition(space);
  EXPECT_GE(fnd.peel_seconds, 0.0);
  EXPECT_GE(fnd.build_seconds, 0.0);
}

// Alg. 9 must not depend on the order of the pairs within a bin. Feeds
// each bin of the FND ADJ pairs to the shared per-bin step in three
// orders — shuffled (fixed seed), reversed, and the build-order ablation's
// stable sort by decreasing lower-side lambda — and expects one hierarchy,
// equal to FND's own.
template <typename Space>
void ExpectBinOrderInsensitive(const Space& space) {
  using Pair = std::pair<std::int32_t, std::int32_t>;
  const FndPeelState state = FastNucleusPeel(space);
  const HierarchySkeleton& skeleton = state.skeleton;
  std::vector<Pair> sorted = state.adj;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&skeleton](const Pair& a, const Pair& b) {
                     return skeleton.LambdaOf(a.second) >
                            skeleton.LambdaOf(b.second);
                   });
  std::vector<std::vector<Pair>> bins(state.peel.max_lambda + 1);
  for (const Pair& pair : sorted) {
    bins[skeleton.LambdaOf(pair.second)].push_back(pair);
  }

  const auto assemble = [&](const auto& reorder) {
    SkeletonBuild build{state.skeleton, state.comp};
    std::vector<Pair> merge;
    for (Lambda level = state.peel.max_lambda; level >= 0; --level) {
      std::vector<Pair> bin = bins[level];
      reorder(&bin);
      internal::AssembleBin(
          level,
          [&bin](auto&& visit) {
            for (const auto& [s, t] : bin) visit(s, t);
          },
          &merge, &build.skeleton);
    }
    internal::CloseSkeleton(&build);
    return testing_util::NucleiFromHierarchy(
        NucleusHierarchy::FromSkeleton(build, space.NumCliques()));
  };

  std::mt19937 rng(2016);
  const std::vector<Nucleus> shuffled = assemble([&rng](std::vector<Pair>* b) {
    std::shuffle(b->begin(), b->end(), rng);
  });
  const std::vector<Nucleus> reversed = assemble(
      [](std::vector<Pair>* b) { std::reverse(b->begin(), b->end()); });
  const std::vector<Nucleus> stable = assemble([](std::vector<Pair>*) {});
  EXPECT_TRUE(testing_util::NucleiEqual(shuffled, stable));
  EXPECT_TRUE(testing_util::NucleiEqual(reversed, stable));
  EXPECT_TRUE(testing_util::NucleiEqual(
      stable, testing_util::NucleiFromHierarchy(NucleusHierarchy::FromSkeleton(
                  FastNucleusDecomposition(space).build, space.NumCliques()))));
}

TEST(FastNucleus, PerBinStepIsOrderInsensitiveAllFamilies) {
  for (const auto& c : testing_util::GraphZoo()) {
    SCOPED_TRACE(c.name);
    const Graph g = c.make();
    const EdgeIndex edges = EdgeIndex::Build(g);
    const TriangleIndex triangles = TriangleIndex::Build(g, edges);
    ExpectBinOrderInsensitive(VertexSpace(g));
    ExpectBinOrderInsensitive(EdgeSpace(g, edges));
    ExpectBinOrderInsensitive(TriangleSpace(g, edges, triangles));
  }
}

}  // namespace
}  // namespace nucleus

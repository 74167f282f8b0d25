// Ablation A2: BuildHierarchy's binned processing order (paper Alg. 9).
// The ADJ pairs must be consumed in decreasing order of the lower side's
// lambda for the root forest to stay consistent. Two correct orderings are
// compared on identical FND peel states:
//   binned  — counting-sort into max-lambda bins (the paper's choice);
//   sorted  — comparison std::stable_sort of the pairs by that key.
// Both feed the same per-bin step, so the timings differ by ordering only,
// and both produce the same hierarchy (fnd_test's order-insensitivity
// test); the binned variant is O(|ADJ| + maxλ).
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "nucleus/bench/datasets.h"
#include "nucleus/bench/table.h"
#include "nucleus/cliques/edge_index.h"
#include "nucleus/core/fast_nucleus.h"
#include "nucleus/util/timer.h"

namespace nucleus {
namespace {

// Comparison-sort variant: the same per-bin step (internal::AssembleBin)
// fed from a stable_sort of the pairs, so only the ordering differs.
double SortedBuildSeconds(FndPeelState state) {
  Timer timer;
  const auto& adj = state.adj;
  const auto lower = [&state](const auto& p) {
    return state.skeleton.LambdaOf(p.second);
  };
  std::stable_sort(state.adj.begin(), state.adj.end(),
                   [&](const auto& a, const auto& b) {
                     return lower(a) > lower(b);
                   });
  std::vector<std::pair<std::int32_t, std::int32_t>> merge;
  for (std::size_t i = 0, end = 0; i < adj.size(); i = end) {
    while (end < adj.size() && lower(adj[end]) == lower(adj[i])) ++end;
    internal::AssembleBin(
        lower(adj[i]),
        [&](auto&& visit) {
          for (std::size_t j = i; j < end; ++j) {
            visit(adj[j].first, adj[j].second);
          }
        },
        &merge, &state.skeleton);
  }
  return timer.Seconds();
}

double BinnedBuildSeconds(FndPeelState state) {
  Timer timer;
  internal::BuildHierarchy(state.adj, state.peel.max_lambda, &state.skeleton);
  return timer.Seconds();
}

void Run() {
  std::cout << "Ablation A2: BuildHierarchy ordering (paper Alg. 9)\n"
            << "counting-sort bins vs comparison sort of the ADJ pairs, on\n"
            << "identical (2,3) FND peel states.\n\n";
  TablePrinter table({"graph", "|ADJ|", "binned (s)", "sorted (s)", "ratio"});
  for (const DatasetSpec& spec : PaperDatasets()) {
    const Graph g = spec.make();
    const EdgeIndex edges = EdgeIndex::Build(g);
    const EdgeSpace space(g, edges);
    const FndPeelState state = FastNucleusPeel(space);
    const double binned = BinnedBuildSeconds(state);
    const double sorted = SortedBuildSeconds(state);
    table.AddRow({spec.paper_name,
                  FormatCount(static_cast<std::int64_t>(state.adj.size())),
                  FormatSeconds(binned), FormatSeconds(sorted),
                  FormatSpeedup(sorted / std::max(binned, 1e-9))});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace nucleus

int main() {
  nucleus::Run();
  return 0;
}

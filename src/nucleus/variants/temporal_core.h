// Temporal (k, h)-core decomposition (Wu et al., "Core decomposition in
// large temporal graphs", IEEE BigData'15) WITH the connected-core
// hierarchy.
//
// A temporal graph is a multiset of timestamped contact events (u, v, t).
// For a time window [t_begin, t_end] and a multiplicity threshold h, the
// (k, h)-core is the k-core of the h-filtered snapshot: the static graph
// whose edges are the vertex pairs with at least h events inside the
// window. h = 1 gives the plain snapshot core; larger h demands repeated
// interaction, Wu et al.'s notion of a temporally robust tie.
//
// The paper's Section 3.1 lists the temporal adaptation among the
// threshold-based variants that compute only peeling numbers; here every
// window decomposition also carries the connected-core hierarchy via
// BuildVertexHierarchy (the shared Alg. 9 assembler on label ranks), and
// CoreEvolution tracks how the dense structure moves through time — the
// analysis loop the variant papers motivate.
#ifndef NUCLEUS_VARIANTS_TEMPORAL_CORE_H_
#define NUCLEUS_VARIANTS_TEMPORAL_CORE_H_

#include <cstdint>
#include <vector>

#include "nucleus/core/types.h"
#include "nucleus/graph/graph.h"
#include "nucleus/util/common.h"
#include "nucleus/variants/vertex_hierarchy.h"

namespace nucleus {

/// One contact event. Events are undirected; (u, v, t) == (v, u, t).
struct TemporalEdge {
  VertexId u = 0;
  VertexId v = 0;
  std::int64_t time = 0;
};

/// Immutable multiset of contact events ordered by time.
class TemporalGraph {
 public:
  /// Builds from an event list (self-loops rejected; duplicates allowed —
  /// they are distinct events). Aborts on out-of-range endpoints.
  static TemporalGraph FromEvents(VertexId num_vertices,
                                  std::vector<TemporalEdge> events);

  VertexId NumVertices() const { return num_vertices_; }
  std::int64_t NumEvents() const {
    return static_cast<std::int64_t>(events_.size());
  }
  /// [earliest, latest] event time; {0, -1} when there are no events.
  std::pair<std::int64_t, std::int64_t> TimeRange() const;

  const std::vector<TemporalEdge>& events() const { return events_; }

  /// The h-filtered snapshot of [t_begin, t_end] (inclusive): vertex pairs
  /// with >= h events in the window become edges. Requires h >= 1.
  Graph Snapshot(std::int64_t t_begin, std::int64_t t_end,
                 std::int32_t h = 1) const;

 private:
  VertexId num_vertices_ = 0;
  std::vector<TemporalEdge> events_;  // sorted by (time, u, v)
};

/// One window's full decomposition: snapshot, core numbers, hierarchy.
struct TemporalCoreResult {
  Graph snapshot;
  PeelResult peel;
  LabeledSkeleton skeleton;
};

/// k-core numbers + connected-core hierarchy of the (window, h) snapshot.
TemporalCoreResult DecomposeWindow(const TemporalGraph& tg,
                                   std::int64_t t_begin, std::int64_t t_end,
                                   std::int32_t h = 1);

/// Summary of one sliding window (for CoreEvolution).
struct WindowCoreStats {
  std::int64_t t_begin = 0;
  std::int64_t t_end = 0;
  std::int64_t num_edges = 0;       // snapshot edges
  Lambda max_core = 0;              // degeneracy of the snapshot
  std::int64_t max_core_size = 0;   // vertices with lambda == max_core
  std::int64_t num_nuclei = 0;      // nodes of the hierarchy (lambda >= 1)
};

/// Slides a window of `window_length` time units by `step` across the event
/// span and decomposes each position. Requires window_length >= 0 (windows
/// are [t, t + window_length] inclusive), step >= 1, h >= 1.
std::vector<WindowCoreStats> CoreEvolution(const TemporalGraph& tg,
                                           std::int64_t window_length,
                                           std::int64_t step,
                                           std::int32_t h = 1);

}  // namespace nucleus

#endif  // NUCLEUS_VARIANTS_TEMPORAL_CORE_H_

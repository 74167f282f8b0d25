// SnapshotSource: the store→serve boundary.
//
// A SnapshotSource is everything the serving tier needs from one loaded
// snapshot, expressed as flat read-only views: per-clique lambdas, the
// hierarchy tree arrays, the binary-lifting jump tables, subtree member
// ranges, and the density ranking. Two implementations:
//
//   * HeapSource — wraps a fully validated SnapshotData (an eager
//     LoadSnapshot, or a chain resolved in memory). Everything is
//     heap-resident; Ensure() is a no-op.
//   * MmapSource — a read-only mapping of a .nucsnap file. Spans point
//     straight into the mapping (zero-copy); per-section digests and
//     structural invariants are verified lazily, on the first query that
//     needs them, in dependency groups. Eviction is an munmap, not a
//     destructor walk, and resident bytes are whatever the kernel chose
//     to keep paged in — not the snapshot size.
//
// QueryEngine consumes a source through a SourceView (spans captured once
// per state) so the per-query hot path does no virtual calls; the only
// heap-resident hot set for an mmap tenant is the engine's byte-budgeted
// member cache.
#ifndef NUCLEUS_STORE_SNAPSHOT_SOURCE_H_
#define NUCLEUS_STORE_SNAPSHOT_SOURCE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nucleus/core/hierarchy_index.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/util/status.h"

namespace nucleus {

/// How a serving path should hold a snapshot in memory.
enum class SnapshotMemoryMode {
  kHeap,  // eager read + validate + heap rebuild (LoadSnapshot)
  kMmap,  // map the file, verify lazily, serve zero-copy
};

/// Verification demands a query kind can place on a source, OR-able.
/// HeapSource satisfies all of them by construction; MmapSource maps them
/// onto per-section digest + structural checks, run once.
inline constexpr std::uint32_t kNeedLookup = 1u << 0;   // lambda / assignment
inline constexpr std::uint32_t kNeedIndex = 1u << 1;    // depth + jump tables
inline constexpr std::uint32_t kNeedSizes = 1u << 2;    // subtree intervals
inline constexpr std::uint32_t kNeedMembers = 1u << 3;  // member store
inline constexpr std::uint32_t kNeedRanking = 1u << 4;  // density ranking

class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;

  virtual const SnapshotMeta& meta() const = 0;
  virtual std::int32_t NumNodes() const = 0;
  /// Nodes with lambda >= 1 (= density ranking length).
  virtual std::int64_t NumNuclei() const = 0;

  // Flat views. Valid for the lifetime of the source; a view whose backing
  // section has not passed Ensure() may hold corrupt bytes, so callers
  // must Ensure() the matching need bits before trusting the contents.
  virtual std::span<const Lambda> CliqueLambdas() const = 0;
  virtual std::span<const Lambda> NodeLambdas() const = 0;
  virtual std::span<const std::int32_t> NodeParents() const = 0;
  virtual std::span<const std::int32_t> NodeOfCliques() const = 0;
  virtual std::span<const std::int32_t> Depths() const = 0;
  /// Row-major levels x nodes jump table (row j = 2^j-th ancestors).
  virtual std::span<const std::int32_t> UpTable() const = 0;
  virtual std::int32_t IndexLevels() const = 0;
  /// lambda >= 1 node ids, ordered (lambda desc, id asc).
  virtual std::span<const std::int32_t> DensityRanking() const = 0;

  /// Number of cliques in `node`'s subtree (== MembersOfSubtree size).
  virtual std::int64_t SubtreeSize(std::int32_t node) const = 0;
  /// Sorted member clique ids of `node`'s subtree — byte-identical across
  /// implementations for the same snapshot.
  virtual std::vector<CliqueId> MaterializeMembers(std::int32_t node)
      const = 0;

  /// Verifies every section group in `needs` (idempotent, thread-safe; a
  /// failure is sticky and returned to every later caller).
  virtual Status Ensure(std::uint32_t needs) const = 0;

  /// Estimated heap bytes owned by this source (arrays, tree, caches it
  /// carries — NOT the engine's member cache).
  virtual std::int64_t HeapBytes() const = 0;
  /// Bytes of file mapped into the address space (0 for heap sources).
  virtual std::int64_t MappedBytes() const = 0;
};

/// Heap-resident source wrapping a validated SnapshotData. Serves the
/// snapshot's own index tables (building them into it if absent, so they
/// are held once) and precomputes the density ranking.
class HeapSource final : public SnapshotSource {
 public:
  explicit HeapSource(SnapshotData snapshot);

  const SnapshotMeta& meta() const override { return snapshot_.meta; }
  std::int32_t NumNodes() const override {
    return static_cast<std::int32_t>(node_lambda_.size());
  }
  std::int64_t NumNuclei() const override {
    return static_cast<std::int64_t>(ranking_.size());
  }
  std::span<const Lambda> CliqueLambdas() const override {
    return snapshot_.peel.lambda;
  }
  std::span<const Lambda> NodeLambdas() const override {
    return node_lambda_;
  }
  std::span<const std::int32_t> NodeParents() const override {
    return node_parent_;
  }
  std::span<const std::int32_t> NodeOfCliques() const override {
    return snapshot_.hierarchy.NodeOfCliqueArray();
  }
  std::span<const std::int32_t> Depths() const override {
    return snapshot_.index_tables.depth;
  }
  std::span<const std::int32_t> UpTable() const override {
    return snapshot_.index_tables.up;
  }
  std::int32_t IndexLevels() const override {
    return snapshot_.index_tables.levels;
  }
  std::span<const std::int32_t> DensityRanking() const override {
    return ranking_;
  }
  std::int64_t SubtreeSize(std::int32_t node) const override {
    return snapshot_.hierarchy.node(node).subtree_members;
  }
  std::vector<CliqueId> MaterializeMembers(std::int32_t node) const override {
    return snapshot_.hierarchy.MembersOfSubtree(node);
  }
  Status Ensure(std::uint32_t) const override { return Status::Ok(); }
  std::int64_t HeapBytes() const override { return heap_bytes_; }
  std::int64_t MappedBytes() const override { return 0; }

  /// The wrapped snapshot (LiveUpdater reads the hierarchy / peel).
  const SnapshotData& snapshot() const { return snapshot_; }

 private:
  SnapshotData snapshot_;
  std::vector<Lambda> node_lambda_;
  std::vector<std::int32_t> node_parent_;
  std::vector<std::int32_t> ranking_;
  std::int64_t heap_bytes_ = 0;
};

/// Estimated heap footprint of a fully materialized SnapshotData (peel
/// array, tree nodes, children/member vectors, index tables). The registry
/// charges this against its byte budget for heap tenants.
std::int64_t EstimateSnapshotHeapBytes(const SnapshotData& snapshot);

/// Opens `path` as a SnapshotSource: kMmap maps the file zero-copy, kHeap
/// loads it eagerly through LoadSnapshot into a HeapSource. Both reject a
/// legacy v1 file with a Status naming `nucleus_cli snapshot-upgrade`.
StatusOr<std::shared_ptr<const SnapshotSource>> OpenSnapshotSource(
    const std::string& path, SnapshotMemoryMode mode);

/// Spans of one source captured once, so query hot paths (binary lifting,
/// lambda lookups) run with zero virtual dispatch. Plain value; copy per
/// engine state.
struct SourceView {
  std::span<const Lambda> clique_lambda;
  std::span<const Lambda> node_lambda;
  std::span<const std::int32_t> node_parent;
  std::span<const std::int32_t> node_of_clique;
  std::span<const std::int32_t> depth;
  std::span<const std::int32_t> up;
  std::int32_t levels = 0;
  std::span<const std::int32_t> ranking;

  JumpTableView Jumps() const { return {depth, up, levels}; }
};

SourceView MakeSourceView(const SnapshotSource& source);

// Query primitives over a SourceView: HierarchyIndex's binary lifting
// (JumpTableView, core/hierarchy_index.h) on the view's spans, inline.
inline std::int32_t ViewNucleusAtLevel(const SourceView& view, CliqueId u,
                                       Lambda k) {
  return view.Jumps().NucleusAtLevel(
      view.node_of_clique[u], k,
      [&view](std::int32_t x) { return view.node_lambda[x]; });
}
inline std::int32_t ViewSmallestCommonNucleus(const SourceView& view,
                                              CliqueId u, CliqueId v) {
  return view.Jumps().SmallestCommonNucleus(
      view.node_of_clique[u], view.node_of_clique[v],
      [&view](std::int32_t x) { return view.node_lambda[x]; });
}

}  // namespace nucleus

#endif  // NUCLEUS_STORE_SNAPSHOT_SOURCE_H_

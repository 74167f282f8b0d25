// Persistent hierarchy snapshots (.nucsnap): the durable form of a
// decomposition result.
//
// The paper's premise is that the hierarchy is built ONCE so that
// community-search questions become cheap tree lookups; until this module
// existed, everything downstream of Decompose — the per-clique lambdas, the
// contracted NucleusHierarchy, the binary-lifting tables of HierarchyIndex —
// died with the process and every query re-ran the full decomposition. A
// snapshot captures all of it behind a versioned, checksummed header, so a
// serving process (serve/query_engine.h) loads in bulk reads (or maps) what
// a decomposition takes peel + traversal time to recompute.
//
// There is one on-disk format: the sectioned, checksummed, little-endian
// layout documented in snapshot_v2.h and README.md in this directory
// (magic "NUCSNAP2"). Besides what a decomposition produces — per-clique
// lambdas, the tree's node_lambda / node_parent / node_of_clique arrays and
// the binary-lifting jump tables — a file carries precomputed subtree
// extents, a preorder member store and the density ranking, so the mmap
// serving path (snapshot_source.h) answers straight from the mapping.
// SaveSnapshot writes it; LoadSnapshot, ReadSnapshotMeta and
// OpenSnapshotSource read it. Files in the retired v1 layout ("NUCSNAP1")
// are rejected with a Status naming `nucleus_cli snapshot-upgrade`, whose
// UpgradeSnapshot (snapshot_v2.h) is the only reader left for them.
//
// Children and member lists are rebuilt from node_parent / node_of_clique
// on an eager load (NucleusHierarchy::FromParts). LoadSnapshot validates
// untrusted input strictly — short files, bad magic, impossible headers,
// digest mismatches and structurally inconsistent trees all surface as
// Status errors, never as aborts or over-allocation.
#ifndef NUCLEUS_STORE_SNAPSHOT_H_
#define NUCLEUS_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "nucleus/core/decomposition.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/core/types.h"
#include "nucleus/graph/graph.h"
#include "nucleus/util/status.h"

namespace nucleus {

/// Identity of a snapshot: what was decomposed and how. Checked against the
/// graph a serving process pairs the snapshot with (see GraphFingerprint).
struct SnapshotMeta {
  Family family = Family::kCore12;
  Algorithm algorithm = Algorithm::kFnd;
  std::int32_t num_vertices = 0;
  std::int64_t num_edges = 0;
  std::uint64_t graph_fingerprint = 0;
  std::int64_t num_cliques = 0;
  Lambda max_lambda = 0;
};

/// Everything a snapshot round-trips. Plain movable data: the optional
/// HierarchyIndex travels as raw tables, not as a built index, so moving a
/// SnapshotData can never dangle an internal pointer — consumers
/// (QueryEngine) bind the tables to their own stored hierarchy.
struct SnapshotData {
  SnapshotMeta meta;
  PeelResult peel;
  NucleusHierarchy hierarchy;
  bool has_index = false;
  HierarchyIndexTables index_tables;
};

/// FNV-1a over |V|, the CSR offsets and the adjacency array — a cheap
/// stand-in for content equality between the snapshot's source graph and
/// the graph a query process pairs it with.
std::uint64_t GraphFingerprint(const Graph& g);

/// Packages a decomposition result for persistence. `result` must carry a
/// built hierarchy (build_tree, i.e. kDft / kFnd / kLcps). `with_index`
/// precomputes the HierarchyIndex jump tables here; without it SaveSnapshot
/// builds them, since every file embeds them. The rvalue overload moves
/// the peel vector and hierarchy out of `result` instead of deep-copying
/// them — use it when the result is not needed afterwards (large graphs:
/// the copy doubles peak memory at the worst moment).
SnapshotData MakeSnapshot(const Graph& g, const DecomposeOptions& options,
                          const DecompositionResult& result, bool with_index);
SnapshotData MakeSnapshot(const Graph& g, const DecomposeOptions& options,
                          DecompositionResult&& result, bool with_index);

/// Writes `snapshot` to `path` atomically (write-temp-then-rename,
/// fsynced), building the jump tables when the snapshot lacks them and
/// deriving the member store + density ranking from the hierarchy. Fails
/// with kInternal on IO errors.
Status SaveSnapshot(const SnapshotData& snapshot, const std::string& path);

/// Loads a .nucsnap file eagerly: header + directory validation, each
/// section read straight into its destination array and digest-checked,
/// then full structural validation (tree, assignment, jump tables, member
/// store, ranking). Every corruption mode returns a Status; the result
/// always has `has_index` set and `hierarchy` rebuilt.
StatusOr<SnapshotData> LoadSnapshot(const std::string& path);

/// Reads and validates only the header + directory — a cheap probe for
/// tooling.
StatusOr<SnapshotMeta> ReadSnapshotMeta(const std::string& path);

}  // namespace nucleus

#endif  // NUCLEUS_STORE_SNAPSHOT_H_

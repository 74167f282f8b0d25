#include "nucleus/store/snapshot_v2.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "nucleus/core/hierarchy_index.h"
#include "nucleus/store/record_io.h"
#include "nucleus/util/file_util.h"

namespace nucleus {

// The format is defined as little-endian and served zero-copy from a mapping;
// a big-endian port would need byte-swapping shims in the source layer.
static_assert(std::endian::native == std::endian::little,
              ".nucsnap requires a little-endian host");

namespace {

/// Magic of the retired version-1 layout: recognized by the loaders only to
/// point at `snapshot-upgrade`, read only by UpgradeSnapshot.
constexpr char kSnapshotV1Magic[8] = {'N', 'U', 'C', 'S', 'N', 'A', 'P', '1'};

}  // namespace

namespace store_v2_internal {

const char* SectionName(SnapshotSection section) {
  switch (section) {
    case SnapshotSection::kLambda: return "lambda";
    case SnapshotSection::kNodeLambda: return "node_lambda";
    case SnapshotSection::kNodeParent: return "node_parent";
    case SnapshotSection::kNodeOfClique: return "node_of_clique";
    case SnapshotSection::kDepth: return "depth";
    case SnapshotSection::kUp: return "up";
    case SnapshotSection::kSubBegin: return "sub_begin";
    case SnapshotSection::kSubEnd: return "sub_end";
    case SnapshotSection::kCliquesPre: return "cliques_pre";
    case SnapshotSection::kDensityRanking: return "density_ranking";
  }
  return "unknown";
}

std::int64_t ExpectedSectionLength(SnapshotSection section,
                                   const V2Header& header) {
  const std::int64_t nodes = header.num_nodes;
  const std::int64_t cliques = header.meta.num_cliques;
  switch (section) {
    case SnapshotSection::kLambda:
    case SnapshotSection::kNodeOfClique:
    case SnapshotSection::kCliquesPre:
      return cliques * 4;
    case SnapshotSection::kNodeLambda:
    case SnapshotSection::kNodeParent:
    case SnapshotSection::kDepth:
      return nodes * 4;
    case SnapshotSection::kUp:
      return static_cast<std::int64_t>(header.levels) * nodes * 4;
    case SnapshotSection::kSubBegin:
    case SnapshotSection::kSubEnd:
      return nodes * 8;
    case SnapshotSection::kDensityRanking:
      return static_cast<std::int64_t>(header.num_ranked) * 4;
  }
  return 0;
}

std::uint64_t SectionDigest(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = store_internal::kFnvOffset;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    hash ^= word;
    hash *= store_internal::kFnvPrime;
  }
  for (; i < size; ++i) {
    hash ^= bytes[i];
    hash *= store_internal::kFnvPrime;
  }
  return hash;
}

namespace {

std::int64_t AlignUp8(std::int64_t value) { return (value + 7) & ~std::int64_t{7}; }

template <typename T>
T ReadLe(const unsigned char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

Status HeaderError(const std::string& path, const std::string& reason) {
  return Status::InvalidArgument(path + ": header: " + reason);
}

Status DirectoryError(const std::string& path, const std::string& reason) {
  return Status::InvalidArgument(path + ": directory: " + reason);
}

/// Family, algorithm and the non-negative counts: the header checks both
/// layouts share (the legacy v1 reader runs them too).
Status ValidateHeaderIdentity(const std::string& path, std::int32_t family,
                              std::int32_t algorithm, V2Header* header) {
  if (family < 0 ||
      family > static_cast<std::int32_t>(Family::kNucleus34)) {
    return HeaderError(path, "invalid family");
  }
  if (algorithm < 0 ||
      algorithm > static_cast<std::int32_t>(Algorithm::kHypo)) {
    return HeaderError(path, "invalid algorithm");
  }
  header->meta.family = static_cast<Family>(family);
  header->meta.algorithm = static_cast<Algorithm>(algorithm);
  if (header->meta.num_vertices < 0 || header->meta.num_edges < 0 ||
      header->meta.num_cliques < 0 || header->meta.max_lambda < 0 ||
      header->num_nodes < 1) {
    return HeaderError(path, "impossible counts");
  }
  return Status::Ok();
}

/// Bounds every count by the file size BEFORE any length arithmetic: a
/// crafted 2^62 count must not wrap the int64 multiplications and reach an
/// allocation.
Status BoundCountsByFileSize(const std::string& path, const V2Header& header,
                             std::int64_t file_size) {
  const std::int64_t max_entries = file_size / 4;  // every array is >= int32
  if (header.meta.num_cliques > max_entries ||
      header.num_nodes > max_entries ||
      static_cast<std::int64_t>(header.levels) * header.num_nodes >
          max_entries ||
      header.num_nodes > file_size / 8) {
    return HeaderError(
        path, "size mismatch (header counts exceed the file size; "
              "truncated or corrupt)");
  }
  return Status::Ok();
}

// Below the legacy v1 header size a file is no snapshot of either layout.
constexpr std::int64_t kV1HeaderBytes = 64;

}  // namespace

Status ParseV2Header(const unsigned char* data, std::int64_t file_size,
                     const std::string& path, V2Header* header) {
  if (file_size < kV1HeaderBytes) {
    return Status::OutOfRange(path + ": header: truncated snapshot");
  }
  if (std::memcmp(data, kSnapshotV1Magic, sizeof(kSnapshotV1Magic)) == 0) {
    return HeaderError(path,
                       "legacy v1 snapshot; convert it with `nucleus_cli "
                       "snapshot-upgrade`");
  }
  if (std::memcmp(data, kSnapshotV2Magic, sizeof(kSnapshotV2Magic)) != 0) {
    return HeaderError(path, "bad magic (not a snapshot file)");
  }
  if (file_size < kSnapshotV2HeaderBytes) {
    return Status::OutOfRange(path + ": header: truncated snapshot");
  }
  const std::uint32_t version = ReadLe<std::uint32_t>(data + 8);
  if (version != kSnapshotV2Version) {
    return HeaderError(path, "unsupported snapshot version " +
                                 std::to_string(version));
  }
  const std::uint32_t flags = ReadLe<std::uint32_t>(data + 12);
  if (flags != 0) {
    return HeaderError(path, "unknown snapshot flags");
  }
  header->meta.num_vertices = ReadLe<std::int32_t>(data + 24);
  header->meta.num_edges = ReadLe<std::int64_t>(data + 28);
  header->meta.graph_fingerprint = ReadLe<std::uint64_t>(data + 36);
  header->meta.num_cliques = ReadLe<std::int64_t>(data + 44);
  header->meta.max_lambda = ReadLe<std::int32_t>(data + 52);
  header->num_nodes = ReadLe<std::int32_t>(data + 56);
  header->levels = ReadLe<std::int32_t>(data + 60);
  header->num_ranked = ReadLe<std::int32_t>(data + 64);
  const std::uint32_t section_count = ReadLe<std::uint32_t>(data + 68);

  if (Status s = ValidateHeaderIdentity(path, ReadLe<std::int32_t>(data + 16),
                                        ReadLe<std::int32_t>(data + 20),
                                        header);
      !s.ok()) {
    return s;
  }
  if (header->levels < 1 || header->levels > 32) {
    return HeaderError(path, "invalid index levels");
  }
  if (header->num_ranked < 0 || header->num_ranked > header->num_nodes) {
    return HeaderError(path, "impossible density ranking count");
  }
  if (section_count != kSnapshotV2SectionCount) {
    return HeaderError(path, "unexpected section count " +
                                 std::to_string(section_count));
  }
  if (Status s = BoundCountsByFileSize(path, *header, file_size); !s.ok()) {
    return s;
  }

  // Directory digest covers preamble + directory: corrupting an offset,
  // length or per-section digest is caught HERE, eagerly and in O(header),
  // never by wandering into the wrong bytes later.
  const std::int64_t dir_end =
      kSnapshotV2PreambleBytes +
      kSnapshotV2SectionCount * kSnapshotV2DirEntryBytes;
  const std::uint64_t computed =
      SectionDigest(data, static_cast<std::size_t>(dir_end));
  const std::uint64_t stored = ReadLe<std::uint64_t>(data + dir_end);
  if (computed != stored) {
    return HeaderError(path, "checksum mismatch (corrupt header/directory)");
  }

  std::int64_t cursor = kSnapshotV2HeaderBytes;
  for (std::uint32_t i = 0; i < kSnapshotV2SectionCount; ++i) {
    const unsigned char* entry =
        data + kSnapshotV2PreambleBytes + i * kSnapshotV2DirEntryBytes;
    const auto section = static_cast<SnapshotSection>(i + 1);
    const char* name = SectionName(section);
    if (ReadLe<std::uint32_t>(entry) != i + 1) {
      return DirectoryError(path, std::string("section id mismatch for ") +
                                      name);
    }
    SnapshotSectionEntry& out = header->sections[i];
    out.offset = ReadLe<std::int64_t>(entry + 8);
    out.length = ReadLe<std::int64_t>(entry + 16);
    out.digest = ReadLe<std::uint64_t>(entry + 24);
    if (out.length != ExpectedSectionLength(section, *header)) {
      return Status::InvalidArgument(
          path + ": " + name +
          ": size mismatch (section length disagrees with header counts)");
    }
    if (out.offset < kSnapshotV2HeaderBytes || (out.offset & 7) != 0 ||
        out.offset > file_size) {
      return DirectoryError(path, std::string("offset out of range for ") +
                                      name);
    }
    if (out.length > file_size - out.offset) {
      return Status::InvalidArgument(
          path + ": " + name +
          ": section out of file bounds (truncated or corrupt)");
    }
    if (out.offset < cursor) {
      return DirectoryError(path, std::string("overlapping sections at ") +
                                      name);
    }
    cursor = AlignUp8(out.offset + out.length);
  }
  if (cursor != AlignUp8(file_size) || file_size != cursor) {
    return Status::InvalidArgument(
        path + ": directory: size mismatch (expected " +
        std::to_string(cursor) + " bytes, file has " +
        std::to_string(file_size) + "; truncated or trailing data)");
  }
  return Status::Ok();
}

Status VerifySectionDigest(const void* data,
                           const SnapshotSectionEntry& entry,
                           SnapshotSection section, const std::string& path) {
  const std::uint64_t computed =
      SectionDigest(data, static_cast<std::size_t>(entry.length));
  if (computed != entry.digest) {
    return Status::InvalidArgument(path + ": " +
                                   std::string(SectionName(section)) +
                                   ": checksum mismatch (corrupt section)");
  }
  return Status::Ok();
}

Status ValidateTreeSections(const std::string& path, const V2Header& h,
                            const Lambda* node_lambda,
                            const std::int32_t* node_parent) {
  if (node_lambda[0] != kRootLambda || node_parent[0] != kInvalidId) {
    return Status::InvalidArgument(path +
                                   ": node_parent: corrupt snapshot root "
                                   "node");
  }
  Lambda max_lambda = 0;
  for (std::int32_t i = 1; i < h.num_nodes; ++i) {
    if (node_parent[i] < 0 || node_parent[i] >= i) {
      return Status::InvalidArgument(path +
                                     ": node_parent: corrupt parent order");
    }
    if (node_lambda[i] < 0 || node_lambda[node_parent[i]] >= node_lambda[i]) {
      return Status::InvalidArgument(
          path + ": node_lambda: non-increasing lambda chain");
    }
    if (node_lambda[i] > max_lambda) max_lambda = node_lambda[i];
  }
  if (max_lambda != h.meta.max_lambda) {
    return Status::InvalidArgument(path +
                                   ": node_lambda: max lambda mismatch");
  }
  return Status::Ok();
}

Status ValidateAssignSections(const std::string& path, const V2Header& h,
                              const Lambda* lambda,
                              const Lambda* node_lambda,
                              const std::int32_t* node_of_clique) {
  std::vector<char> has_member(static_cast<std::size_t>(h.num_nodes), 0);
  for (std::int64_t u = 0; u < h.meta.num_cliques; ++u) {
    const std::int32_t id = node_of_clique[u];
    if (id < 0 || id >= h.num_nodes) {
      return Status::InvalidArgument(
          path + ": node_of_clique: clique assigned out of range");
    }
    if (lambda[u] != node_lambda[id]) {
      return Status::InvalidArgument(
          path + ": lambda: lambda / node assignment mismatch");
    }
    has_member[id] = 1;
  }
  for (std::int32_t i = 1; i < h.num_nodes; ++i) {
    if (!has_member[i]) {
      return Status::InvalidArgument(
          path + ": node_of_clique: memberless non-root node");
    }
  }
  return Status::Ok();
}

Status ValidateIndexSections(const std::string& path, const V2Header& h,
                             const std::int32_t* node_parent,
                             const std::int32_t* depth,
                             const std::int32_t* up) {
  const std::int32_t n = h.num_nodes;
  std::int32_t max_depth = 0;
  if (depth[0] != 0) {
    return Status::InvalidArgument(path + ": depth: corrupt index depth "
                                          "table");
  }
  for (std::int32_t i = 1; i < n; ++i) {
    if (depth[i] != depth[node_parent[i]] + 1) {
      return Status::InvalidArgument(path + ": depth: corrupt index depth "
                                            "table");
    }
    if (depth[i] > max_depth) max_depth = depth[i];
  }
  std::int32_t expected_levels = 1;
  while ((1 << expected_levels) <= std::max(max_depth, 1)) ++expected_levels;
  if (h.levels != expected_levels) {
    return Status::InvalidArgument(path + ": up: index level count "
                                          "mismatch");
  }
  const auto at = [&](std::int32_t j, std::int32_t x) {
    return up[static_cast<std::size_t>(j) * n + x];
  };
  for (std::int32_t x = 0; x < n; ++x) {
    if (at(0, x) != node_parent[x]) {
      return Status::InvalidArgument(path + ": up: corrupt index jump "
                                            "table");
    }
  }
  for (std::int32_t j = 1; j < h.levels; ++j) {
    for (std::int32_t x = 0; x < n; ++x) {
      const std::int32_t half = at(j - 1, x);
      const std::int32_t expect =
          half == kInvalidId ? kInvalidId : at(j - 1, half);
      if (at(j, x) != expect) {
        return Status::InvalidArgument(path + ": up: corrupt index jump "
                                              "table");
      }
    }
  }
  return Status::Ok();
}

Status ValidateSubSections(const std::string& path, const V2Header& h,
                           const std::int32_t* node_parent,
                           const std::int32_t* node_of_clique,
                           const std::int64_t* sub_begin,
                           const std::int64_t* sub_end) {
  const std::int32_t n = h.num_nodes;
  const std::int64_t cliques = h.meta.num_cliques;
  if (sub_begin[0] != 0 || sub_end[0] != cliques) {
    return Status::InvalidArgument(
        path + ": sub_begin: root interval does not cover the clique "
               "space");
  }
  for (std::int32_t i = 1; i < n; ++i) {
    const std::int32_t p = node_parent[i];
    if (sub_begin[i] < sub_begin[p] || sub_end[i] > sub_end[p] ||
        sub_begin[i] > sub_end[i]) {
      return Status::InvalidArgument(
          path + ": sub_begin: subtree interval not nested in its parent");
    }
  }
  // Exactness: every node's interval must hold exactly its direct cliques
  // plus its children's intervals. Nesting alone would let two siblings
  // share positions; the size balance below rules that out in O(n).
  std::vector<std::int64_t> direct(static_cast<std::size_t>(n), 0);
  for (std::int64_t u = 0; u < cliques; ++u) {
    const std::int32_t id = node_of_clique[u];
    if (id < 0 || id >= n) {
      return Status::InvalidArgument(
          path + ": node_of_clique: clique assigned out of range");
    }
    ++direct[id];
  }
  std::vector<std::int64_t> child_sum(static_cast<std::size_t>(n), 0);
  for (std::int32_t i = n - 1; i >= 1; --i) {
    const std::int64_t size = sub_end[i] - sub_begin[i];
    if (size != direct[i] + child_sum[i]) {
      return Status::InvalidArgument(
          path + ": sub_end: subtree interval size disagrees with the "
                 "tree");
    }
    child_sum[node_parent[i]] += size;
  }
  if (cliques != direct[0] + child_sum[0]) {
    return Status::InvalidArgument(
        path + ": sub_end: subtree interval size disagrees with the tree");
  }
  return Status::Ok();
}

Status ValidateCliquesPre(const std::string& path, const V2Header& h,
                          const std::int32_t* node_of_clique,
                          const std::int64_t* sub_begin,
                          const std::int64_t* sub_end,
                          const std::int32_t* cliques_pre) {
  const std::int64_t cliques = h.meta.num_cliques;
  std::vector<char> seen(static_cast<std::size_t>(cliques), 0);
  for (std::int64_t p = 0; p < cliques; ++p) {
    const std::int32_t c = cliques_pre[p];
    if (c < 0 || c >= cliques || seen[static_cast<std::size_t>(c)]) {
      return Status::InvalidArgument(
          path + ": cliques_pre: not a permutation of the clique space");
    }
    seen[static_cast<std::size_t>(c)] = 1;
    const std::int32_t node = node_of_clique[c];
    if (p < sub_begin[node] || p >= sub_end[node]) {
      return Status::InvalidArgument(
          path + ": cliques_pre: clique outside its node's subtree "
                 "interval");
    }
  }
  return Status::Ok();
}

Status ValidateRankingSection(const std::string& path, const V2Header& h,
                              const Lambda* node_lambda,
                              const std::int32_t* ranking) {
  std::int64_t expected = 0;
  for (std::int32_t i = 0; i < h.num_nodes; ++i) {
    if (node_lambda[i] >= 1) ++expected;
  }
  if (expected != h.num_ranked) {
    return Status::InvalidArgument(
        path + ": density_ranking: ranking count disagrees with the tree");
  }
  for (std::int32_t i = 0; i < h.num_ranked; ++i) {
    const std::int32_t id = ranking[i];
    if (id < 0 || id >= h.num_nodes || node_lambda[id] < 1) {
      return Status::InvalidArgument(
          path + ": density_ranking: entry is not a nucleus node");
    }
    if (i > 0) {
      const std::int32_t prev = ranking[i - 1];
      const bool ordered =
          node_lambda[prev] > node_lambda[id] ||
          (node_lambda[prev] == node_lambda[id] && prev < id);
      if (!ordered) {
        return Status::InvalidArgument(
            path + ": density_ranking: not ordered by (lambda desc, id "
                   "asc)");
      }
    }
  }
  return Status::Ok();
}

}  // namespace store_v2_internal

namespace {

using store_v2_internal::V2Header;

/// Every serialized array of one v2 snapshot, materialized in write order.
struct V2Payload {
  std::vector<Lambda> node_lambda;
  std::vector<std::int32_t> node_parent;
  const HierarchyIndexTables* tables = nullptr;  // the snapshot's, or built
  HierarchyIndexTables built_tables;
  std::vector<std::int64_t> sub_begin;
  std::vector<std::int64_t> sub_end;
  std::vector<std::int32_t> cliques_pre;
  std::vector<std::int32_t> ranking;
};

/// Derives the member store: DFS preorder from the root with children in
/// ascending id order, each node's direct members (already sorted) emitted
/// at entry. Every subtree then occupies one contiguous [begin, end) run
/// of `cliques_pre`, which is the property the mmap source's
/// MaterializeMembers and SubtreeSize lean on.
void BuildMemberStore(const NucleusHierarchy& h, V2Payload* payload) {
  const std::int32_t n = static_cast<std::int32_t>(h.NumNodes());
  payload->sub_begin.assign(static_cast<std::size_t>(n), 0);
  payload->sub_end.assign(static_cast<std::size_t>(n), 0);
  payload->cliques_pre.reserve(static_cast<std::size_t>(h.NumCliques()));
  // (node, next child index) stack; a node's interval closes when its last
  // child's subtree has been emitted.
  std::vector<std::pair<std::int32_t, std::size_t>> stack;
  stack.emplace_back(h.root(), 0);
  payload->sub_begin[h.root()] =
      static_cast<std::int64_t>(payload->cliques_pre.size());
  for (const CliqueId c : h.node(h.root()).members) {
    payload->cliques_pre.push_back(c);
  }
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    const auto& children = h.node(node).children;
    if (next_child == children.size()) {
      payload->sub_end[node] =
          static_cast<std::int64_t>(payload->cliques_pre.size());
      stack.pop_back();
      continue;
    }
    const std::int32_t child = children[next_child++];
    payload->sub_begin[child] =
        static_cast<std::int64_t>(payload->cliques_pre.size());
    for (const CliqueId c : h.node(child).members) {
      payload->cliques_pre.push_back(c);
    }
    stack.emplace_back(child, 0);
  }
}

void AppendLe(std::vector<unsigned char>* buffer, const void* data,
              std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  buffer->insert(buffer->end(), bytes, bytes + size);
}

template <typename T>
void AppendValue(std::vector<unsigned char>* buffer, T value) {
  AppendLe(buffer, &value, sizeof(T));
}

template <typename T>
std::uint64_t ArrayDigest(const std::vector<T>& values) {
  return store_v2_internal::SectionDigest(values.data(),
                                          values.size() * sizeof(T));
}

struct SectionPlan {
  SnapshotSection id;
  std::int64_t offset = 0;
  std::int64_t length = 0;
  std::uint64_t digest = 0;
  const void* data = nullptr;
};

Status WriteSnapshotFile(const SnapshotData& snapshot,
                         const V2Payload& payload, std::FILE* f,
                         const std::string& path) {
  const NucleusHierarchy& h = snapshot.hierarchy;
  const std::int32_t num_nodes = static_cast<std::int32_t>(h.NumNodes());
  const std::int64_t num_cliques = h.NumCliques();
  const HierarchyIndexTables& tables = *payload.tables;
  const std::int32_t levels = tables.levels;
  const std::int32_t num_ranked =
      static_cast<std::int32_t>(payload.ranking.size());

  SectionPlan plan[kSnapshotV2SectionCount] = {
      {SnapshotSection::kLambda, 0, num_cliques * 4,
       ArrayDigest(snapshot.peel.lambda), snapshot.peel.lambda.data()},
      {SnapshotSection::kNodeLambda, 0, num_nodes * 4,
       ArrayDigest(payload.node_lambda), payload.node_lambda.data()},
      {SnapshotSection::kNodeParent, 0, num_nodes * 4,
       ArrayDigest(payload.node_parent), payload.node_parent.data()},
      {SnapshotSection::kNodeOfClique, 0, num_cliques * 4,
       ArrayDigest(h.NodeOfCliqueArray()), h.NodeOfCliqueArray().data()},
      {SnapshotSection::kDepth, 0, num_nodes * 4,
       ArrayDigest(tables.depth), tables.depth.data()},
      {SnapshotSection::kUp, 0,
       static_cast<std::int64_t>(levels) * num_nodes * 4,
       ArrayDigest(tables.up), tables.up.data()},
      {SnapshotSection::kSubBegin, 0, num_nodes * 8,
       ArrayDigest(payload.sub_begin), payload.sub_begin.data()},
      {SnapshotSection::kSubEnd, 0, num_nodes * 8,
       ArrayDigest(payload.sub_end), payload.sub_end.data()},
      {SnapshotSection::kCliquesPre, 0, num_cliques * 4,
       ArrayDigest(payload.cliques_pre), payload.cliques_pre.data()},
      {SnapshotSection::kDensityRanking, 0, num_ranked * 4,
       ArrayDigest(payload.ranking), payload.ranking.data()},
  };
  std::int64_t cursor = kSnapshotV2HeaderBytes;
  for (SectionPlan& section : plan) {
    section.offset = cursor;
    cursor = (cursor + section.length + 7) & ~std::int64_t{7};
  }

  std::vector<unsigned char> header;
  header.reserve(static_cast<std::size_t>(kSnapshotV2HeaderBytes));
  AppendLe(&header, kSnapshotV2Magic, sizeof(kSnapshotV2Magic));
  AppendValue(&header, kSnapshotV2Version);
  AppendValue(&header, std::uint32_t{0});  // flags
  AppendValue(&header, static_cast<std::int32_t>(snapshot.meta.family));
  AppendValue(&header, static_cast<std::int32_t>(snapshot.meta.algorithm));
  AppendValue(&header, snapshot.meta.num_vertices);
  AppendValue(&header, snapshot.meta.num_edges);
  AppendValue(&header, snapshot.meta.graph_fingerprint);
  AppendValue(&header, num_cliques);
  AppendValue(&header, snapshot.meta.max_lambda);
  AppendValue(&header, num_nodes);
  AppendValue(&header, levels);
  AppendValue(&header, num_ranked);
  AppendValue(&header, kSnapshotV2SectionCount);
  for (const SectionPlan& section : plan) {
    AppendValue(&header, static_cast<std::uint32_t>(section.id));
    AppendValue(&header, std::uint32_t{0});  // reserved
    AppendValue(&header, section.offset);
    AppendValue(&header, section.length);
    AppendValue(&header, section.digest);
  }
  const std::uint64_t header_digest =
      store_v2_internal::SectionDigest(header.data(), header.size());
  AppendValue(&header, header_digest);
  NUCLEUS_CHECK(static_cast<std::int64_t>(header.size()) ==
                kSnapshotV2HeaderBytes);

  if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
    return Status::Internal("short write to " + path);
  }
  const unsigned char padding[8] = {0};
  std::int64_t written = kSnapshotV2HeaderBytes;
  for (const SectionPlan& section : plan) {
    if (section.length > 0 &&
        std::fwrite(section.data, 1,
                    static_cast<std::size_t>(section.length),
                    f) != static_cast<std::size_t>(section.length)) {
      return Status::Internal("short write to " + path);
    }
    written += section.length;
    const std::int64_t pad = ((written + 7) & ~std::int64_t{7}) - written;
    if (pad > 0 && std::fwrite(padding, 1, static_cast<std::size_t>(pad),
                               f) != static_cast<std::size_t>(pad)) {
      return Status::Internal("short write to " + path);
    }
    written += pad;
  }
  return store_internal::FlushToDevice(f, path);
}

/// Reads the preamble + directory of an open file and validates them.
Status ReadHeader(std::FILE* f, const std::string& path, V2Header* header) {
  StatusOr<std::int64_t> size = FileSize(f, path);
  if (!size.ok()) return size.status();
  unsigned char bytes[kSnapshotV2HeaderBytes];
  const auto want = static_cast<std::size_t>(
      std::min<std::int64_t>(*size, kSnapshotV2HeaderBytes));
  if (std::fread(bytes, 1, want, f) != want) {
    return Status::OutOfRange(path + ": header: truncated snapshot");
  }
  return store_v2_internal::ParseV2Header(bytes, *size, path, header);
}

/// Reads one section straight into the vector that keeps it and checks its
/// digest: no whole-file buffer, so a load holds each byte once.
template <typename T>
Status ReadSection(std::FILE* f, const V2Header& header, SnapshotSection id,
                   const std::string& path, std::vector<T>* out) {
  const SnapshotSectionEntry& entry =
      header.sections[static_cast<std::uint32_t>(id) - 1];
  const auto bytes = static_cast<std::size_t>(entry.length);
  out->resize(bytes / sizeof(T));
  if (::fseeko(f, entry.offset, SEEK_SET) != 0 ||
      std::fread(out->data(), 1, bytes, f) != bytes) {
    return Status::OutOfRange(path + ": " +
                              store_v2_internal::SectionName(id) +
                              ": truncated snapshot");
  }
  return store_v2_internal::VerifySectionDigest(out->data(), entry, id, path);
}

}  // namespace

Status SaveSnapshot(const SnapshotData& snapshot, const std::string& path) {
  const NucleusHierarchy& h = snapshot.hierarchy;
  NUCLEUS_CHECK_MSG(h.NumNodes() >= 1,
                    "snapshot requires a built hierarchy (build_tree)");
  NUCLEUS_CHECK(static_cast<std::int64_t>(snapshot.peel.lambda.size()) ==
                h.NumCliques());
  const std::int32_t num_nodes = static_cast<std::int32_t>(h.NumNodes());

  V2Payload payload;
  payload.node_lambda.resize(static_cast<std::size_t>(num_nodes));
  payload.node_parent.resize(static_cast<std::size_t>(num_nodes));
  for (std::int32_t i = 0; i < num_nodes; ++i) {
    payload.node_lambda[i] = h.node(i).lambda;
    payload.node_parent[i] = h.node(i).parent;
  }
  // Every snapshot ships the jump tables: the whole point of the layout is
  // that a load never rebuilds anything.
  if (snapshot.has_index) {
    payload.tables = &snapshot.index_tables;
  } else {
    payload.built_tables = HierarchyIndex(h).Tables();
    payload.tables = &payload.built_tables;
  }
  BuildMemberStore(h, &payload);
  payload.ranking.reserve(static_cast<std::size_t>(h.NumNuclei()));
  for (std::int32_t i = 0; i < num_nodes; ++i) {
    if (h.node(i).lambda >= 1) payload.ranking.push_back(i);
  }
  std::sort(payload.ranking.begin(), payload.ranking.end(),
            [&h](std::int32_t a, std::int32_t b) {
              if (h.node(a).lambda != h.node(b).lambda) {
                return h.node(a).lambda > h.node(b).lambda;
              }
              return a < b;
            });

  return store_internal::WriteFileAtomically(
      path, [&](std::FILE* f, const std::string& temp_path) {
        return WriteSnapshotFile(snapshot, payload, f, temp_path);
      });
}

StatusOr<SnapshotData> LoadSnapshot(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::FILE* f = file.get();
  V2Header header;
  if (Status s = ReadHeader(f, path, &header); !s.ok()) return s;

  // Eager load: every section is digest-checked (in file order) and then
  // structurally validated before anything is served; laziness lives in
  // MmapSource. The member store and the ranking are read only to be
  // validated: the loaded hierarchy derives both.
  namespace v2 = store_v2_internal;
  SnapshotData snapshot;
  std::vector<Lambda> node_lambda;
  std::vector<std::int32_t> node_parent;
  std::vector<std::int32_t> node_of_clique;
  HierarchyIndexTables& tables = snapshot.index_tables;
  {
    std::vector<std::int64_t> sub_begin;
    std::vector<std::int64_t> sub_end;
    std::vector<std::int32_t> cliques_pre;
    std::vector<std::int32_t> ranking;
    Status s;
    const auto read = [&](SnapshotSection id, auto* out) {
      if (s.ok()) s = ReadSection(f, header, id, path, out);
    };
    read(SnapshotSection::kLambda, &snapshot.peel.lambda);
    read(SnapshotSection::kNodeLambda, &node_lambda);
    read(SnapshotSection::kNodeParent, &node_parent);
    read(SnapshotSection::kNodeOfClique, &node_of_clique);
    read(SnapshotSection::kDepth, &tables.depth);
    read(SnapshotSection::kUp, &tables.up);
    read(SnapshotSection::kSubBegin, &sub_begin);
    read(SnapshotSection::kSubEnd, &sub_end);
    read(SnapshotSection::kCliquesPre, &cliques_pre);
    read(SnapshotSection::kDensityRanking, &ranking);
    if (s.ok()) {
      s = v2::ValidateTreeSections(path, header, node_lambda.data(),
                                   node_parent.data());
    }
    if (s.ok()) {
      s = v2::ValidateAssignSections(path, header, snapshot.peel.lambda.data(),
                                     node_lambda.data(),
                                     node_of_clique.data());
    }
    if (s.ok()) {
      s = v2::ValidateIndexSections(path, header, node_parent.data(),
                                    tables.depth.data(), tables.up.data());
    }
    if (s.ok()) {
      s = v2::ValidateSubSections(path, header, node_parent.data(),
                                  node_of_clique.data(), sub_begin.data(),
                                  sub_end.data());
    }
    if (s.ok()) {
      s = v2::ValidateCliquesPre(path, header, node_of_clique.data(),
                                 sub_begin.data(), sub_end.data(),
                                 cliques_pre.data());
    }
    if (s.ok()) {
      s = v2::ValidateRankingSection(path, header, node_lambda.data(),
                                     ranking.data());
    }
    if (!s.ok()) return s;
  }

  snapshot.meta = header.meta;
  snapshot.peel.max_lambda = header.meta.max_lambda;
  snapshot.has_index = true;
  tables.levels = header.levels;
  snapshot.hierarchy = NucleusHierarchy::FromParts(
      std::move(node_lambda), std::move(node_parent),
      std::move(node_of_clique));
  return snapshot;
}

StatusOr<SnapshotMeta> ReadSnapshotMeta(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  V2Header header;
  if (Status s = ReadHeader(file.get(), path, &header); !s.ok()) return s;
  return header.meta;
}

StatusOr<std::uint32_t> ReadSnapshotVersion(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  char magic[8];
  if (std::fread(magic, 1, sizeof(magic), file.get()) != sizeof(magic)) {
    return Status::OutOfRange(path + ": header: truncated snapshot");
  }
  if (std::memcmp(magic, kSnapshotV1Magic, sizeof(kSnapshotV1Magic)) == 0) {
    return std::uint32_t{1};
  }
  if (std::memcmp(magic, kSnapshotV2Magic, sizeof(kSnapshotV2Magic)) == 0) {
    return std::uint32_t{2};
  }
  return Status::InvalidArgument(path +
                                 ": header: bad magic (not a snapshot "
                                 "file)");
}

// ---------------------------------------------------------------------------
// Legacy v1 reader, reachable only from UpgradeSnapshot. Version 1 packed
// the arrays back to back behind a 64-byte header (magic "NUCSNAP1",
// version, flags with bit 0 = index tables present, the SnapshotMeta
// fields, node count, index levels) and closed the file with one byte-wise
// FNV-1a checksum over everything before it:
//
//   lambda |K_r|, node_lambda nodes, node_parent nodes,
//   node_of_clique |K_r|, [depth nodes, up levels*nodes]   (all int32)
//
// Only that framing lives here; the structural checks are the v2
// validators above.

namespace {

constexpr std::uint32_t kV1Version = 1;
constexpr std::uint32_t kV1FlagHasIndex = 1u;

Status ReadV1Header(store_internal::ChecksummingReader* reader,
                    const std::string& path, V2Header* header,
                    bool* has_index) {
  char magic[8];  // UpgradeSnapshot dispatched on it; read for the checksum
  if (Status s = reader->Read(magic, sizeof(magic)); !s.ok()) return s;
  std::uint32_t version = 0;
  if (Status s = reader->ReadValue(&version); !s.ok()) return s;
  if (version != kV1Version) {
    return store_v2_internal::HeaderError(
        path, "unsupported snapshot version " + std::to_string(version));
  }
  std::uint32_t flags = 0;
  std::int32_t family = 0;
  std::int32_t algorithm = 0;
  SnapshotMeta& meta = header->meta;
  Status s = reader->ReadValue(&flags);
  if (s.ok()) s = reader->ReadValue(&family);
  if (s.ok()) s = reader->ReadValue(&algorithm);
  if (s.ok()) s = reader->ReadValue(&meta.num_vertices);
  if (s.ok()) s = reader->ReadValue(&meta.num_edges);
  if (s.ok()) s = reader->ReadValue(&meta.graph_fingerprint);
  if (s.ok()) s = reader->ReadValue(&meta.num_cliques);
  if (s.ok()) s = reader->ReadValue(&meta.max_lambda);
  if (s.ok()) s = reader->ReadValue(&header->num_nodes);
  if (s.ok()) s = reader->ReadValue(&header->levels);
  if (!s.ok()) return s;

  if (flags & ~kV1FlagHasIndex) {
    return store_v2_internal::HeaderError(path, "unknown snapshot flags");
  }
  if (Status identity = store_v2_internal::ValidateHeaderIdentity(
          path, family, algorithm, header);
      !identity.ok()) {
    return identity;
  }
  *has_index = (flags & kV1FlagHasIndex) != 0;
  // levels is bounded by the depth of a binary-lifted tree over int32 ids.
  if (*has_index ? (header->levels < 1 || header->levels > 32)
                 : header->levels != 0) {
    return store_v2_internal::HeaderError(path, "invalid index levels");
  }
  return Status::Ok();
}

StatusOr<SnapshotData> LoadV1Snapshot(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  store_internal::ChecksummingReader reader(file.get(), path);
  V2Header header;
  bool has_index = false;
  if (Status s = ReadV1Header(&reader, path, &header, &has_index); !s.ok()) {
    return s;
  }

  // Size the whole file from the header BEFORE any allocation: a corrupt
  // count can neither over-allocate nor hide trailing garbage.
  StatusOr<std::int64_t> actual = FileSize(file.get(), path);
  if (!actual.ok()) return actual.status();
  if (Status s =
          store_v2_internal::BoundCountsByFileSize(path, header, *actual);
      !s.ok()) {
    return s;
  }
  const std::int64_t nodes = header.num_nodes;
  const std::int64_t expected =
      store_v2_internal::kV1HeaderBytes + 8 +
      4 * (2 * header.meta.num_cliques + 2 * nodes +
           (has_index ? nodes + header.levels * nodes : 0));
  if (*actual != expected) {
    return Status::InvalidArgument(
        path + ": header: size mismatch (expected " +
        std::to_string(expected) + " bytes, file has " +
        std::to_string(*actual) + "; truncated or trailing data)");
  }

  SnapshotData snapshot;
  std::vector<Lambda> node_lambda;
  std::vector<std::int32_t> node_parent;
  std::vector<std::int32_t> node_of_clique;
  HierarchyIndexTables& tables = snapshot.index_tables;
  Status s;
  const auto read = [&](const char* section, std::int64_t count,
                        auto* values) {
    reader.BeginSection(section);
    if (s.ok()) s = reader.ReadArray(count, values);
  };
  read("lambda", header.meta.num_cliques, &snapshot.peel.lambda);
  read("node_lambda", nodes, &node_lambda);
  read("node_parent", nodes, &node_parent);
  read("node_of_clique", header.meta.num_cliques, &node_of_clique);
  if (has_index) {
    read("depth", nodes, &tables.depth);
    read("up", header.levels * nodes, &tables.up);
  }
  if (!s.ok()) return s;

  const std::uint64_t computed = reader.checksum();
  std::uint64_t stored = 0;
  if (std::fread(&stored, 1, sizeof(stored), file.get()) != sizeof(stored)) {
    return Status::OutOfRange(path + ": footer: truncated snapshot");
  }
  if (stored != computed) {
    return Status::InvalidArgument(
        path + ": footer: checksum mismatch (corrupt snapshot)");
  }

  namespace v2 = store_v2_internal;
  s = v2::ValidateTreeSections(path, header, node_lambda.data(),
                               node_parent.data());
  if (s.ok()) {
    s = v2::ValidateAssignSections(path, header, snapshot.peel.lambda.data(),
                                   node_lambda.data(), node_of_clique.data());
  }
  if (s.ok() && has_index) {
    s = v2::ValidateIndexSections(path, header, node_parent.data(),
                                  tables.depth.data(), tables.up.data());
  }
  if (!s.ok()) return s;

  snapshot.meta = header.meta;
  snapshot.peel.max_lambda = header.meta.max_lambda;
  snapshot.has_index = has_index;
  tables.levels = header.levels;
  snapshot.hierarchy = NucleusHierarchy::FromParts(
      std::move(node_lambda), std::move(node_parent),
      std::move(node_of_clique));
  return snapshot;
}

}  // namespace

Status UpgradeSnapshot(const std::string& in_path,
                       const std::string& out_path) {
  StatusOr<std::uint32_t> version = ReadSnapshotVersion(in_path);
  if (!version.ok()) return version.status();
  // A v2 input is validated and rewritten (fresh digests, canonical
  // layout), so upgrading is idempotent.
  StatusOr<SnapshotData> snapshot =
      *version == 1 ? LoadV1Snapshot(in_path) : LoadSnapshot(in_path);
  if (!snapshot.ok()) return snapshot.status();
  return SaveSnapshot(*snapshot, out_path);
}

}  // namespace nucleus

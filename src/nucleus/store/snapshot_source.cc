#include "nucleus/store/snapshot_source.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "nucleus/store/record_io.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/mutex.h"

namespace nucleus {

// ---------------------------------------------------------------------------
// HeapSource

HeapSource::HeapSource(SnapshotData snapshot)
    : snapshot_(std::move(snapshot)) {
  const NucleusHierarchy& h = snapshot_.hierarchy;
  const std::int32_t n = static_cast<std::int32_t>(h.NumNodes());
  node_lambda_.resize(static_cast<std::size_t>(n));
  node_parent_.resize(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    node_lambda_[i] = h.node(i).lambda;
    node_parent_[i] = h.node(i).parent;
  }
  if (!snapshot_.has_index) {
    snapshot_.index_tables = HierarchyIndex(h).Tables();
    snapshot_.has_index = true;
  }
  ranking_.reserve(static_cast<std::size_t>(h.NumNuclei()));
  for (std::int32_t i = 0; i < n; ++i) {
    if (node_lambda_[i] >= 1) ranking_.push_back(i);
  }
  std::sort(ranking_.begin(), ranking_.end(),
            [this](std::int32_t a, std::int32_t b) {
              if (node_lambda_[a] != node_lambda_[b]) {
                return node_lambda_[a] > node_lambda_[b];
              }
              return a < b;
            });
  heap_bytes_ =
      EstimateSnapshotHeapBytes(snapshot_) +
      static_cast<std::int64_t>(node_lambda_.size() + node_parent_.size() +
                                ranking_.size()) *
          sizeof(std::int32_t);
}

std::int64_t EstimateSnapshotHeapBytes(const SnapshotData& snapshot) {
  const NucleusHierarchy& h = snapshot.hierarchy;
  std::int64_t bytes = 0;
  bytes += static_cast<std::int64_t>(snapshot.peel.lambda.size()) *
           sizeof(Lambda);
  bytes += h.NumCliques() * sizeof(std::int32_t);  // node_of_clique
  for (std::int32_t id = 0; id < h.NumNodes(); ++id) {
    const auto& node = h.node(id);
    bytes += static_cast<std::int64_t>(sizeof(NucleusHierarchy::Node));
    bytes += static_cast<std::int64_t>(node.children.size()) *
             sizeof(std::int32_t);
    bytes += static_cast<std::int64_t>(node.members.size()) *
             sizeof(CliqueId);
  }
  if (snapshot.has_index) {
    bytes += static_cast<std::int64_t>(snapshot.index_tables.depth.size() +
                                       snapshot.index_tables.up.size()) *
             sizeof(std::int32_t);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// MmapSource

namespace {

namespace v2 = store_v2_internal;

// Lazy verification groups. Each bit covers the digests + structural
// invariants of the sections one query family touches; dependencies are
// verified first so a validator can trust the arrays it reads.
constexpr std::uint32_t kGroupTree = 1u << 0;     // node_lambda, node_parent
constexpr std::uint32_t kGroupAssign = 1u << 1;   // lambda, node_of_clique
constexpr std::uint32_t kGroupIndex = 1u << 2;    // depth, up
constexpr std::uint32_t kGroupSub = 1u << 3;      // sub_begin, sub_end
constexpr std::uint32_t kGroupPre = 1u << 4;      // cliques_pre
constexpr std::uint32_t kGroupRanking = 1u << 5;  // density_ranking

std::uint32_t GroupsForNeeds(std::uint32_t needs) {
  std::uint32_t groups = 0;
  if (needs & kNeedLookup) groups |= kGroupTree | kGroupAssign;
  if (needs & kNeedIndex) groups |= kGroupTree | kGroupAssign | kGroupIndex;
  if (needs & kNeedSizes) groups |= kGroupTree | kGroupAssign | kGroupSub;
  if (needs & kNeedMembers) {
    groups |= kGroupTree | kGroupAssign | kGroupSub | kGroupPre;
  }
  if (needs & kNeedRanking) groups |= kGroupTree | kGroupRanking;
  return groups;
}

class MmapSource final : public SnapshotSource {
 public:
  static StatusOr<std::shared_ptr<const SnapshotSource>> Open(
      const std::string& path);

  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  ~MmapSource() override {
    if (base_ != nullptr) ::munmap(base_, static_cast<std::size_t>(size_));
  }

  const SnapshotMeta& meta() const override { return header_.meta; }
  std::int32_t NumNodes() const override { return header_.num_nodes; }
  std::int64_t NumNuclei() const override { return header_.num_ranked; }

  std::span<const Lambda> CliqueLambdas() const override {
    return Section<Lambda>(SnapshotSection::kLambda);
  }
  std::span<const Lambda> NodeLambdas() const override {
    return Section<Lambda>(SnapshotSection::kNodeLambda);
  }
  std::span<const std::int32_t> NodeParents() const override {
    return Section<std::int32_t>(SnapshotSection::kNodeParent);
  }
  std::span<const std::int32_t> NodeOfCliques() const override {
    return Section<std::int32_t>(SnapshotSection::kNodeOfClique);
  }
  std::span<const std::int32_t> Depths() const override {
    return Section<std::int32_t>(SnapshotSection::kDepth);
  }
  std::span<const std::int32_t> UpTable() const override {
    return Section<std::int32_t>(SnapshotSection::kUp);
  }
  std::int32_t IndexLevels() const override { return header_.levels; }
  std::span<const std::int32_t> DensityRanking() const override {
    return Section<std::int32_t>(SnapshotSection::kDensityRanking);
  }

  std::int64_t SubtreeSize(std::int32_t node) const override {
    return SubEnd()[node] - SubBegin()[node];
  }

  std::vector<CliqueId> MaterializeMembers(std::int32_t node) const override {
    const auto pre = Section<std::int32_t>(SnapshotSection::kCliquesPre);
    const std::int64_t begin = SubBegin()[node];
    const std::int64_t end = SubEnd()[node];
    // One contiguous slice of the member store; re-sorting ascending makes
    // the result bit-identical to the heap path's MembersOfSubtree.
    std::vector<CliqueId> members(pre.begin() + begin, pre.begin() + end);
    std::sort(members.begin(), members.end());
    return members;
  }

  Status Ensure(std::uint32_t needs) const override {
    const std::uint32_t groups = GroupsForNeeds(needs);
    if ((verified_.load(std::memory_order_acquire) & groups) == groups) {
      return Status::Ok();
    }
    MutexLock lock(verify_mutex_);
    // A sticky failure: one corrupt section poisons the source, every
    // later query gets the original diagnosis instead of a re-scan.
    if (!error_.ok()) return error_;
    // Fixed order = dependency order (tree before everything, sub before
    // pre), regardless of which bits the caller asked for first.
    const std::uint32_t todo =
        groups & ~verified_.load(std::memory_order_relaxed);
    for (const std::uint32_t group :
         {kGroupTree, kGroupAssign, kGroupIndex, kGroupSub, kGroupPre,
          kGroupRanking}) {
      if ((todo & group) == 0) continue;
      if (Status s = VerifyGroup(group); !s.ok()) {
        error_ = s;
        return error_;
      }
      verified_.fetch_or(group, std::memory_order_release);
    }
    return Status::Ok();
  }

  std::int64_t HeapBytes() const override {
    return static_cast<std::int64_t>(sizeof(MmapSource));
  }
  std::int64_t MappedBytes() const override { return size_; }

 private:
  MmapSource(void* base, std::int64_t size, std::string path,
             const v2::V2Header& header)
      : base_(base), size_(size), path_(std::move(path)), header_(header) {}

  template <typename T>
  std::span<const T> Section(SnapshotSection id) const {
    const v2::V2Header& h = header_;
    const SnapshotSectionEntry& entry =
        h.sections[static_cast<std::uint32_t>(id) - 1];
    const auto* data = reinterpret_cast<const T*>(
        static_cast<const unsigned char*>(base_) + entry.offset);
    return {data, static_cast<std::size_t>(entry.length) / sizeof(T)};
  }

  std::span<const std::int64_t> SubBegin() const {
    return Section<std::int64_t>(SnapshotSection::kSubBegin);
  }
  std::span<const std::int64_t> SubEnd() const {
    return Section<std::int64_t>(SnapshotSection::kSubEnd);
  }

  Status VerifyDigests(std::initializer_list<SnapshotSection> sections)
      const {
    const auto* base = static_cast<const unsigned char*>(base_);
    for (const SnapshotSection id : sections) {
      const SnapshotSectionEntry& entry =
          header_.sections[static_cast<std::uint32_t>(id) - 1];
      if (Status s =
              v2::VerifySectionDigest(base + entry.offset, entry, id, path_);
          !s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  Status VerifyGroup(std::uint32_t group) const {
    switch (group) {
      case kGroupTree:
        if (Status s = VerifyDigests({SnapshotSection::kNodeLambda,
                                      SnapshotSection::kNodeParent});
            !s.ok()) {
          return s;
        }
        return v2::ValidateTreeSections(path_, header_, NodeLambdas().data(),
                                        NodeParents().data());
      case kGroupAssign:
        if (Status s = VerifyDigests({SnapshotSection::kLambda,
                                      SnapshotSection::kNodeOfClique});
            !s.ok()) {
          return s;
        }
        return v2::ValidateAssignSections(path_, header_,
                                          CliqueLambdas().data(),
                                          NodeLambdas().data(),
                                          NodeOfCliques().data());
      case kGroupIndex:
        if (Status s = VerifyDigests(
                {SnapshotSection::kDepth, SnapshotSection::kUp});
            !s.ok()) {
          return s;
        }
        return v2::ValidateIndexSections(path_, header_,
                                         NodeParents().data(),
                                         Depths().data(), UpTable().data());
      case kGroupSub:
        if (Status s = VerifyDigests({SnapshotSection::kSubBegin,
                                      SnapshotSection::kSubEnd});
            !s.ok()) {
          return s;
        }
        return v2::ValidateSubSections(path_, header_, NodeParents().data(),
                                       NodeOfCliques().data(),
                                       SubBegin().data(), SubEnd().data());
      case kGroupPre:
        if (Status s = VerifyDigests({SnapshotSection::kCliquesPre});
            !s.ok()) {
          return s;
        }
        return v2::ValidateCliquesPre(
            path_, header_, NodeOfCliques().data(), SubBegin().data(),
            SubEnd().data(),
            Section<std::int32_t>(SnapshotSection::kCliquesPre).data());
      case kGroupRanking:
        if (Status s = VerifyDigests({SnapshotSection::kDensityRanking});
            !s.ok()) {
          return s;
        }
        return v2::ValidateRankingSection(path_, header_,
                                          NodeLambdas().data(),
                                          DensityRanking().data());
      default:
        return Status::Internal("unknown verification group");
    }
  }

  void* base_ = nullptr;
  std::int64_t size_ = 0;
  std::string path_;
  v2::V2Header header_;

  mutable std::atomic<std::uint32_t> verified_{0};
  mutable Mutex verify_mutex_;
  // Sticky first verification failure.
  mutable Status error_ GUARDED_BY(verify_mutex_);
};

StatusOr<std::shared_ptr<const SnapshotSource>> MmapSource::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(path + ": fstat failed: " +
                            std::strerror(err));
  }
  const std::int64_t size = static_cast<std::int64_t>(st.st_size);
  // An empty file cannot be mapped; ParseV2Header reports it truncated
  // without touching the (null) base.
  void* base = size > 0 ? ::mmap(nullptr, static_cast<std::size_t>(size),
                                 PROT_READ, MAP_PRIVATE, fd, 0)
                        : nullptr;
  // The mapping keeps its own reference to the file; the descriptor is
  // only needed to create it.
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::Internal(path + ": mmap failed: " + std::strerror(errno));
  }
  v2::V2Header header;
  if (Status s = v2::ParseV2Header(static_cast<const unsigned char*>(base),
                                   size, path, &header);
      !s.ok()) {
    if (base != nullptr) ::munmap(base, static_cast<std::size_t>(size));
    return s;
  }
  return std::shared_ptr<const SnapshotSource>(
      new MmapSource(base, size, path, header));
}

}  // namespace

// ---------------------------------------------------------------------------
// Factory + view primitives

StatusOr<std::shared_ptr<const SnapshotSource>> OpenSnapshotSource(
    const std::string& path, SnapshotMemoryMode mode) {
  if (mode == SnapshotMemoryMode::kMmap) return MmapSource::Open(path);
  StatusOr<SnapshotData> snapshot = LoadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  return std::shared_ptr<const SnapshotSource>(
      std::make_shared<HeapSource>(std::move(*snapshot)));
}

SourceView MakeSourceView(const SnapshotSource& source) {
  SourceView view;
  view.clique_lambda = source.CliqueLambdas();
  view.node_lambda = source.NodeLambdas();
  view.node_parent = source.NodeParents();
  view.node_of_clique = source.NodeOfCliques();
  view.depth = source.Depths();
  view.up = source.UpTable();
  view.levels = source.IndexLevels();
  view.ranking = source.DensityRanking();
  return view;
}

}  // namespace nucleus

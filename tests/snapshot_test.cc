// .nucsnap store: lossless round trips, the legacy v1 upgrade path over
// committed fixtures (tests/data/v1/), one negative catalogue per reader
// (the v2 loaders, and the upgrade-only v1 reader), and an exhaustive
// corruption sweep — every byte flip and every truncation of a small
// snapshot per family must surface as a Status or load answer-identically,
// never as UB. Suites named SnapshotSourceV2* are picked up by the CI TSan
// job.
#include "nucleus/store/snapshot.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/core/hierarchy_index.h"
#include "nucleus/graph/edge_list_io.h"
#include "nucleus/store/delta.h"
#include "nucleus/store/snapshot_source.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::GraphZoo;
using testing_util::TempPath;
using testing_util::TestDataPath;

void ExpectHierarchyEqual(const NucleusHierarchy& a,
                          const NucleusHierarchy& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumCliques(), b.NumCliques());
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.NumNuclei(), b.NumNuclei());
  EXPECT_EQ(a.MaxLambda(), b.MaxLambda());
  for (std::int32_t id = 0; id < a.NumNodes(); ++id) {
    const auto& na = a.node(id);
    const auto& nb = b.node(id);
    EXPECT_EQ(na.lambda, nb.lambda) << "node " << id;
    EXPECT_EQ(na.parent, nb.parent) << "node " << id;
    EXPECT_EQ(na.children, nb.children) << "node " << id;
    EXPECT_EQ(na.members, nb.members) << "node " << id;
    EXPECT_EQ(na.subtree_members, nb.subtree_members) << "node " << id;
  }
  for (CliqueId u = 0; u < a.NumCliques(); ++u) {
    EXPECT_EQ(a.NodeOfClique(u), b.NodeOfClique(u)) << "clique " << u;
  }
}

/// Lambdas, hierarchy and jump tables all equal (`actual` must carry
/// tables; they are compared against a fresh build for `expected`).
void ExpectSnapshotEqual(const SnapshotData& expected,
                         const SnapshotData& actual) {
  EXPECT_EQ(actual.meta.family, expected.meta.family);
  EXPECT_EQ(actual.meta.graph_fingerprint, expected.meta.graph_fingerprint);
  EXPECT_EQ(actual.meta.num_cliques, expected.meta.num_cliques);
  EXPECT_EQ(actual.meta.max_lambda, expected.meta.max_lambda);
  EXPECT_EQ(actual.peel.lambda, expected.peel.lambda);
  ExpectHierarchyEqual(expected.hierarchy, actual.hierarchy);
  ASSERT_TRUE(actual.has_index);
  const HierarchyIndexTables fresh =
      HierarchyIndex(expected.hierarchy).Tables();
  EXPECT_EQ(actual.index_tables.levels, fresh.levels);
  EXPECT_EQ(actual.index_tables.depth, fresh.depth);
  EXPECT_EQ(actual.index_tables.up, fresh.up);
}

SnapshotData BuildSnapshot(const Graph& g, Family family, bool with_index,
                           Algorithm algorithm = Algorithm::kFnd) {
  DecomposeOptions options;
  options.family = family;
  options.algorithm = algorithm;
  const DecompositionResult result = Decompose(g, options);
  return MakeSnapshot(g, options, result, with_index);
}

Graph ZooGraph(const std::string& name) {
  for (const testing_util::GraphCase& c : GraphZoo()) {
    if (c.name == name) return c.make();
  }
  ADD_FAILURE() << "no zoo graph " << name;
  return Graph();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

void ExpectUpgradeHint(const Status& status) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("snapshot-upgrade"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Lossless round trips across the zoo for all three spaces.

class SnapshotZooTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(SnapshotZooTest, RoundTripsLosslesslyAllFamilies) {
  const Graph g = GetParam().make();
  const std::string path = TempPath("zoo_" + GetParam().name + ".nucsnap");
  for (Family family :
       {Family::kCore12, Family::kTruss23, Family::kNucleus34}) {
    const SnapshotData original = BuildSnapshot(g, family, true);
    ASSERT_TRUE(SaveSnapshot(original, path).ok());

    StatusOr<SnapshotData> loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->meta.family, family);
    EXPECT_EQ(loaded->meta.algorithm, Algorithm::kFnd);
    EXPECT_EQ(loaded->meta.num_vertices, g.NumVertices());
    EXPECT_EQ(loaded->meta.num_edges, g.NumEdges());
    EXPECT_EQ(loaded->meta.graph_fingerprint, GraphFingerprint(g));
    EXPECT_EQ(loaded->meta.num_cliques, original.meta.num_cliques);
    EXPECT_EQ(loaded->meta.max_lambda, original.meta.max_lambda);

    EXPECT_EQ(loaded->peel.lambda, original.peel.lambda);
    EXPECT_EQ(loaded->peel.max_lambda, original.peel.max_lambda);
    ExpectHierarchyEqual(original.hierarchy, loaded->hierarchy);
    // The loaded hierarchy passes the full structural invariant check.
    loaded->hierarchy.Validate(loaded->peel.lambda);

    ASSERT_TRUE(loaded->has_index);
    EXPECT_EQ(loaded->index_tables.levels, original.index_tables.levels);
    EXPECT_EQ(loaded->index_tables.depth, original.index_tables.depth);
    EXPECT_EQ(loaded->index_tables.up, original.index_tables.up);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Zoo, SnapshotZooTest, ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

class SnapshotSourceV2ZooTest
    : public ::testing::TestWithParam<testing_util::GraphCase> {};

TEST_P(SnapshotSourceV2ZooTest, EagerLoadRoundTripsLosslesslyAllFamilies) {
  const Graph g = GetParam().make();
  const std::string path = TempPath("v2_zoo_" + GetParam().name + ".nucsnap");
  for (Family family :
       {Family::kCore12, Family::kTruss23, Family::kNucleus34}) {
    // Save WITHOUT index tables: every file embeds them, so the load must
    // come back index-ready regardless of what the writer was handed.
    const SnapshotData original = BuildSnapshot(g, family, false);
    ASSERT_TRUE(SaveSnapshot(original, path).ok());

    StatusOr<SnapshotData> loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSnapshotEqual(original, *loaded);
    loaded->hierarchy.Validate(loaded->peel.lambda);
  }
  std::remove(path.c_str());
}

TEST_P(SnapshotSourceV2ZooTest, UpgradeConvertsV1Losslessly) {
  // The committed v1 fixture was written from this very zoo graph, so its
  // upgrade must equal a fresh decomposition.
  const Graph g = GetParam().make();
  const std::string v2_path =
      TempPath("upgrade_" + GetParam().name + "_v2.nucsnap");
  ASSERT_TRUE(UpgradeSnapshot(
                  TestDataPath("v1/zoo_" + GetParam().name + "_core.nucsnap"),
                  v2_path)
                  .ok());
  auto version = ReadSnapshotVersion(v2_path);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);

  StatusOr<SnapshotData> upgraded = LoadSnapshot(v2_path);
  ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  ExpectSnapshotEqual(BuildSnapshot(g, Family::kCore12, true), *upgraded);
  std::remove(v2_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Zoo, SnapshotSourceV2ZooTest,
                         ::testing::ValuesIn(GraphZoo()),
                         [](const auto& info) { return info.param.name; });

TEST(Snapshot, RoundTripsWithoutIndexTables) {
  // A SnapshotData without jump tables still saves: the writer builds them,
  // so the load is index-ready and the tables match a fresh build.
  const Graph g = testing_util::PaperFigure2Graph();
  const SnapshotData original = BuildSnapshot(g, Family::kTruss23, false);
  const std::string path = TempPath("noindex.nucsnap");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  StatusOr<SnapshotData> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSnapshotEqual(original, *loaded);
  std::remove(path.c_str());
}

TEST(Snapshot, IndexTablesMatchFreshBuild) {
  const Graph g = ErdosRenyiGnp(60, 0.10, 11);
  const SnapshotData original = BuildSnapshot(g, Family::kCore12, true);
  const std::string path = TempPath("tables.nucsnap");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  StatusOr<SnapshotData> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const HierarchyIndexTables rebuilt =
      HierarchyIndex(loaded->hierarchy).Tables();
  EXPECT_EQ(loaded->index_tables.levels, rebuilt.levels);
  EXPECT_EQ(loaded->index_tables.depth, rebuilt.depth);
  EXPECT_EQ(loaded->index_tables.up, rebuilt.up);
  std::remove(path.c_str());
}

TEST(Snapshot, MetaProbeMatchesFullLoad) {
  const Graph g = testing_util::BowTieGraph();
  const SnapshotData original = BuildSnapshot(g, Family::kNucleus34, true);
  const std::string path = TempPath("probe.nucsnap");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  StatusOr<SnapshotMeta> meta = ReadSnapshotMeta(path);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->family, Family::kNucleus34);
  EXPECT_EQ(meta->num_cliques, original.meta.num_cliques);
  EXPECT_EQ(meta->graph_fingerprint, GraphFingerprint(g));
  std::remove(path.c_str());
}

TEST(Snapshot, GraphFingerprintDiscriminates) {
  const std::uint64_t a = GraphFingerprint(Complete(6));
  const std::uint64_t b = GraphFingerprint(Complete(7));
  const std::uint64_t c = GraphFingerprint(Cycle(6));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, GraphFingerprint(Complete(6)));
}

TEST(Snapshot, SaveFailsOnUnwritablePath) {
  const SnapshotData snapshot =
      BuildSnapshot(Path(4), Family::kCore12, false);
  const Status s = SaveSnapshot(snapshot, "/nonexistent_dir/x.nucsnap");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Legacy v1 files: only UpgradeSnapshot reads them.

std::string WriteFigure2Snapshot(const std::string& name) {
  const std::string path = TempPath(name);
  const SnapshotData snapshot = BuildSnapshot(
      testing_util::PaperFigure2Graph(), Family::kCore12, false);
  EXPECT_TRUE(SaveSnapshot(snapshot, path).ok());
  return path;
}

TEST(SnapshotSourceV2, VersionProbeDistinguishesV1V2AndGarbage) {
  const std::string v1_path = TestDataPath("v1/zoo_figure2_core.nucsnap");
  const std::string v2_path = WriteFigure2Snapshot("probe_v2.nucsnap");

  auto v1 = ReadSnapshotVersion(v1_path);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);
  auto v2 = ReadSnapshotVersion(v2_path);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);

  auto missing = ReadSnapshotVersion(TempPath("probe_missing.nucsnap"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const std::string garbage_path = TempPath("probe_garbage.nucsnap");
  WriteFileBytes(garbage_path, "GARBAGEGARBAGE");
  EXPECT_FALSE(ReadSnapshotVersion(garbage_path).ok());

  std::remove(v2_path.c_str());
  std::remove(garbage_path.c_str());
}

TEST(SnapshotSourceV2, LoadersRejectV1WithUpgradeHint) {
  // Every loader refuses a v1 file and names the command that converts
  // it; the upgraded file then loads through each of them.
  const std::string v1_path = TestDataPath("v1/zoo_figure2_core.nucsnap");
  ExpectUpgradeHint(LoadSnapshot(v1_path).status());
  ExpectUpgradeHint(ReadSnapshotMeta(v1_path).status());
  ExpectUpgradeHint(
      OpenSnapshotSource(v1_path, SnapshotMemoryMode::kHeap).status());
  ExpectUpgradeHint(
      OpenSnapshotSource(v1_path, SnapshotMemoryMode::kMmap).status());

  const std::string upgraded = TempPath("hint_upgraded.nucsnap");
  ASSERT_TRUE(UpgradeSnapshot(v1_path, upgraded).ok());
  StatusOr<SnapshotData> loaded = LoadSnapshot(upgraded);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSnapshotEqual(BuildSnapshot(testing_util::PaperFigure2Graph(),
                                    Family::kCore12, true),
                      *loaded);
  EXPECT_TRUE(ReadSnapshotMeta(upgraded).ok());
  auto heap = OpenSnapshotSource(upgraded, SnapshotMemoryMode::kHeap);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_EQ((*heap)->MappedBytes(), 0);
  EXPECT_GT((*heap)->HeapBytes(), 0);
  auto mapped = OpenSnapshotSource(upgraded, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_GT((*mapped)->MappedBytes(), 0);
  std::remove(upgraded.c_str());
}

TEST(SnapshotSourceV2, UpgradeAcceptsV2InputIdempotently) {
  const std::string v2_path = WriteFigure2Snapshot("idem_v2.nucsnap");
  const std::string again_path = TempPath("idem_v2_again.nucsnap");
  ASSERT_TRUE(UpgradeSnapshot(v2_path, again_path).ok());
  StatusOr<SnapshotData> a = LoadSnapshot(v2_path);
  StatusOr<SnapshotData> b = LoadSnapshot(again_path);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectHierarchyEqual(a->hierarchy, b->hierarchy);
  EXPECT_EQ(ReadFileBytes(v2_path), ReadFileBytes(again_path));
  std::remove(v2_path.c_str());
  std::remove(again_path.c_str());
}

TEST(SnapshotUpgrade, FamilyFixturesMatchFreshDecompose) {
  // One fixture per family beyond the (1,2) zoo set: a (2,3) file saved
  // without jump tables and a (3,4) file with them.
  struct Case {
    std::string fixture;
    Graph graph;
    Family family;
  };
  const Case cases[] = {
      {"v1/figure2_truss_noindex.nucsnap", testing_util::PaperFigure2Graph(),
       Family::kTruss23},
      {"v1/two_k5_bridge_34.nucsnap", ZooGraph("two_k5_bridge"),
       Family::kNucleus34},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.fixture);
    const std::string out = TempPath("family_upgraded.nucsnap");
    ASSERT_TRUE(UpgradeSnapshot(TestDataPath(c.fixture), out).ok());
    StatusOr<SnapshotData> upgraded = LoadSnapshot(out);
    ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
    ExpectSnapshotEqual(BuildSnapshot(c.graph, c.family, false), *upgraded);
    std::remove(out.c_str());
  }
}

TEST(SnapshotUpgrade, UpgradedBaseResolvesDeltaChain) {
  // Delta records never changed format and fingerprint only the graph and
  // the lambdas, so a delta written against the v1 base chains onto its
  // upgrade and resolves to a fresh kDft decomposition of the edited graph.
  const std::string delta = TestDataPath("v1/figure2_d1.nucdelta");
  const StatusOr<Graph> edited =
      ReadEdgeList(TestDataPath("v1/figure2_edited.txt"));
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  const std::string v1_base = TestDataPath("v1/figure2_core_dft.nucsnap");
  ExpectUpgradeHint(ResolveChain({v1_base, delta}, *edited).status());

  const std::string base = TempPath("chain_upgraded_base.nucsnap");
  ASSERT_TRUE(UpgradeSnapshot(v1_base, base).ok());
  StatusOr<SnapshotData> resolved = ResolveChain({base, delta}, *edited);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const SnapshotData fresh =
      BuildSnapshot(*edited, Family::kCore12, false, Algorithm::kDft);
  EXPECT_EQ(resolved->peel.lambda, fresh.peel.lambda);
  EXPECT_NE(resolved->peel.lambda, LoadSnapshot(base)->peel.lambda);
  ExpectHierarchyEqual(fresh.hierarchy, resolved->hierarchy);
  std::remove(base.c_str());
}

// ---------------------------------------------------------------------------
// Loader error messages: every store loader reports `path: section: reason`
// so operators can grep one shape across snapshot, upgrade and delta
// failures.

TEST(SnapshotSourceV2, LoaderErrorsFollowPathSectionReasonShape) {
  const std::string path = TempPath("shape.nucsnap");
  const std::string upgrade_out = TempPath("shape_upgraded.nucsnap");
  {
    std::ofstream out(path, std::ios::binary);
    out << "short";
  }
  // Snapshot loader.
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(), path + ": header: truncated snapshot");
  // Upgrade, the only entry to the legacy v1 reader.
  const Status upgraded = UpgradeSnapshot(path, upgrade_out);
  ASSERT_FALSE(upgraded.ok());
  EXPECT_EQ(upgraded.message(), path + ": header: truncated snapshot");
  // Delta loader.
  auto delta = LoadDelta(path);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().message(),
            path + ": header: truncated delta record");

  // Wrong-magic messages carry the same prefix discipline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << std::string(400, 'x');
  }
  auto bad_load = LoadSnapshot(path);
  ASSERT_FALSE(bad_load.ok());
  EXPECT_EQ(bad_load.status().message(),
            path + ": header: bad magic (not a snapshot file)");
  const Status bad_upgrade = UpgradeSnapshot(path, upgrade_out);
  ASSERT_FALSE(bad_upgrade.ok());
  EXPECT_EQ(bad_upgrade.message(),
            path + ": header: bad magic (not a snapshot file)");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Byte-patching helpers. The header digest covers preamble + directory, so
// directory patches must re-checksum the header; section patches must
// re-digest the section entry too when the test wants semantic validation
// (not the checksum) to catch the corruption.

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Mirror of store_v2_internal::SectionDigest (word-wise FNV-1a) —
/// reimplemented here so a digest-scheme regression in the store shows up
/// as a test failure instead of silently propagating into the fixtures.
std::uint64_t Fnv1a(const std::string& bytes, std::size_t offset,
                    std::size_t length) {
  std::uint64_t hash = kFnvOffsetBasis;
  std::size_t i = offset;
  for (; i + 8 <= offset + length; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    hash ^= word;
    hash *= kFnvPrime;
  }
  for (; i < offset + length; ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

constexpr std::size_t kDirStart = 72;
constexpr std::size_t kHeaderDigestOffset = 392;  // preamble + directory

template <typename T>
T ReadField(const std::string& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void PatchField(std::string* bytes, std::size_t offset, T value) {
  bytes->replace(offset, sizeof(T), reinterpret_cast<const char*>(&value),
                 sizeof(T));
}

/// Recomputes the header digest after a preamble/directory patch, so the
/// downstream check under test — not the header checksum — must fire.
void RechecksumHeader(std::string* bytes) {
  PatchField(bytes, kHeaderDigestOffset,
             Fnv1a(*bytes, 0, kHeaderDigestOffset));
}

std::size_t DirEntry(std::uint32_t section_index) {
  return kDirStart + section_index * 32;
}

/// Overwrites element `element` of section `section_index` (0-based) and
/// re-digests the section and the header, so only structural validation
/// can reject the file.
void PatchSection(std::string* bytes, std::uint32_t section_index,
                  std::size_t element, std::int32_t value) {
  const auto offset = static_cast<std::size_t>(
      ReadField<std::int64_t>(*bytes, DirEntry(section_index) + 8));
  const auto length = static_cast<std::size_t>(
      ReadField<std::int64_t>(*bytes, DirEntry(section_index) + 16));
  PatchField(bytes, offset + element * sizeof(std::int32_t), value);
  PatchField(bytes, DirEntry(section_index) + 24,
             Fnv1a(*bytes, offset, length));
  RechecksumHeader(bytes);
}

// ---------------------------------------------------------------------------
// Negative catalogue of the loaders (LoadSnapshot, and the mmap source
// where its lazy path differs).

TEST(SnapshotSourceV2Negative, MissingFileIsNotFound) {
  auto result = LoadSnapshot(TempPath("v2_does_not_exist.nucsnap"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  auto mapped = OpenSnapshotSource(TempPath("v2_does_not_exist.nucsnap"),
                                   SnapshotMemoryMode::kMmap);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotSourceV2Negative, RejectsTruncatedHeader) {
  const std::string path = TempPath("v2_trunc_header.nucsnap");
  WriteFileBytes(path, std::string("NUCSNAP2") + std::string(92, '\0'));
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsBadMagic) {
  const std::string path = WriteFigure2Snapshot("v2_bad_magic.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes.replace(0, 8, "NOTASNAP");
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsV1MagicOnV2Body) {
  // A v2 body wearing the v1 magic must fail CLEANLY in every reader: the
  // loaders point at snapshot-upgrade, and the upgrade's v1 reader rejects
  // the header it then finds.
  const std::string path = WriteFigure2Snapshot("v2_v1_magic.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes.replace(0, 8, "NUCSNAP1");
  WriteFileBytes(path, bytes);
  ExpectUpgradeHint(LoadSnapshot(path).status());
  ExpectUpgradeHint(
      OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).status());
  const Status upgraded = UpgradeSnapshot(path, TempPath("v2_v1_out"));
  ASSERT_FALSE(upgraded.ok());
  EXPECT_NE(upgraded.message().find("unsupported snapshot version 2"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsUnsupportedVersion) {
  const std::string path = WriteFigure2Snapshot("v2_bad_version.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::uint32_t>(&bytes, 8, 3);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unsupported snapshot version"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsUnknownFlags) {
  const std::string path = WriteFigure2Snapshot("v2_bad_flags.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::uint32_t>(&bytes, 12, 1);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown snapshot flags"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsTruncatedSection) {
  const std::string path = WriteFigure2Snapshot("v2_trunc_section.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() - 8);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("truncated"), std::string::npos);
  EXPECT_FALSE(OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsTrailingGarbage) {
  const std::string path = WriteFigure2Snapshot("v2_trailing.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes += std::string(16, 'z');
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("size mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsCorruptHeaderDigest) {
  // Flipping a per-section digest byte inside the directory breaks the
  // HEADER digest — directory integrity is eager, O(header).
  const std::string path = WriteFigure2Snapshot("v2_bad_dir_digest.nucsnap");
  std::string bytes = ReadFileBytes(path);
  bytes[DirEntry(0) + 24] ^= 0x01;
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("corrupt header/directory"),
            std::string::npos);
  EXPECT_FALSE(OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsDirectoryOffsetOutOfRange) {
  const std::string path = WriteFigure2Snapshot("v2_offset_oob.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::int64_t>(&bytes, DirEntry(0) + 8,
                           static_cast<std::int64_t>(bytes.size()) + 1024);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("offset out of range"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsMisalignedSectionOffset) {
  const std::string path = WriteFigure2Snapshot("v2_misaligned.nucsnap");
  std::string bytes = ReadFileBytes(path);
  const auto offset = ReadField<std::int64_t>(bytes, DirEntry(0) + 8);
  PatchField<std::int64_t>(&bytes, DirEntry(0) + 8, offset + 4);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("offset out of range"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsOverlappingSections) {
  const std::string path = WriteFigure2Snapshot("v2_overlap.nucsnap");
  std::string bytes = ReadFileBytes(path);
  const auto first_offset = ReadField<std::int64_t>(bytes, DirEntry(0) + 8);
  PatchField<std::int64_t>(&bytes, DirEntry(1) + 8, first_offset);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("overlapping sections"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsFlippedSectionByteEagerly) {
  const std::string path = WriteFigure2Snapshot("v2_flip_section.nucsnap");
  std::string bytes = ReadFileBytes(path);
  const auto offset = ReadField<std::int64_t>(bytes, DirEntry(0) + 8);
  bytes[static_cast<std::size_t>(offset)] ^= 0x01;
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "lambda: checksum mismatch (corrupt section)"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, MmapDefersSectionCorruptionToFirstUse) {
  // Flip a byte in the density-ranking section: the mmap open (header
  // only) succeeds, queries that never touch the ranking keep answering,
  // and the first Ensure(kNeedRanking) fails — stickily.
  const std::string path = WriteFigure2Snapshot("v2_lazy_corrupt.nucsnap");
  std::string bytes = ReadFileBytes(path);
  constexpr std::uint32_t kRankingIndex = 9;  // kDensityRanking id 10
  const auto offset =
      ReadField<std::int64_t>(bytes, DirEntry(kRankingIndex) + 8);
  bytes[static_cast<std::size_t>(offset)] ^= 0x01;
  WriteFileBytes(path, bytes);

  auto source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_GT((*source)->MappedBytes(), 0);
  EXPECT_TRUE((*source)->Ensure(kNeedLookup).ok());
  EXPECT_TRUE((*source)->Ensure(kNeedIndex | kNeedSizes).ok());
  EXPECT_TRUE((*source)->Ensure(kNeedMembers).ok());

  const Status first = (*source)->Ensure(kNeedRanking);
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.message().find("checksum mismatch"), std::string::npos);
  // Sticky: the second probe fails identically, without re-verifying.
  const Status second = (*source)->Ensure(kNeedRanking);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.message(), first.message());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsSemanticCorruptionBehindValidDigest) {
  // Point the root's parent at itself, then FIX both the section digest
  // and the header digest: structural validation — not a checksum — must
  // reject the file.
  const std::string path = WriteFigure2Snapshot("v2_semantic.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchSection(&bytes, /*kNodeParent*/ 2, 0, 0);
  WriteFileBytes(path, bytes);

  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("node_parent"),
            std::string::npos);

  // The lazy path rejects the same corruption on first tree access.
  auto source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(source.ok());
  EXPECT_FALSE((*source)->Ensure(kNeedLookup).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsLambdaAssignmentMismatch) {
  // One per-clique lambda disagrees with its node (figure2 core lambdas
  // are 2 or 3), digests kept valid.
  const std::string path = WriteFigure2Snapshot("v2_lambda.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchSection(&bytes, /*kLambda*/ 0, 0, 1);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "lambda: lambda / node assignment mismatch"),
            std::string::npos);
  auto source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(source.ok());
  EXPECT_FALSE((*source)->Ensure(kNeedLookup).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsCorruptJumpTable) {
  // up[0][1] must equal node 1's parent; point it elsewhere, digests kept
  // valid.
  const std::string path = WriteFigure2Snapshot("v2_jump.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchSection(&bytes, /*kUp*/ 5, 1, 2);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("up: corrupt index jump table"),
            std::string::npos);
  auto source = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE((*source)->Ensure(kNeedRanking).ok());
  EXPECT_FALSE((*source)->Ensure(kNeedIndex).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsImpossibleCounts) {
  const std::string path = WriteFigure2Snapshot("v2_counts.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::int32_t>(&bytes, 56, -1);  // node count
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("impossible counts"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsAbsurdCountsWithoutAllocating) {
  // A crafted 2^60 clique count must die on the size bound, not in an
  // allocator.
  const std::string path = WriteFigure2Snapshot("v2_absurd.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::int64_t>(&bytes, 44, std::int64_t{1} << 60);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("size mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsOverflowingCountsWithoutAllocating) {
  // 2^62 cliques would wrap the int64 section-length arithmetic
  // (4 * 2^62 == 0 mod 2^64); the count bound must fire first.
  const std::string path = WriteFigure2Snapshot("v2_overflow.nucsnap");
  std::string bytes = ReadFileBytes(path);
  PatchField<std::int64_t>(&bytes, 44, std::int64_t{1} << 62);
  RechecksumHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("size mismatch"),
            std::string::npos);
  EXPECT_FALSE(OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).ok());
  std::remove(path.c_str());
}

TEST(SnapshotSourceV2Negative, RejectsMmapModeOnV1Section) {
  // A v1 file has no section directory to map: kMmap refuses it with the
  // upgrade hint instead of quietly loading it onto the heap.
  const std::string path = TempPath("v2_mode_v1.nucsnap");
  std::string bytes = ReadFileBytes(TestDataPath("v1/zoo_figure2_core.nucsnap"));
  WriteFileBytes(path, bytes);
  ExpectUpgradeHint(
      OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).status());
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFileBytes(path, bytes);
  ExpectUpgradeHint(
      OpenSnapshotSource(path, SnapshotMemoryMode::kMmap).status());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Negative catalogue of the legacy v1 reader: each case mutates a copy of
// a committed v1 fixture and must be rejected by UpgradeSnapshot (the only
// code that reads v1) without writing the output. The framing checks are
// v1's own; the structural ones are the v2 validators.

/// Figure 2, (1,2) core, FND, with jump tables: 10 cliques, 4 nodes.
constexpr char kV1Fixture[] = "v1/zoo_figure2_core.nucsnap";
constexpr std::size_t kV1HeaderBytes = 64;

/// Rewrites the v1 footer (byte-wise FNV-1a over everything before it) so
/// semantic validation — not the checksum — must catch a patch.
void RechecksumV1(std::string* bytes) {
  std::uint64_t hash = kFnvOffsetBasis;
  for (std::size_t i = 0; i + 8 < bytes->size(); ++i) {
    hash ^= static_cast<unsigned char>((*bytes)[i]);
    hash *= kFnvPrime;
  }
  PatchField(bytes, bytes->size() - 8, hash);
}

void ExpectUpgradeRejects(const std::function<void(std::string*)>& mutate,
                          StatusCode code, const std::string& reason) {
  std::string bytes = ReadFileBytes(TestDataPath(kV1Fixture));
  ASSERT_EQ(ReadField<std::int64_t>(bytes, 44), 10);  // |K_r|
  ASSERT_EQ(ReadField<std::int32_t>(bytes, 56), 4);   // nodes
  mutate(&bytes);
  const std::string in = TempPath("v1_negative.nucsnap");
  const std::string out = TempPath("v1_negative_upgraded.nucsnap");
  WriteFileBytes(in, bytes);
  const Status status = UpgradeSnapshot(in, out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), code) << status.ToString();
  EXPECT_NE(status.message().find(reason), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(FileExists(out));
  std::remove(in.c_str());
}

TEST(SnapshotNegative, MissingFileIsNotFound) {
  const Status status = UpgradeSnapshot(TempPath("does_not_exist.nucsnap"),
                                        TempPath("never_written.nucsnap"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(SnapshotNegative, RejectsBadMagic) {
  ExpectUpgradeRejects([](std::string* b) { b->replace(0, 8, "NOTASNAP"); },
                       StatusCode::kInvalidArgument, "header: bad magic");
}

TEST(SnapshotNegative, RejectsTruncatedHeader) {
  ExpectUpgradeRejects([](std::string* b) { b->resize(20); },
                       StatusCode::kOutOfRange,
                       "header: truncated snapshot");
}

TEST(SnapshotNegative, RejectsUnsupportedVersion) {
  ExpectUpgradeRejects(
      [](std::string* b) { PatchField<std::uint32_t>(b, 8, 99); },
      StatusCode::kInvalidArgument, "unsupported snapshot version 99");
}

TEST(SnapshotNegative, RejectsUnknownFlags) {
  ExpectUpgradeRejects(
      [](std::string* b) { PatchField<std::uint32_t>(b, 12, 0x10); },
      StatusCode::kInvalidArgument, "unknown snapshot flags");
}

TEST(SnapshotNegative, RejectsTruncatedPayload) {
  ExpectUpgradeRejects([](std::string* b) { b->resize(b->size() - 12); },
                       StatusCode::kInvalidArgument, "size mismatch");
}

TEST(SnapshotNegative, RejectsTrailingGarbage) {
  ExpectUpgradeRejects([](std::string* b) { *b += "garbage"; },
                       StatusCode::kInvalidArgument, "size mismatch");
}

TEST(SnapshotNegative, RejectsAbsurdCountsWithoutAllocating) {
  ExpectUpgradeRejects(
      [](std::string* b) {
        PatchField<std::int64_t>(b, 44, std::int64_t{1} << 40);
      },
      StatusCode::kInvalidArgument, "size mismatch");
}

TEST(SnapshotNegative, RejectsOverflowingCountsWithoutAllocating) {
  ExpectUpgradeRejects(
      [](std::string* b) {
        PatchField<std::int64_t>(b, 44, std::int64_t{1} << 62);
      },
      StatusCode::kInvalidArgument, "size mismatch");
}

TEST(SnapshotNegative, RejectsFlippedPayloadByte) {
  ExpectUpgradeRejects([](std::string* b) { (*b)[70] ^= 0x40; },
                       StatusCode::kInvalidArgument,
                       "footer: checksum mismatch");
}

TEST(SnapshotNegative, RejectsSemanticCorruptionBehindValidChecksum) {
  // node_parent[1] := 1 (itself), behind a valid footer.
  ExpectUpgradeRejects(
      [](std::string* b) {
        PatchField<std::int32_t>(b, kV1HeaderBytes + (10 + 4 + 1) * 4, 1);
        RechecksumV1(b);
      },
      StatusCode::kInvalidArgument, "node_parent: corrupt parent order");
}

TEST(SnapshotNegative, RejectsLambdaAssignmentMismatch) {
  ExpectUpgradeRejects(
      [](std::string* b) {
        PatchField<std::int32_t>(b, kV1HeaderBytes, 1);
        RechecksumV1(b);
      },
      StatusCode::kInvalidArgument, "lambda / node assignment mismatch");
}

TEST(SnapshotNegative, RejectsCorruptJumpTable) {
  // up[0][1] := 2, after lambda, node_lambda, node_parent, node_of_clique
  // and depth.
  ExpectUpgradeRejects(
      [](std::string* b) {
        PatchField<std::int32_t>(
            b, kV1HeaderBytes + (2 * 10 + 3 * 4 + 1) * 4, 2);
        RechecksumV1(b);
      },
      StatusCode::kInvalidArgument, "up: corrupt index jump table");
}

// ---------------------------------------------------------------------------
// Exhaustive corruption sweep: every single-byte flip (XOR 0xFF) and every
// truncation of a small snapshot, through the eager loader AND the mmap
// source with every need ensured. Each mutation must be rejected with a
// Status or load to a state observably identical to the original (e.g. a
// flip inside alignment padding, which no digest covers).

/// Everything a client can observe through a source: meta, every view,
/// and every node's subtree size and member list.
std::string ObservableState(const SnapshotSource& source) {
  std::ostringstream out;
  const SnapshotMeta& meta = source.meta();
  out << static_cast<int>(meta.family) << ' '
      << static_cast<int>(meta.algorithm) << ' ' << meta.num_vertices << ' '
      << meta.num_edges << ' ' << meta.graph_fingerprint << ' '
      << meta.num_cliques << ' ' << meta.max_lambda << ' '
      << source.NumNuclei() << '\n';
  const auto dump = [&out](const auto& values) {
    for (const auto value : values) out << value << ' ';
    out << '\n';
  };
  const SourceView view = MakeSourceView(source);
  dump(view.clique_lambda);
  dump(view.node_lambda);
  dump(view.node_parent);
  dump(view.node_of_clique);
  dump(view.depth);
  dump(view.up);
  dump(view.ranking);
  out << view.levels << '\n';
  for (std::int32_t node = 0; node < source.NumNodes(); ++node) {
    out << source.SubtreeSize(node) << ": ";
    dump(source.MaterializeMembers(node));
  }
  return out.str();
}

constexpr std::uint32_t kAllNeeds =
    kNeedLookup | kNeedIndex | kNeedSizes | kNeedMembers | kNeedRanking;

struct SweepCase {
  std::string name;
  std::string graph;
  Family family;
};

void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

class SnapshotCorruptionSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SnapshotCorruptionSweep, EveryFlipAndTruncationIsRejectedOrIdentical) {
  const SweepCase& c = GetParam();
  const std::string original_path = TempPath("sweep_" + c.name + ".nucsnap");
  ASSERT_TRUE(SaveSnapshot(BuildSnapshot(ZooGraph(c.graph), c.family, true),
                           original_path)
                  .ok());
  StatusOr<SnapshotData> original = LoadSnapshot(original_path);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const std::string expected =
      ObservableState(HeapSource(std::move(*original)));
  const std::string bytes = ReadFileBytes(original_path);
  std::remove(original_path.c_str());

  const std::string path = TempPath("sweep_" + c.name + "_mutant.nucsnap");
  std::int64_t identical_loads = 0;
  const auto check = [&](const std::string& mutant, const std::string& what) {
    WriteFileBytes(path, mutant);
    StatusOr<SnapshotData> loaded = LoadSnapshot(path);
    if (loaded.ok()) {
      ++identical_loads;
      EXPECT_EQ(ObservableState(HeapSource(std::move(*loaded))), expected)
          << what << " loaded eagerly to a different state";
    }
    auto mapped = OpenSnapshotSource(path, SnapshotMemoryMode::kMmap);
    if (mapped.ok() && (*mapped)->Ensure(kAllNeeds).ok()) {
      EXPECT_EQ(ObservableState(**mapped), expected)
          << what << " mapped to a different state";
    }
  };
  check(bytes, "the original");
  ASSERT_EQ(identical_loads, 1);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutant = bytes;
    mutant[i] = static_cast<char>(mutant[i] ^ 0xFF);
    check(mutant, "flip at byte " + std::to_string(i));
  }
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    check(bytes.substr(0, length), "truncation to " + std::to_string(length));
  }
  // Only padding flips can load, and a file has fewer than 8 padding bytes
  // per section.
  EXPECT_LT(identical_loads, 1 + 8 * static_cast<std::int64_t>(
                                         kSnapshotV2SectionCount));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Families, SnapshotCorruptionSweep,
    ::testing::Values(SweepCase{"core", "figure2", Family::kCore12},
                      SweepCase{"truss", "bowtie", Family::kTruss23},
                      SweepCase{"nucleus34", "two_k5_bridge",
                                Family::kNucleus34}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace nucleus

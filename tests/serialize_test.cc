// Tests for model persistence (core/serialize.h): round trips, corrupt
// inputs, and query equivalence of loaded models.

#include "core/serialize.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/framework.h"
#include "core/scape.h"
#include "core/streaming.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

AffinityModel BuildModel(std::uint64_t seed = 13) {
  ts::DatasetSpec spec;
  spec.num_series = 24;
  spec.num_samples = 80;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = seed;
  const ts::Dataset ds = ts::MakeSensorData(spec);
  auto model = BuildAffinityModel(ds.matrix, AfclstOptions{.k = 3}, SymexOptions{});
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(Serialize, RoundTripPreservesStructure) {
  const AffinityModel original = BuildModel();
  const std::string path = TempPath("model.affm");
  ASSERT_TRUE(SaveModel(original, path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->relationship_count(), original.relationship_count());
  EXPECT_EQ(loaded->pivot_count(), original.pivot_count());
  EXPECT_EQ(loaded->data().n(), original.data().n());
  EXPECT_EQ(loaded->data().m(), original.data().m());
  EXPECT_EQ(loaded->data().names(), original.data().names());
  EXPECT_NEAR(loaded->data().matrix().MaxAbsDiff(original.data().matrix()), 0.0, 0.0);
  EXPECT_NEAR(loaded->clustering().centers.MaxAbsDiff(original.clustering().centers), 0.0, 0.0);
  EXPECT_EQ(loaded->clustering().assignment, original.clustering().assignment);
  EXPECT_EQ(loaded->stats().relationships, original.stats().relationships);
}

TEST(Serialize, LoadedModelAnswersIdentically) {
  const AffinityModel original = BuildModel();
  const std::string path = TempPath("model2.affm");
  ASSERT_TRUE(SaveModel(original, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());

  for (const auto& e : ts::AllSequencePairs(original.data().n())) {
    for (Measure m : {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation}) {
      EXPECT_DOUBLE_EQ(*loaded->PairMeasure(m, e), *original.PairMeasure(m, e));
    }
  }
  for (ts::SeriesId v = 0; v < original.data().n(); ++v) {
    for (Measure m : {Measure::kMean, Measure::kMedian, Measure::kMode}) {
      EXPECT_DOUBLE_EQ(*loaded->SeriesMeasure(m, v), *original.SeriesMeasure(m, v));
    }
  }
}

TEST(Serialize, ScapeRebuildFromLoadedModelMatches) {
  const AffinityModel original = BuildModel();
  const std::string path = TempPath("model3.affm");
  ASSERT_TRUE(SaveModel(original, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());

  auto index_a = ScapeIndex::Build(original);
  auto index_b = ScapeIndex::Build(*loaded);
  ASSERT_TRUE(index_a.ok());
  ASSERT_TRUE(index_b.ok());
  auto result_a = index_a->MeasureThreshold(Measure::kCorrelation, 0.8, true);
  auto result_b = index_b->MeasureThreshold(Measure::kCorrelation, 0.8, true);
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  auto pa = result_a->pairs, pb = result_b->pairs;
  std::sort(pa.begin(), pa.end());
  std::sort(pb.begin(), pb.end());
  EXPECT_EQ(pa, pb);
}

TEST(Serialize, IncrementallyMaintainedModelRoundTripsBitIdentically) {
  // A model produced by incremental maintenance (DESIGN.md §8) — slid
  // window, extended centres, delta-updated transforms — must persist
  // exactly like a built one: save → load → every field bit-identical.
  ts::DatasetSpec spec;
  spec.num_series = 10;
  spec.num_samples = 200;
  spec.num_clusters = 3;
  spec.noise_level = 0.03;
  spec.seed = 31;
  const ts::Dataset ds = ts::MakeSensorData(spec);

  StreamingOptions options;
  options.window = 40;
  options.rebuild_interval = 4;
  options.mode = UpdateMode::kIncremental;
  options.build.afclst.k = 3;
  options.build.build_dft = false;
  auto stream = StreamingAffinity::Create(ds.matrix.names(), options);
  ASSERT_TRUE(stream.ok());
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = 0; i < 80; ++i) {  // first build + 10 slides
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
  ASSERT_GE(stream->refresh_count(), 10u);
  const AffinityModel& maintained = stream->framework()->model();

  const std::string path = TempPath("incremental.affm");
  ASSERT_TRUE(SaveModel(maintained, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Bit-identical payload: window data, extended centres, per-series
  // stats and relationships, every transform. The block-grid anchor (the
  // maintained window's absolute stream position, DESIGN.md §10) rides
  // along so restored sums land on the same grid.
  EXPECT_EQ(maintained.data().anchor_row(), 40u);  // 80 rows fed, window 40
  EXPECT_EQ(loaded->data().anchor_row(), maintained.data().anchor_row());
  EXPECT_EQ(loaded->data().matrix().MaxAbsDiff(maintained.data().matrix()), 0.0);
  EXPECT_EQ(loaded->clustering().centers.MaxAbsDiff(maintained.clustering().centers), 0.0);
  EXPECT_EQ(loaded->clustering().assignment, maintained.clustering().assignment);
  for (ts::SeriesId v = 0; v < maintained.data().n(); ++v) {
    EXPECT_EQ(loaded->series_stats(v).mean, maintained.series_stats(v).mean);
    EXPECT_EQ(loaded->series_stats(v).variance, maintained.series_stats(v).variance);
    EXPECT_EQ(loaded->series_stats(v).sum, maintained.series_stats(v).sum);
    EXPECT_EQ(loaded->series_stats(v).sumsq, maintained.series_stats(v).sumsq);
    EXPECT_EQ(loaded->series_affine(v).gain, maintained.series_affine(v).gain);
    EXPECT_EQ(loaded->series_affine(v).offset, maintained.series_affine(v).offset);
  }
  maintained.ForEachRelationship([&](const ts::SequencePair& e, const AffineRecord& rec) {
    const AffineRecord* lr = loaded->FindRelationship(e);
    ASSERT_NE(lr, nullptr);
    EXPECT_EQ(lr->pivot.Key(), rec.pivot.Key());
    EXPECT_EQ(lr->transform.a11, rec.transform.a11);
    EXPECT_EQ(lr->transform.a21, rec.transform.a21);
    EXPECT_EQ(lr->transform.a12, rec.transform.a12);
    EXPECT_EQ(lr->transform.a22, rec.transform.a22);
    EXPECT_EQ(lr->transform.b1, rec.transform.b1);
    EXPECT_EQ(lr->transform.b2, rec.transform.b2);
  });
  maintained.ForEachPivot([&](const PivotPair& p, const PairMatrixMeasures& pm) {
    const PairMatrixMeasures* lp = loaded->FindPivotMeasures(p);
    ASSERT_NE(lp, nullptr);
    EXPECT_EQ(lp->cov12, pm.cov12);
    EXPECT_EQ(lp->dot12, pm.dot12);
    EXPECT_EQ(lp->h1, pm.h1);
    EXPECT_EQ(lp->h2, pm.h2);
  });

  // And the loaded model re-saves to the same byte count (a cheap guard
  // against asymmetric read/write paths).
  const std::string path2 = TempPath("incremental2.affm");
  ASSERT_TRUE(SaveModel(*loaded, path2).ok());
  std::ifstream a(path, std::ios::binary | std::ios::ate);
  std::ifstream b(path2, std::ios::binary | std::ios::ate);
  EXPECT_EQ(a.tellg(), b.tellg());
}

TEST(Serialize, TruncatedModelRoundTrips) {
  ts::DatasetSpec spec;
  spec.num_series = 20;
  spec.num_samples = 50;
  spec.num_clusters = 2;
  spec.seed = 9;
  const ts::Dataset ds = ts::MakeSensorData(spec);
  SymexOptions symex;
  symex.max_relationships = 30;
  auto model = BuildAffinityModel(ds.matrix, AfclstOptions{.k = 2}, symex);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("trunc.affm");
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->relationship_count(), 30u);
}

TEST(Serialize, MissingFileIsIoError) {
  EXPECT_EQ(LoadModel(TempPath("nope.affm")).status().code(), StatusCode::kIoError);
}

TEST(Serialize, BadMagicRejected) {
  const std::string path = TempPath("garbage.affm");
  std::ofstream(path) << "definitely not a model";
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(Serialize, TruncatedFileRejected) {
  const AffinityModel model = BuildModel();
  const std::string path = TempPath("full.affm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const std::string cut = TempPath("cut.affm");
  std::ofstream(cut, std::ios::binary) << bytes.substr(0, bytes.size() / 2);
  auto loaded = LoadModel(cut);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// Pre-anchor (v1) payloads still load: the only v2 addition is the
// block-grid anchor, whose faithful default for v1 data is 0 (the phase
// those payloads' measures were computed at). Reconstruct a v1 file by
// splicing the anchor field out of a v2 payload.
TEST(Serialize, V1PayloadLoadsWithZeroAnchor) {
  const AffinityModel model = BuildModel();
  const std::string path = TempPath("v1.affm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // Walk the v2 layout to the anchor field: magic(4) version(4),
  // matrix rows/cols(16) + data, name count(8) + length-prefixed names.
  std::size_t off = 8;
  const auto u64_at = [&](std::size_t pos) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + pos, sizeof v);
    return static_cast<std::size_t>(v);
  };
  const std::size_t rows = u64_at(off);
  const std::size_t cols = u64_at(off + 8);
  off += 16 + rows * cols * sizeof(double);
  const std::size_t name_count = u64_at(off);
  off += 8;
  for (std::size_t i = 0; i < name_count; ++i) off += 8 + u64_at(off);
  ASSERT_EQ(u64_at(off), model.data().anchor_row());
  bytes.erase(off, 8);
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof v1);
  const std::string v1_path = TempPath("v1_spliced.affm");
  std::ofstream(v1_path, std::ios::binary) << bytes;

  auto loaded = LoadModel(v1_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->data().anchor_row(), 0u);
  EXPECT_EQ(loaded->relationship_count(), model.relationship_count());
  EXPECT_EQ(loaded->data().matrix().MaxAbsDiff(model.data().matrix()), 0.0);
}

TEST(Serialize, UnsupportedVersionRejected) {
  const AffinityModel model = BuildModel();
  const std::string path = TempPath("ver.affm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  // Bump the version field (bytes 4..7).
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  const std::uint32_t bad = 999;
  f.write(reinterpret_cast<const char*>(&bad), sizeof bad);
  f.close();
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

/// Byte offsets of the v2 payload's relationship and pivot sections, found
/// by walking the layout WriteModelStream emits.
struct PayloadLayout {
  std::size_t first_relationship = 0;  ///< first affHash record
  std::size_t first_pivot = 0;         ///< first pivotHash record
};

constexpr std::size_t kPivotBytes = 4 + 4 + 1;                      // series, cluster, flag
constexpr std::size_t kRelationshipBytes = 8 + kPivotBytes + 6 * 8;  // key, pivot, transform
constexpr std::size_t kPivotRecordBytes = 8 + kPivotBytes + 14 * 8 + 8;  // key, pivot, measures

PayloadLayout WalkPayload(const std::string& bytes) {
  const auto u64_at = [&](std::size_t pos) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + pos, sizeof v);
    return static_cast<std::size_t>(v);
  };
  std::size_t off = 8;                                       // magic, version
  off += 16 + u64_at(off) * u64_at(off + 8) * sizeof(double);  // data matrix
  const std::size_t name_count = u64_at(off);
  off += 8;
  for (std::size_t i = 0; i < name_count; ++i) off += 8 + u64_at(off);
  off += 8;                                                  // anchor
  off += 16 + u64_at(off) * u64_at(off + 8) * sizeof(double);  // centres
  off += 8 + u64_at(off) * 4 + 4;                            // assignment, iterations
  off += 8 + u64_at(off) * sizeof(double);                   // projection errors
  PayloadLayout layout;
  layout.first_relationship = off + 8;
  layout.first_pivot = layout.first_relationship + u64_at(off) * kRelationshipBytes + 8;
  return layout;
}

std::string ModelBytes(const AffinityModel& model) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(WriteModelStream(model, out).ok());
  return out.str();
}

Status ReadBytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return ReadModelStream(in).status();
}

// A corrupt checkpoint is rejected with a Status: the loader never hands
// index construction a reference it would trip over.
TEST(Serialize, DanglingPivotReferenceRejected) {
  const AffinityModel model = BuildModel();
  std::string bytes = ModelBytes(model);
  ASSERT_TRUE(ReadBytes(bytes).ok());
  const PayloadLayout layout = WalkPayload(bytes);
  const std::size_t pivot_at = layout.first_relationship + 8;

  PivotPair pivot;
  std::memcpy(&pivot.series, bytes.data() + pivot_at, 4);
  std::memcpy(&pivot.cluster, bytes.data() + pivot_at + 4, 4);
  pivot.series_first = bytes[pivot_at + 8] != 0;
  ASSERT_NE(model.FindPivotMeasures(pivot), nullptr);
  // Re-point the first relationship at an in-range pivot that was never
  // built.
  bool found = false;
  for (ts::SeriesId s = 0; s < model.data().n() && !found; ++s) {
    PivotPair other = pivot;
    other.series = s;
    for (const bool first : {true, false}) {
      other.series_first = first;
      if (model.FindPivotMeasures(other) == nullptr) {
        std::memcpy(bytes.data() + pivot_at, &other.series, 4);
        bytes[pivot_at + 8] = first ? 1 : 0;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  const Status status = ReadBytes(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("pivotHash"), std::string::npos) << status.ToString();
}

TEST(Serialize, OutOfRangeSeriesIdsRejected) {
  const AffinityModel model = BuildModel();
  const std::string bytes = ModelBytes(model);
  const PayloadLayout layout = WalkPayload(bytes);
  const auto n = static_cast<std::uint32_t>(model.data().n());
  const auto expect_rejected = [&](std::size_t at, std::uint32_t value) {
    std::string copy = bytes;
    std::memcpy(copy.data() + at, &value, sizeof value);
    const Status status = ReadBytes(copy);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("out of range"), std::string::npos) << status.ToString();
  };
  // Relationship key (low word = v, high word = u), then its pivot series.
  expect_rejected(layout.first_relationship, n);
  expect_rejected(layout.first_relationship + 4, n + 7);
  expect_rejected(layout.first_relationship + 8, n);
  // The first and the last pivotHash record's pivot series.
  expect_rejected(layout.first_pivot + 8, n);
  expect_rejected(layout.first_pivot + (model.pivot_count() - 1) * kPivotRecordBytes + 8, n + 1);
}

// A declared size may not allocate beyond the payload: a data-matrix
// header claiming 2^28 × 2^28 doubles is refused before any allocation.
TEST(Serialize, OversizedMatrixHeaderRejected) {
  std::string bytes = ModelBytes(BuildModel());
  const std::uint64_t huge = std::uint64_t{1} << 28;
  std::memcpy(bytes.data() + 8, &huge, sizeof huge);   // rows
  std::memcpy(bytes.data() + 16, &huge, sizeof huge);  // cols
  EXPECT_EQ(ReadBytes(bytes).code(), StatusCode::kInvalidArgument);
}

// Random byte flips anywhere in the payload: every mutant either loads
// into a working engine or is rejected with a Status — the process never
// aborts or faults.
TEST(Serialize, ByteFlippedPayloadsNeverCrash) {
  const AffinityModel model = BuildModel();
  const std::string bytes = ModelBytes(model);
  AffinityOptions options;
  options.build_dft = false;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      std::string mutant = bytes;
      const std::uint64_t flips = 1 + rng.NextBounded(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        mutant[rng.NextBounded(mutant.size())] ^= static_cast<char>(1 + rng.NextBounded(255));
      }
      std::istringstream in(mutant, std::ios::binary);
      auto loaded = ReadModelStream(in);
      if (!loaded.ok()) {
        ++rejected;
        continue;
      }
      auto engine = Affinity::FromModel(std::move(loaded).value(), options);
      if (!engine.ok()) ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(Serialize, SaveToUnwritablePathFails) {
  const AffinityModel model = BuildModel();
  EXPECT_EQ(SaveModel(model, "/nonexistent-dir/x.affm").code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace affinity::core

// Tests for the top-k extension: ScapeIndex::TopK and QueryEngine::TopK.
// The index-side threshold algorithm must agree exactly with the WA
// strategy's evaluate-all-and-sort answer.

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

class TopKTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ts::DatasetSpec spec;
    spec.num_series = 40;
    spec.num_samples = 120;
    spec.num_clusters = 4;
    spec.noise_level = 0.02;
    spec.seed = 77;
    auto fw = Affinity::Build(ts::MakeSensorData(spec).matrix);
    ASSERT_TRUE(fw.ok());
    framework_ = new Affinity(std::move(fw).value());
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }
  static Affinity* framework_;
};

Affinity* TopKTest::framework_ = nullptr;

/// WA reference: evaluate everything, sort, truncate.
std::vector<double> ReferenceValues(const Affinity& fw, Measure measure, std::size_t k,
                                    bool largest) {
  std::vector<double> values;
  if (IsLocation(measure)) {
    for (ts::SeriesId v = 0; v < fw.data().n(); ++v) {
      values.push_back(*fw.model().SeriesMeasure(measure, v));
    }
  } else {
    for (const auto& e : ts::AllSequencePairs(fw.data().n())) {
      values.push_back(*fw.model().PairMeasure(measure, e));
    }
  }
  std::sort(values.begin(), values.end());
  if (largest) std::reverse(values.begin(), values.end());
  values.resize(std::min(k, values.size()));
  return values;
}

struct TopKCase {
  Measure measure;
  std::size_t k;
  bool largest;
};

class TopKEquivalence : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKEquivalence, IndexMatchesReference) {
  ts::DatasetSpec spec;
  spec.num_series = 36;
  spec.num_samples = 100;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = 5;
  auto fw = Affinity::Build(ts::MakeSensorData(spec).matrix);
  ASSERT_TRUE(fw.ok());
  const TopKCase c = GetParam();

  auto result = fw->scape()->TopK(c.measure, c.k, c.largest);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<double> expected = ReferenceValues(*fw, c.measure, c.k, c.largest);
  ASSERT_EQ(result->entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(result->entries[i].value, expected[i], 1e-9 * (1.0 + std::fabs(expected[i])))
        << "rank " << i;
  }
  // Best-first ordering.
  for (std::size_t i = 1; i < result->entries.size(); ++i) {
    if (c.largest) {
      EXPECT_GE(result->entries[i - 1].value, result->entries[i].value - 1e-12);
    } else {
      EXPECT_LE(result->entries[i - 1].value, result->entries[i].value + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TopKEquivalence,
    ::testing::Values(TopKCase{Measure::kCovariance, 10, true},
                      TopKCase{Measure::kCovariance, 10, false},
                      TopKCase{Measure::kDotProduct, 25, true},
                      TopKCase{Measure::kCorrelation, 10, true},
                      TopKCase{Measure::kCorrelation, 10, false},
                      TopKCase{Measure::kCorrelation, 100, true},
                      TopKCase{Measure::kCosine, 15, true},
                      TopKCase{Measure::kMean, 5, true},
                      TopKCase{Measure::kMedian, 5, false},
                      TopKCase{Measure::kMode, 7, true}));

TEST_F(TopKTest, KZeroIsEmpty) {
  auto result = framework_->scape()->TopK(Measure::kCorrelation, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->entries.empty());
}

TEST_F(TopKTest, KLargerThanPopulationReturnsAll) {
  // Any k above the population is valid, SIZE_MAX included (the CLI turns
  // "-1" into it): every path returns the whole population, ranked as a k
  // of exactly the population.
  for (Measure measure : {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation,
                          Measure::kCosine, Measure::kMean, Measure::kMedian, Measure::kMode}) {
    const std::size_t population = IsLocation(measure)
                                       ? framework_->data().n()
                                       : ts::SequencePairCount(framework_->data().n());
    for (const bool largest : {true, false}) {
      auto exact = framework_->scape()->TopK(measure, population, largest);
      ASSERT_TRUE(exact.ok());
      for (const std::size_t k :
           {std::size_t{10000}, std::numeric_limits<std::size_t>::max()}) {
        SCOPED_TRACE(std::string(MeasureName(measure)) + (largest ? " largest" : " smallest") +
                     " k=" + std::to_string(k));
        auto all = framework_->scape()->TopK(measure, k, largest);
        ASSERT_TRUE(all.ok());
        ASSERT_EQ(all->entries.size(), population);
        for (std::size_t i = 0; i < population; ++i) {
          EXPECT_EQ(all->entries[i].pair, exact->entries[i].pair) << "rank " << i;
          EXPECT_EQ(all->entries[i].series, exact->entries[i].series) << "rank " << i;
          EXPECT_EQ(all->entries[i].value, exact->entries[i].value) << "rank " << i;
        }
        for (QueryMethod method : {QueryMethod::kAuto, QueryMethod::kAffine}) {
          auto engine = framework_->engine().TopK(TopKRequest{measure, k, largest}, method);
          ASSERT_TRUE(engine.ok());
          EXPECT_EQ(engine->entries.size(), population);
        }
      }
    }
  }
}

TEST_F(TopKTest, RejectsNonIndexableMeasures) {
  EXPECT_EQ(framework_->scape()->TopK(Measure::kJaccard, 5).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(TopKTest, ThresholdAlgorithmPrunesForDerivedMeasures) {
  // For a small k the TA must examine far fewer entries than the index holds.
  auto result = framework_->scape()->TopK(Measure::kCorrelation, 5, true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries.size(), 5u);
  EXPECT_LT(result->examined, framework_->model().relationship_count());
}

TEST_F(TopKTest, EngineDispatchAgreesAcrossMethods) {
  TopKRequest request;
  request.measure = Measure::kCovariance;
  request.k = 12;
  auto scape = framework_->engine().TopK(request, QueryMethod::kScape);
  auto wa = framework_->engine().TopK(request, QueryMethod::kAffine);
  auto wn = framework_->engine().TopK(request, QueryMethod::kNaive);
  ASSERT_TRUE(scape.ok());
  ASSERT_TRUE(wa.ok());
  ASSERT_TRUE(wn.ok());
  ASSERT_EQ(scape->entries.size(), 12u);
  ASSERT_EQ(wa->entries.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(scape->entries[i].value, wa->entries[i].value,
                1e-9 * (1.0 + std::fabs(wa->entries[i].value)));
    // WN is the ground truth; WA/SCAPE approximate it closely on clean data.
    EXPECT_NEAR(scape->entries[i].value, wn->entries[i].value,
                1e-3 * (1.0 + std::fabs(wn->entries[i].value)));
  }
}

TEST_F(TopKTest, EngineValidation) {
  TopKRequest request;
  request.measure = Measure::kCorrelation;
  request.k = 3;
  EXPECT_FALSE(framework_->engine().TopK(request, QueryMethod::kDft).ok());

  const ts::DataMatrix& data = framework_->data();
  QueryEngine bare(&data);
  EXPECT_EQ(bare.TopK(request, QueryMethod::kScape).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(bare.TopK(request, QueryMethod::kNaive).ok());
}

TEST_F(TopKTest, PairEntriesCarryNoSeries) {
  // Pair-measure entries must not pretend to reference series 0: absence
  // is the explicit kNoSeries sentinel, never a default of 0.
  auto scape = framework_->scape()->TopK(Measure::kCorrelation, 8, true);
  ASSERT_TRUE(scape.ok());
  for (const auto& entry : scape->entries) {
    EXPECT_FALSE(entry.has_series());
    EXPECT_EQ(entry.series, kNoSeries);
  }
  TopKRequest request;
  request.measure = Measure::kCovariance;
  request.k = 8;
  for (QueryMethod method : {QueryMethod::kNaive, QueryMethod::kAffine}) {
    auto engine_result = framework_->engine().TopK(request, method);
    ASSERT_TRUE(engine_result.ok());
    for (const auto& entry : engine_result->entries) {
      EXPECT_FALSE(entry.has_series());
    }
  }
}

TEST_F(TopKTest, LocationEntriesCarryARealSeriesIncludingZero) {
  // All n series fit in the result, so series 0 must appear as a *valid*
  // id — distinguishable from the sentinel.
  auto result = framework_->scape()->TopK(Measure::kMean, 10000, true);
  ASSERT_TRUE(result.ok());
  bool saw_series_zero = false;
  for (const auto& entry : result->entries) {
    EXPECT_TRUE(entry.has_series());
    EXPECT_LT(entry.series, framework_->data().n());
    if (entry.series == 0) saw_series_zero = true;
  }
  EXPECT_TRUE(saw_series_zero);
}

TEST(MergeTopKFn, MergesBestFirstRunsWithDeterministicTies) {
  const auto entry = [](ts::SeriesId u, ts::SeriesId v, double value) {
    return ScapeTopKEntry{ts::SequencePair(u, v), kNoSeries, value};
  };
  std::vector<ScapeTopKResult> runs(3);
  runs[0].entries = {entry(0, 1, 9.0), entry(0, 2, 5.0), entry(0, 3, 1.0)};
  runs[0].examined = 7;
  runs[1].entries = {entry(4, 5, 8.0), entry(4, 6, 5.0)};
  runs[1].examined = 3;
  runs[2].entries = {};  // an empty run (e.g. a shard smaller than k)
  const ScapeTopKResult merged = MergeTopK(runs, 4, /*largest=*/true);
  ASSERT_EQ(merged.entries.size(), 4u);
  EXPECT_EQ(merged.examined, 10u);
  EXPECT_DOUBLE_EQ(merged.entries[0].value, 9.0);
  EXPECT_DOUBLE_EQ(merged.entries[1].value, 8.0);
  // Tie at 5.0 breaks by pair id: (0,2) before (4,6) regardless of run order.
  EXPECT_EQ(merged.entries[2].pair, ts::SequencePair(0, 2));
  EXPECT_EQ(merged.entries[3].pair, ts::SequencePair(4, 6));

  // Smallest-first direction, k larger than the union.
  std::vector<ScapeTopKResult> asc(2);
  asc[0].entries = {entry(0, 1, 1.0), entry(0, 2, 3.0)};
  asc[1].entries = {entry(3, 4, 2.0)};
  const ScapeTopKResult small = MergeTopK(asc, 10, /*largest=*/false);
  ASSERT_EQ(small.entries.size(), 3u);
  EXPECT_DOUBLE_EQ(small.entries[0].value, 1.0);
  EXPECT_DOUBLE_EQ(small.entries[1].value, 2.0);
  EXPECT_DOUBLE_EQ(small.entries[2].value, 3.0);
}

// ---------------------------------------------------------------------------
// Ties and degenerate entries. Column kDuplicate copies column kDuplicated,
// so their L-measures tie exactly; column kConstant is constant zero, so
// both D-measure normalizers of its pairs are 0 (degenerate side-list
// entries) and every pair measure of it is exactly 0 on every path.
// ---------------------------------------------------------------------------

constexpr ts::SeriesId kDuplicated = 7;
constexpr ts::SeriesId kDuplicate = 19;
constexpr ts::SeriesId kConstant = 11;

ts::DataMatrix TiedData() {
  ts::DatasetSpec spec;
  spec.num_series = 30;
  spec.num_samples = 100;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = 5;
  la::Matrix values = ts::MakeSensorData(spec).matrix.matrix();
  for (std::size_t i = 0; i < values.rows(); ++i) {
    values(i, kDuplicate) = values(i, kDuplicated);
    values(i, kConstant) = 0.0;
  }
  return ts::DataMatrix(std::move(values));
}

/// Every entity valued by the WA strategy (the model's propagated
/// measures), ranked by value in the query direction, then series, then
/// pair — written out here rather than borrowed from the engine.
std::vector<ScapeTopKEntry> WaRanking(const Affinity& fw, Measure measure, bool largest) {
  std::vector<ScapeTopKEntry> all;
  if (IsLocation(measure)) {
    for (ts::SeriesId v = 0; v < fw.data().n(); ++v) {
      all.push_back(ScapeTopKEntry{ts::SequencePair{}, v, *fw.model().SeriesMeasure(measure, v)});
    }
  } else {
    for (const auto& e : ts::AllSequencePairs(fw.data().n())) {
      all.push_back(ScapeTopKEntry{e, kNoSeries, *fw.model().PairMeasure(measure, e)});
    }
  }
  std::sort(all.begin(), all.end(), [&](const ScapeTopKEntry& a, const ScapeTopKEntry& b) {
    if (a.value != b.value) return largest ? a.value > b.value : a.value < b.value;
    if (a.series != b.series) return a.series < b.series;
    return a.pair < b.pair;
  });
  return all;
}

/// A k that cuts through an exact tie group of `ranking`: two entries into
/// the zero-valued pairs of the constant column, or between the two
/// duplicated series for L-measures.
std::size_t StraddlingK(const std::vector<ScapeTopKEntry>& ranking, Measure measure) {
  std::size_t rank = 0;
  if (IsLocation(measure)) {
    while (ranking[rank].series != kDuplicated && ranking[rank].series != kDuplicate) ++rank;
    EXPECT_EQ(ranking[rank].value, ranking[rank + 1].value);  // the tie is exact
    return rank + 1;
  }
  while (ranking[rank].value != 0.0) ++rank;
  EXPECT_EQ(ranking[rank + 2].value, 0.0);
  return rank + 2;
}

class TopKTies : public ::testing::TestWithParam<Measure> {
 protected:
  static void SetUpTestSuite() {
    auto fw = Affinity::Build(TiedData());
    ASSERT_TRUE(fw.ok()) << fw.status().ToString();
    tied_ = new Affinity(std::move(fw).value());
  }
  static void TearDownTestSuite() {
    delete tied_;
    tied_ = nullptr;
  }
  static Affinity* tied_;
};

Affinity* TopKTies::tied_ = nullptr;

TEST_P(TopKTies, BoundedScanEqualsCanonicalWaReference) {
  const Measure measure = GetParam();
  const std::size_t population =
      IsLocation(measure) ? tied_->data().n() : ts::SequencePairCount(tied_->data().n());
  for (const bool largest : {true, false}) {
    const std::vector<ScapeTopKEntry> reference = WaRanking(*tied_, measure, largest);
    // The index's own values with nothing pruned: k covers every entry.
    auto exhaustive = tied_->scape()->TopK(measure, population, largest);
    ASSERT_TRUE(exhaustive.ok());
    ASSERT_EQ(exhaustive->entries.size(), population);
    for (const std::size_t k :
         {std::size_t{10}, std::size_t{50}, StraddlingK(reference, measure)}) {
      SCOPED_TRACE(std::string(MeasureName(measure)) + (largest ? " largest" : " smallest") +
                   " k=" + std::to_string(k));
      auto live = tied_->scape()->TopK(measure, k, largest);
      ASSERT_TRUE(live.ok());
      ASSERT_EQ(live->entries.size(), std::min(k, population));
      for (std::size_t i = 0; i < live->entries.size(); ++i) {
        const ScapeTopKEntry& got = live->entries[i];
        // Pruning changes nothing: the bounded scan is a prefix of the
        // exhaustive ranking, entities and bits.
        EXPECT_EQ(got.pair, exhaustive->entries[i].pair) << "rank " << i;
        EXPECT_EQ(got.series, exhaustive->entries[i].series) << "rank " << i;
        EXPECT_EQ(got.value, exhaustive->entries[i].value) << "rank " << i;
        // The same entities as the WA ranking, ties resolved by id; values
        // agree to the key transform's rounding, and exactly on the tied
        // zero-valued degenerate entries.
        EXPECT_EQ(got.pair, reference[i].pair) << "rank " << i;
        EXPECT_EQ(got.series, reference[i].series) << "rank " << i;
        EXPECT_NEAR(got.value, reference[i].value, 1e-9 * (1.0 + std::fabs(reference[i].value)))
            << "rank " << i;
        if (reference[i].value == 0.0) {
          EXPECT_EQ(got.value, 0.0) << "rank " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Measures, TopKTies,
                         ::testing::Values(Measure::kCovariance, Measure::kDotProduct,
                                           Measure::kCorrelation, Measure::kCosine,
                                           Measure::kMean, Measure::kMedian, Measure::kMode));

TEST_F(TopKTest, TopPairsAreMutuallyDistinct) {
  auto result = framework_->scape()->TopK(Measure::kCorrelation, 50, true);
  ASSERT_TRUE(result.ok());
  std::vector<ts::SequencePair> pairs;
  for (const auto& entry : result->entries) pairs.push_back(entry.pair);
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

}  // namespace
}  // namespace affinity::core

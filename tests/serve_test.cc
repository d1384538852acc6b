// Tests for lock-free snapshot serving (DESIGN.md §11): per-refresh
// publication, bitwise identity with the live engine/router, epoch
// pinning across maintenance, kUnavailable fallback semantics, and the
// sparse-movement SCAPE refresh fast path.

#include "serve/serve_query.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming.h"
#include "shard/sharded.h"
#include "ts/generators.h"

namespace affinity::shard {
namespace {

using core::FreshnessOptions;
using core::Measure;
using core::MecRequest;
using core::MecResponse;
using core::MetRequest;
using core::MerRequest;
using core::QueryMethod;
using core::SelectionResult;
using core::StreamingAffinity;
using core::StreamingOptions;
using core::TopKRequest;
using core::TopKResult;

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

std::vector<std::string> Names(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

ts::Dataset TestData(std::size_t n = 10, std::uint64_t seed = 12) {
  ts::DatasetSpec spec;
  spec.num_series = n;
  spec.num_samples = 240;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = seed;
  return ts::MakeSensorData(spec);
}

StreamingOptions StreamOptions(std::size_t threads = 1) {
  StreamingOptions options;
  options.window = 40;
  options.rebuild_interval = 20;
  options.mode = core::UpdateMode::kIncremental;
  options.build.afclst.k = 2;
  options.build.build_dft = false;
  options.build.threads = threads;
  return options;
}

ShardedOptions ShardOptions(std::size_t shards, std::size_t threads = 1) {
  ShardedOptions options;
  options.shards = shards;
  options.streaming = StreamOptions(threads);
  return options;
}

void FeedStream(StreamingAffinity* stream, const ts::Dataset& ds, std::size_t begin,
                std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
}

void Feed(ShardedAffinity* service, const ts::Dataset& ds, std::size_t begin, std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(service->Append(row).ok());
  }
}

// Bitwise comparison helpers: EXPECT_EQ on doubles is deliberate — the
// serving contract is bitwise identity, not tolerance.

void ExpectSameSelection(const SelectionResult& served, const SelectionResult& live) {
  EXPECT_EQ(served.series, live.series);
  EXPECT_EQ(served.pairs, live.pairs);
  EXPECT_EQ(served.prune.accepted_unverified, live.prune.accepted_unverified);
  EXPECT_EQ(served.prune.verified, live.prune.verified);
  EXPECT_EQ(served.plan.method, live.plan.method);
}

void ExpectSameTopK(const TopKResult& served, const TopKResult& live) {
  ASSERT_EQ(served.entries.size(), live.entries.size());
  for (std::size_t i = 0; i < live.entries.size(); ++i) {
    EXPECT_EQ(served.entries[i].pair, live.entries[i].pair);
    EXPECT_EQ(served.entries[i].series, live.entries[i].series);
    EXPECT_EQ(served.entries[i].value, live.entries[i].value) << "entry " << i;
  }
  EXPECT_EQ(served.plan.method, live.plan.method);
}

void ExpectSameMec(const MecResponse& served, const MecResponse& live) {
  ASSERT_EQ(served.location.size(), live.location.size());
  for (std::size_t i = 0; i < live.location.size(); ++i)
    EXPECT_EQ(served.location[i], live.location[i]) << "location " << i;
  ASSERT_EQ(served.pair_values.rows(), live.pair_values.rows());
  ASSERT_EQ(served.pair_values.cols(), live.pair_values.cols());
  for (std::size_t i = 0; i < live.pair_values.rows(); ++i)
    for (std::size_t j = 0; j < live.pair_values.cols(); ++j)
      EXPECT_EQ(served.pair_values(i, j), live.pair_values(i, j)) << "cell " << i << "," << j;
}

// ---------------------------------------------------------------------------
// Single-instance serving: serve::SnapshotXxx vs the raw live engine.
// ---------------------------------------------------------------------------

TEST(ServeSnapshot, MirrorsLiveEngineBitwise) {
  const ts::Dataset ds = TestData();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto stream = StreamingAffinity::Create(Names(10), StreamOptions(threads));
    ASSERT_TRUE(stream.ok());
    FeedStream(&*stream, ds, 0, 60);
    ASSERT_TRUE(stream->ready());
    auto snap = stream->serving();
    ASSERT_NE(snap, nullptr);
    EXPECT_GE(snap->generation, 2u);  // published at rows 40 and 60
    EXPECT_EQ(snap->snapshot_row, 60u);
    const auto& engine = stream->framework()->engine();

    const QueryMethod methods[] = {QueryMethod::kAuto, QueryMethod::kNaive, QueryMethod::kAffine,
                                   QueryMethod::kScape};
    for (QueryMethod method : methods) {
      SCOPED_TRACE(std::string("method=") + std::string(core::QueryMethodName(method)));
      // MET over a pair measure, a derived measure, and a location measure.
      for (const MetRequest& req :
           {MetRequest{Measure::kCovariance, 0.0, true}, MetRequest{Measure::kCorrelation, 0.9, true},
            MetRequest{Measure::kMean, 0.0, false}}) {
        auto live = engine.Met(req, method);
        auto served = serve::SnapshotMet(*snap, req, method);
        ASSERT_TRUE(live.ok());
        ASSERT_TRUE(served.ok());
        ExpectSameSelection(*served, *live);
      }
      // MER.
      for (const MerRequest& req :
           {MerRequest{Measure::kCorrelation, 0.2, 0.9}, MerRequest{Measure::kCovariance, -0.5, 0.5}}) {
        auto live = engine.Mer(req, method);
        auto served = serve::SnapshotMer(*snap, req, method);
        ASSERT_TRUE(live.ok());
        ASSERT_TRUE(served.ok());
        ExpectSameSelection(*served, *live);
      }
      // Top-k: values compare bitwise.
      for (const TopKRequest& req :
           {TopKRequest{Measure::kCorrelation, 5, true}, TopKRequest{Measure::kDotProduct, 4, true}}) {
        auto live = engine.TopK(req, method);
        auto served = serve::SnapshotTopK(*snap, req, method);
        ASSERT_TRUE(live.ok());
        ASSERT_TRUE(served.ok());
        ExpectSameTopK(*served, *live);
      }
    }

    // MEC: location vector and pair matrix, bitwise.
    for (const MecRequest& req :
         {MecRequest{Measure::kMean, {0, 1, 2, 3}}, MecRequest{Measure::kCovariance, {0, 3, 5, 9}},
          MecRequest{Measure::kCorrelation, {1, 4, 7}}}) {
      auto live = engine.Mec(req, QueryMethod::kAuto);
      auto served = serve::SnapshotMec(*snap, req, QueryMethod::kAuto);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      ExpectSameMec(*served, *live);
    }
  }
}

/// TestData with exact ties: series 9 copies series 3 (their L-measures
/// tie exactly) and series 5 is constant zero (its pairs are degenerate
/// side-list entries valued exactly 0 for every pair measure).
ts::Dataset TiedTestData() {
  ts::Dataset ds = TestData(12);
  la::Matrix& values = ds.matrix.mutable_matrix();
  for (std::size_t i = 0; i < values.rows(); ++i) {
    values(i, 9) = values(i, 3);
    values(i, 5) = 0.0;
  }
  return ds;
}

/// A k that cuts through an exact tie group of a best-first ranking: two
/// entries into the zero-valued pairs, or between the duplicated series.
std::size_t StraddlingK(const TopKResult& ranking, Measure measure) {
  std::size_t rank = 0;
  if (core::IsLocation(measure)) {
    while (ranking.entries[rank].series != 3 && ranking.entries[rank].series != 9) ++rank;
    return rank + 1;
  }
  while (ranking.entries[rank].value != 0.0) ++rank;
  return rank + 2;
}

TEST(ServeSnapshot, TopKTiesMirrorLiveBitwise) {
  const ts::Dataset ds = TiedTestData();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    auto stream = StreamingAffinity::Create(Names(12), StreamOptions(threads));
    ASSERT_TRUE(stream.ok());
    // Three epochs: the first build, then two incremental refreshes.
    for (const std::size_t rows : {std::size_t{40}, std::size_t{60}, std::size_t{80}}) {
      FeedStream(&*stream, ds, rows == 40 ? 0 : rows - 20, rows);
      auto snap = stream->serving();
      ASSERT_NE(snap, nullptr);
      ASSERT_EQ(snap->snapshot_row, rows);
      const auto& engine = stream->framework()->engine();
      for (QueryMethod method : {QueryMethod::kAuto, QueryMethod::kNaive, QueryMethod::kAffine,
                                 QueryMethod::kScape}) {
        for (Measure measure : {Measure::kCovariance, Measure::kDotProduct,
                                Measure::kCorrelation, Measure::kCosine, Measure::kMean}) {
          for (const bool largest : {true, false}) {
            auto full = engine.TopK(TopKRequest{measure, 1000, largest}, method);
            ASSERT_TRUE(full.ok());
            // SIZE_MAX: every entity, with no allocation sized by k.
            for (const std::size_t k :
                 {std::size_t{10}, std::size_t{50}, StraddlingK(*full, measure),
                  std::numeric_limits<std::size_t>::max()}) {
              SCOPED_TRACE("threads=" + std::to_string(threads) + " rows=" +
                           std::to_string(rows) + " method=" +
                           std::string(core::QueryMethodName(method)) + " " +
                           std::string(core::MeasureName(measure)) +
                           (largest ? " largest" : " smallest") + " k=" + std::to_string(k));
              const TopKRequest req{measure, k, largest};
              auto live = engine.TopK(req, method);
              auto served = serve::SnapshotTopK(*snap, req, method);
              ASSERT_TRUE(live.ok());
              ASSERT_TRUE(served.ok());
              ExpectSameTopK(*served, *live);
            }
          }
        }
      }
    }
  }
}

TEST(ServeSnapshot, FacadeServesFromSnapshotAndMarksThePlan) {
  auto stream = StreamingAffinity::Create(Names(10), StreamOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  FeedStream(&*stream, ds, 0, 60);
  auto result = stream->Met({Measure::kCorrelation, 0.9, true});
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->plan.rationale.find("served from read-optimized snapshot"), std::string::npos)
      << result->plan.rationale;
  // The facade's snapshot-served answer equals the raw engine's.
  auto live = stream->framework()->engine().Met({Measure::kCorrelation, 0.9, true});
  ASSERT_TRUE(live.ok());
  ExpectSameSelection(*result, *live);
  // A blended answer (staleness bound exceeded) is live by construction
  // and must NOT carry the snapshot annotation.
  FeedStream(&*stream, ds, 60, 65);  // age 5 without a refresh
  FreshnessOptions tight;
  tight.max_staleness = 2;
  auto blended = stream->Met({Measure::kCorrelation, 0.9, true}, tight);
  ASSERT_TRUE(blended.ok());
  EXPECT_EQ(blended->plan.rationale.find("served from read-optimized snapshot"),
            std::string::npos);
}

TEST(ServeSnapshot, EpochPinnedAcrossRefresh) {
  auto stream = StreamingAffinity::Create(Names(10), StreamOptions());
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  FeedStream(&*stream, ds, 0, 40);
  auto old_snap = stream->serving();
  ASSERT_NE(old_snap, nullptr);
  EXPECT_EQ(old_snap->snapshot_row, 40u);
  const TopKRequest req{Measure::kCorrelation, 5, true};
  auto before = serve::SnapshotTopK(*old_snap, req);
  ASSERT_TRUE(before.ok());

  // Two more refreshes; the pinned epoch must keep answering identically.
  FeedStream(&*stream, ds, 40, 80);
  auto new_snap = stream->serving();
  ASSERT_NE(new_snap, nullptr);
  EXPECT_GT(new_snap->generation, old_snap->generation);
  EXPECT_EQ(new_snap->snapshot_row, 80u);
  auto after = serve::SnapshotTopK(*old_snap, req);
  ASSERT_TRUE(after.ok());
  ExpectSameTopK(*after, *before);
}

TEST(ServeSnapshot, UnavailableQueriesFallBackToLive) {
  StreamingOptions options = StreamOptions();
  options.build.build_dft = true;  // WF exists live but is never snapshot-servable
  auto stream = StreamingAffinity::Create(Names(10), options);
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  FeedStream(&*stream, ds, 0, 60);
  auto snap = stream->serving();
  ASSERT_NE(snap, nullptr);
  // Direct snapshot query: kUnavailable (sketches are built per query).
  auto served = serve::SnapshotMet(*snap, {Measure::kCorrelation, 0.9, true}, QueryMethod::kDft);
  EXPECT_EQ(served.status().code(), StatusCode::kUnavailable);
  // The facade treats that as "fall back to the live engine" and succeeds.
  FreshnessOptions wf;
  wf.method = QueryMethod::kDft;
  auto result = stream->Met({Measure::kCorrelation, 0.9, true}, wf);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.rationale.find("served from read-optimized snapshot"),
            std::string::npos);
  // Real argument errors are final — they must NOT trigger fallback
  // masking (same code live and served).
  auto bad = stream->Mer({Measure::kCorrelation, 0.9, 0.1});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Router serving: RouterXxx over a published RouterSnapshot vs the live
// scatter-gather, at 1/2/8 shards.
// ---------------------------------------------------------------------------

TEST(RouterServe, MirrorsLiveRouterBitwise) {
  const ts::Dataset ds = TestData(16);
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto service = ShardedAffinity::Create(Names(16), ShardOptions(shards));
    ASSERT_TRUE(service.ok());
    Feed(&*service, ds, 0, 60);
    ASSERT_TRUE(service->ready());
    auto snap = service->serving();
    ASSERT_NE(snap, nullptr);
    EXPECT_GE(snap->generation, 2u);
    EXPECT_EQ(snap->shards.size(), shards);

    {
      const MetRequest req{Measure::kCorrelation, 0.9, true};
      auto live = service->Met(req);
      auto served = RouterMet(*snap, req);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      ExpectSameSelection(*served, live->result);
    }
    {
      const MerRequest req{Measure::kCovariance, -0.3, 0.6};
      auto live = service->Mer(req);
      auto served = RouterMer(*snap, req);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      ExpectSameSelection(*served, live->result);
    }
    {
      const TopKRequest req{Measure::kCorrelation, 6, true};
      auto live = service->TopK(req);
      auto served = RouterTopK(*snap, req);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      ExpectSameTopK(*served, live->result);
    }
    // MEC with ids spanning every shard (16 series / 8 shards = 2 each).
    for (const MecRequest& req :
         {MecRequest{Measure::kCovariance, {0, 5, 9, 15}}, MecRequest{Measure::kMean, {1, 8, 14}}}) {
      auto live = service->Mec(req);
      auto served = RouterMec(*snap, req);
      ASSERT_TRUE(live.ok());
      ASSERT_TRUE(served.ok());
      ExpectSameMec(*served, live->response);
    }
  }
}

TEST(RouterServe, LoadPublishesFirstEpoch) {
  const std::string path = TempPath("serve_router_roundtrip.bin");
  {
    auto service = ShardedAffinity::Create(Names(16), ShardOptions(2));
    ASSERT_TRUE(service.ok());
    Feed(&*service, TestData(16), 0, 60);
    ASSERT_TRUE(service->Save(path).ok());
  }
  auto loaded = ShardedAffinity::Load(path);
  ASSERT_TRUE(loaded.ok());
  auto snap = loaded->serving();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->generation, 1u);  // restored routers restart at epoch 1
  const MetRequest req{Measure::kCorrelation, 0.9, true};
  auto live = loaded->Met(req);
  auto served = RouterMet(*snap, req);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(served.ok());
  ExpectSameSelection(*served, live->result);
}

// ---------------------------------------------------------------------------
// Sparse-movement SCAPE refresh fast path (ISSUE 7 satellite): a
// slow-drift window where most ξ keys land unchanged must skip their
// B+-tree re-insertions, and the skip accounting must surface.
// ---------------------------------------------------------------------------

TEST(ServeMaintenance, SlowDriftSkipsScapeRekeys) {
  // Cyclic stream with period == window == interval: after each refresh
  // the window holds exactly the same 40 rows, so an exact refit (forced
  // every refresh) reproduces each relationship bitwise and the refresh
  // path can skip every unmoved key.
  StreamingOptions options = StreamOptions();
  options.rebuild_interval = 40;
  options.incremental.exact_refit_period = 1;
  auto stream = StreamingAffinity::Create(Names(10), options);
  ASSERT_TRUE(stream.ok());
  const ts::Dataset ds = TestData();
  std::vector<double> row(10);
  for (std::size_t i = 0; i < 120; ++i) {
    const std::size_t src = i % 40;
    for (std::size_t j = 0; j < 10; ++j) row[j] = ds.matrix.matrix()(src, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
  // Refreshes ran at rows 80 and 120 over identical window content.
  ASSERT_GE(stream->refresh_count(), 2u);
  const core::MaintenanceProfile& profile = stream->maintenance();
  EXPECT_GT(profile.scape_rekeys_skipped, 0u)
      << "identical window content must skip unmoved ξ re-insertions";
  // The fast path must not corrupt the index: SCAPE answers still match
  // the naive sweep exactly.
  const auto& engine = stream->framework()->engine();
  auto scape = engine.Met({Measure::kCorrelation, 0.9, true}, QueryMethod::kScape);
  auto naive = engine.Met({Measure::kCorrelation, 0.9, true}, QueryMethod::kNaive);
  ASSERT_TRUE(scape.ok());
  ASSERT_TRUE(naive.ok());
  std::sort(scape->pairs.begin(), scape->pairs.end());
  std::sort(naive->pairs.begin(), naive->pairs.end());
  EXPECT_EQ(scape->pairs, naive->pairs);
}

// ---------------------------------------------------------------------------
// Quality predicates are not snapshot-servable (DESIGN.md §12).
// ---------------------------------------------------------------------------

TEST(Serving, QualityPredicateBouncesToLiveEngine) {
  const ts::Dataset ds = TestData();
  auto stream = StreamingAffinity::Create(ds.matrix.names(), StreamOptions());
  ASSERT_TRUE(stream.ok());
  FeedStream(&*stream, ds, 0, 120);
  ASSERT_TRUE(stream->ready());
  auto snap = stream->serving();
  ASSERT_NE(snap, nullptr);

  // The quality surface is live state, not snapshot state: every snapshot
  // entry point declines min_quality > 0 with kUnavailable.
  MetRequest met{Measure::kCorrelation, 0.5, true};
  met.min_quality = 0.5;
  EXPECT_EQ(serve::SnapshotMet(*snap, met, QueryMethod::kAuto).status().code(),
            StatusCode::kUnavailable);
  MerRequest mer{Measure::kCorrelation, 0.2, 0.9};
  mer.min_quality = 0.5;
  EXPECT_EQ(serve::SnapshotMer(*snap, mer, QueryMethod::kAuto).status().code(),
            StatusCode::kUnavailable);
  TopKRequest topk{Measure::kCorrelation, 3, true};
  topk.min_quality = 0.5;
  EXPECT_EQ(serve::SnapshotTopK(*snap, topk, QueryMethod::kAuto).status().code(),
            StatusCode::kUnavailable);
  MecRequest mec;
  mec.measure = Measure::kCorrelation;
  mec.ids = {0, 1};
  mec.min_quality = 0.5;
  EXPECT_EQ(serve::SnapshotMec(*snap, mec, QueryMethod::kAuto).status().code(),
            StatusCode::kUnavailable);

  // The streaming facade counts the bounce as a serve fallback and still
  // answers from the live engine (a dense stream scores 1.0 everywhere, so
  // the predicate excludes nothing).
  const std::size_t fallbacks_before = stream->maintenance().serve_fallbacks;
  auto live = stream->Met(met);
  ASSERT_TRUE(live.ok());
  EXPECT_GT(stream->maintenance().serve_fallbacks, fallbacks_before);
  EXPECT_TRUE(live->quality.populated);
  EXPECT_EQ(live->quality.min_score, 1.0);
  EXPECT_EQ(live->quality.excluded, 0u);

  // Without the predicate, the snapshot still serves the same request.
  met.min_quality = 0.0;
  auto served = serve::SnapshotMet(*snap, met, QueryMethod::kAuto);
  ASSERT_TRUE(served.ok());
  auto unfiltered = stream->Met(met);
  ASSERT_TRUE(unfiltered.ok());
  ExpectSameSelection(*served, *unfiltered);
}

}  // namespace
}  // namespace affinity::shard

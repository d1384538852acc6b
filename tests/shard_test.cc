// Tests for the sharded streaming service (src/shard): partitioner
// invariants, scatter-gather equivalence with the unsharded baseline at
// 1/2/8 shards × 1/2/8 threads, freshness-bounded (blended) answers, and
// the shard-manifest round-trip.

#include "shard/sharded.h"
#include "shard/shard_serve.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/serialize.h"
#include "ts/generators.h"
#include "ts/ingest.h"

namespace affinity::shard {
namespace {

using core::FreshnessOptions;
using core::Measure;
using core::MecRequest;
using core::MetRequest;
using core::MerRequest;
using core::QueryMethod;
using core::TopKRequest;

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

std::vector<std::string> Names(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

ts::Dataset TestData(std::size_t n = 16, std::uint64_t seed = 12) {
  ts::DatasetSpec spec;
  spec.num_series = n;
  spec.num_samples = 240;
  spec.num_clusters = 3;
  spec.noise_level = 0.02;
  spec.seed = seed;
  return ts::MakeSensorData(spec);
}

ShardedOptions SmallOptions(std::size_t shards, std::size_t threads = 1) {
  ShardedOptions options;
  options.shards = shards;
  options.streaming.window = 40;
  options.streaming.rebuild_interval = 20;
  options.streaming.mode = core::UpdateMode::kIncremental;
  options.streaming.build.afclst.k = 2;
  options.streaming.build.build_dft = false;
  options.streaming.build.threads = threads;
  return options;
}

/// Feeds rows [begin, end) of `ds` into the sharded service.
void Feed(ShardedAffinity* service, const ts::Dataset& ds, std::size_t begin, std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(service->Append(row).ok());
  }
}

void FeedStream(core::StreamingAffinity* stream, const ts::Dataset& ds, std::size_t begin,
                std::size_t end) {
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
}

// ---------------------------------------------------------------------------
// SeriesPartitioner.
// ---------------------------------------------------------------------------

TEST(Partitioner, RangeIsContiguousDisjointCover) {
  auto p = SeriesPartitioner::Create(Names(10), 3, PartitionScheme::kRange);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->shards(), 3u);
  std::set<ts::SeriesId> seen;
  for (std::size_t s = 0; s < 3; ++s) {
    const auto& group = p->group(s);
    EXPECT_GE(group.size(), 2u);
    EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
    // Contiguous block.
    EXPECT_EQ(group.back() - group.front() + 1, group.size());
    for (ts::SeriesId id : group) {
      EXPECT_TRUE(seen.insert(id).second) << "series in two shards";
      EXPECT_EQ(p->shard_of(id), s);
      EXPECT_EQ(p->global_id(s, p->local_id(id)), id);
    }
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Partitioner, HashIsBalancedDeterministicCover) {
  const auto names = Names(17);
  auto a = SeriesPartitioner::Create(names, 4, PartitionScheme::kHash);
  auto b = SeriesPartitioner::Create(names, 4, PartitionScheme::kHash);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::set<ts::SeriesId> seen;
  for (std::size_t s = 0; s < 4; ++s) {
    // Balanced within one series per shard: 17/4 → sizes in {4, 5}.
    EXPECT_GE(a->group(s).size(), 4u);
    EXPECT_LE(a->group(s).size(), 5u);
    EXPECT_EQ(a->group(s), b->group(s)) << "hash partition must be deterministic";
    for (ts::SeriesId id : a->group(s)) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), 17u);
}

TEST(Partitioner, CrossPairCountMatchesEnumeration) {
  auto p = SeriesPartitioner::Create(Names(9), 2, PartitionScheme::kHash);
  ASSERT_TRUE(p.ok());
  std::size_t cross = 0;
  for (std::size_t u = 0; u < 9; ++u) {
    for (std::size_t v = u + 1; v < 9; ++v) {
      if (p->shard_of(u) != p->shard_of(v)) ++cross;
    }
  }
  EXPECT_EQ(p->cross_pair_count(), cross);
}

TEST(Partitioner, RejectsBadGeometry) {
  EXPECT_FALSE(SeriesPartitioner::Create(Names(4), 0, PartitionScheme::kRange).ok());
  EXPECT_FALSE(SeriesPartitioner::Create(Names(4), 3, PartitionScheme::kRange).ok());
  EXPECT_FALSE(SeriesPartitioner::Create(Names(5), 3, PartitionScheme::kHash).ok());
  EXPECT_TRUE(SeriesPartitioner::Create(Names(6), 3, PartitionScheme::kRange).ok());
}

TEST(Partitioner, FromAssignmentRoundTrips) {
  auto p = SeriesPartitioner::Create(Names(11), 3, PartitionScheme::kHash);
  ASSERT_TRUE(p.ok());
  std::vector<std::uint32_t> assignment(11);
  for (std::size_t i = 0; i < 11; ++i) {
    assignment[i] = static_cast<std::uint32_t>(p->shard_of(i));
  }
  auto q = SeriesPartitioner::FromAssignment(assignment, 3, PartitionScheme::kHash);
  ASSERT_TRUE(q.ok());
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(p->group(s), q->group(s));
  // Out-of-range shard id rejected.
  assignment[0] = 7;
  EXPECT_FALSE(SeriesPartitioner::FromAssignment(assignment, 3, PartitionScheme::kHash).ok());
}

// ---------------------------------------------------------------------------
// Construction validation (Status, never a crash).
// ---------------------------------------------------------------------------

TEST(Sharded, CreateValidatesOptions) {
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), SmallOptions(0)).ok());
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), SmallOptions(9)).ok());  // 16 < 2·9
  ShardedOptions bad = SmallOptions(2);
  bad.streaming.window = 1;
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), bad).ok());
  bad = SmallOptions(2);
  bad.streaming.rebuild_interval = 0;
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), bad).ok());
  bad = SmallOptions(2);
  bad.streaming.incremental.exact_refit_period = 0;
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), bad).ok());
  bad = SmallOptions(2);
  bad.streaming.incremental.escalation_factor = 0.0;
  EXPECT_FALSE(ShardedAffinity::Create(Names(16), bad).ok());
  EXPECT_TRUE(ShardedAffinity::Create(Names(16), SmallOptions(2)).ok());
}

TEST(Sharded, AppendValidatesRowWidth) {
  auto service = ShardedAffinity::Create(Names(8), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE(service->Append({1.0, 2.0}).ok());
  EXPECT_TRUE(service->Append(std::vector<double>(8, 1.0)).ok());
}

TEST(Sharded, QueriesFailBeforeFirstSnapshot) {
  auto service = ShardedAffinity::Create(Names(8), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE(service->ready());
  MetRequest request{Measure::kCorrelation, 0.9, true};
  EXPECT_EQ(service->Met(request).status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Ingest semantics.
// ---------------------------------------------------------------------------

TEST(Sharded, ShardsRefreshInLockstep) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(4));
  ASSERT_TRUE(service.ok());
  std::vector<double> row(ds.matrix.n());
  std::size_t refreshes = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    const core::AppendResult result = service->Append(row);
    ASSERT_TRUE(result.ok());
    const bool expect_refresh = (i + 1) == 40 || ((i + 1) > 40 && (i + 1) % 20 == 0);
    EXPECT_EQ(result.refreshed, expect_refresh) << "row " << i + 1;
    if (result.refreshed) ++refreshes;
  }
  EXPECT_EQ(refreshes, 4u);
  EXPECT_TRUE(service->ready());
  EXPECT_EQ(service->rows_ingested(), 100u);
  // Lockstep: every shard's snapshot is the same age.
  for (const std::size_t age : service->snapshot_ages()) EXPECT_EQ(age, 0u);
  // Maintenance aggregation saw every shard's refreshes (first build at 40
  // plus 3 incremental refreshes per shard).
  EXPECT_EQ(service->maintenance().refreshes, 4u * 3u);
  EXPECT_GT(service->maintenance().tree_rekeys, 0u);
}

// ---------------------------------------------------------------------------
// Scatter-gather equivalence with the unsharded baseline.
// ---------------------------------------------------------------------------

/// Canonical order for comparing selection answers.
template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Sharded, AnswersMatchUnshardedBaseline) {
  const ts::Dataset ds = TestData();
  // Unsharded baseline over the same 120 rows.
  core::StreamingOptions base_options = SmallOptions(1).streaming;
  auto baseline = core::StreamingAffinity::Create(ds.matrix.names(), base_options);
  ASSERT_TRUE(baseline.ok());
  FeedStream(&*baseline, ds, 0, 120);
  ASSERT_TRUE(baseline->ready());

  const MetRequest met{Measure::kCorrelation, 0.9, true};
  const MerRequest mer{Measure::kCovariance, -0.1, 0.1};
  const MetRequest met_mean{Measure::kMean, 0.0, true};
  const TopKRequest topk{Measure::kCorrelation, 5, true};
  MecRequest mec;
  mec.measure = Measure::kCovariance;
  mec.ids = {0, 3, 7, 9, 12, 15};  // spans every shard at 8 shards

  auto base_met = baseline->Met(met);
  auto base_mer = baseline->Mer(mer);
  auto base_met_mean = baseline->Met(met_mean);
  auto base_topk = baseline->TopK(topk);
  auto base_mec = baseline->Mec(mec);
  ASSERT_TRUE(base_met.ok());
  ASSERT_TRUE(base_mer.ok());
  ASSERT_TRUE(base_met_mean.ok());
  ASSERT_TRUE(base_topk.ok());
  ASSERT_TRUE(base_mec.ok());
  ASSERT_GT(base_met->pairs.size(), 0u);
  ASSERT_GT(base_mer->pairs.size(), 0u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" + std::to_string(threads));
      auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(shards, threads));
      ASSERT_TRUE(service.ok());
      Feed(&*service, ds, 0, 120);
      ASSERT_TRUE(service->ready());

      // Two answer sources: the service's own queries (writer thread, live
      // shards) and the lock-free Router* readers over its current epoch.
      auto s_met = service->Met(met);
      auto s_mer = service->Mer(mer);
      auto s_met_mean = service->Met(met_mean);
      auto s_topk = service->TopK(topk);
      auto s_mec = service->Mec(mec);
      ASSERT_TRUE(s_met.ok());
      ASSERT_TRUE(s_mer.ok());
      ASSERT_TRUE(s_met_mean.ok());
      ASSERT_TRUE(s_topk.ok());
      ASSERT_TRUE(s_mec.ok());
      const auto snap = service->serving();
      ASSERT_NE(snap, nullptr);
      auto r_met = RouterMet(*snap, met);
      auto r_mer = RouterMer(*snap, mer);
      auto r_met_mean = RouterMet(*snap, met_mean);
      auto r_topk = RouterTopK(*snap, topk);
      auto r_mec = RouterMec(*snap, mec);
      ASSERT_TRUE(r_met.ok());
      ASSERT_TRUE(r_mer.ok());
      ASSERT_TRUE(r_met_mean.ok());
      ASSERT_TRUE(r_topk.ok());
      ASSERT_TRUE(r_mec.ok());

      const std::pair<const char*, const core::SelectionResult*> mets[] = {
          {"service", &s_met->result}, {"router", &*r_met}};
      for (const auto& [source, got] : mets) {
        EXPECT_EQ(Sorted(got->pairs), Sorted(base_met->pairs)) << source;
      }
      const std::pair<const char*, const core::SelectionResult*> mers[] = {
          {"service", &s_mer->result}, {"router", &*r_mer}};
      for (const auto& [source, got] : mers) {
        EXPECT_EQ(Sorted(got->pairs), Sorted(base_mer->pairs)) << source;
      }
      const std::pair<const char*, const core::SelectionResult*> means[] = {
          {"service", &s_met_mean->result}, {"router", &*r_met_mean}};
      for (const auto& [source, got] : means) {
        EXPECT_EQ(Sorted(got->series), Sorted(base_met_mean->series)) << source;
      }

      const std::pair<const char*, const core::TopKResult*> topks[] = {
          {"service", &s_topk->result}, {"router", &*r_topk}};
      for (const auto& [source, got] : topks) {
        SCOPED_TRACE(source);
        ASSERT_EQ(got->entries.size(), base_topk->entries.size());
        // Same entity set, same order by value; values equal to a few ulps
        // (per-shard WA and cross-shard WN round differently).
        std::vector<ts::SequencePair> s_pairs;
        std::vector<ts::SequencePair> b_pairs;
        for (std::size_t i = 0; i < base_topk->entries.size(); ++i) {
          s_pairs.push_back(got->entries[i].pair);
          b_pairs.push_back(base_topk->entries[i].pair);
          EXPECT_NEAR(got->entries[i].value, base_topk->entries[i].value, 1e-9);
        }
        EXPECT_EQ(Sorted(s_pairs), Sorted(b_pairs));
      }

      const std::pair<const char*, const core::MecResponse*> mecs[] = {
          {"service", &s_mec->response}, {"router", &*r_mec}};
      for (const auto& [source, got] : mecs) {
        for (std::size_t i = 0; i < mec.ids.size(); ++i) {
          for (std::size_t j = 0; j < mec.ids.size(); ++j) {
            EXPECT_NEAR(got->pair_values(i, j), base_mec->pair_values(i, j), 1e-9)
                << source << " cell " << i << "," << j;
          }
        }
      }

      // The executed plan is shard-aware: at N > 1 the rationale records
      // the scatter-gather and the kAuto dispatch still resolves.
      if (shards > 1) {
        EXPECT_NE(s_met->result.plan.rationale.find("scatter-gather"), std::string::npos);
      }
    }
  }
}

/// TestData with exact ties: series 12 copies series 2 (they land in
/// different shards at 2 and 8 shards) and series 6 is constant zero, so
/// each of its pairs is valued exactly 0 on every path — per-shard index,
/// per-shard sweep and cross-shard sweep alike.
ts::Dataset TiedTestData() {
  ts::Dataset ds = TestData();
  la::Matrix& values = ds.matrix.mutable_matrix();
  for (std::size_t i = 0; i < values.rows(); ++i) {
    values(i, 12) = values(i, 2);
    values(i, 6) = 0.0;
  }
  return ds;
}

TEST(Sharded, TiedTopKMatchesUnshardedBaseline) {
  const ts::Dataset ds = TiedTestData();
  auto baseline = core::StreamingAffinity::Create(ds.matrix.names(), SmallOptions(1).streaming);
  ASSERT_TRUE(baseline.ok());
  FeedStream(&*baseline, ds, 0, 120);
  ASSERT_TRUE(baseline->ready());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(shards));
    ASSERT_TRUE(service.ok());
    Feed(&*service, ds, 0, 120);
    ASSERT_TRUE(service->ready());
    for (Measure measure : {Measure::kCovariance, Measure::kDotProduct, Measure::kCorrelation,
                            Measure::kCosine}) {
      for (const bool largest : {true, false}) {
        auto full = baseline->TopK(TopKRequest{measure, 1000, largest});
        ASSERT_TRUE(full.ok());
        // k reaching two entries into the exact zero-valued tie group.
        std::size_t straddle = 0;
        while (full->entries[straddle].value != 0.0) ++straddle;
        straddle += 2;
        // SIZE_MAX: every pair, with no allocation sized by k.
        for (const std::size_t k : {std::size_t{10}, std::size_t{50}, straddle,
                                    std::numeric_limits<std::size_t>::max()}) {
          SCOPED_TRACE("shards=" + std::to_string(shards) + " " +
                       std::string(core::MeasureName(measure)) +
                       (largest ? " largest" : " smallest") + " k=" + std::to_string(k));
          const TopKRequest req{measure, k, largest};
          auto base = baseline->TopK(req);
          auto sharded = service->TopK(req);
          auto routed = RouterTopK(*service->serving(), req);
          ASSERT_TRUE(base.ok());
          ASSERT_TRUE(sharded.ok());
          ASSERT_TRUE(routed.ok());
          // Two answer sources: the service's own query and the lock-free
          // router snapshot.
          const std::pair<const char*, const core::TopKResult*> sources[] = {
              {"service", &sharded->result}, {"router", &*routed}};
          for (const auto& [source, got] : sources) {
            SCOPED_TRACE(source);
            ASSERT_EQ(got->entries.size(), base->entries.size());
            std::vector<ts::SequencePair> s_pairs;
            std::vector<ts::SequencePair> b_pairs;
            for (std::size_t i = 0; i < base->entries.size(); ++i) {
              const core::ScapeTopKEntry& entry = got->entries[i];
              s_pairs.push_back(entry.pair);
              b_pairs.push_back(base->entries[i].pair);
              // Per-shard propagation and the cross-shard sweep differ from
              // the unsharded propagation by the affine fits' residue.
              EXPECT_NEAR(entry.value, base->entries[i].value,
                          1e-7 * (1.0 + std::fabs(base->entries[i].value)))
                  << "rank " << i;
              // Exact ties resolve by pair id on every path.
              if (base->entries[i].value == 0.0) {
                EXPECT_EQ(entry.pair, base->entries[i].pair) << "rank " << i;
                EXPECT_EQ(entry.value, 0.0) << "rank " << i;
              }
            }
            EXPECT_EQ(Sorted(s_pairs), Sorted(b_pairs));
          }
        }
      }
    }
  }
}

TEST(Sharded, HashPartitionAlsoMatchesBaseline) {
  {
    // The planner's own choice (kAuto): planned in-shard answers merged
    // with hash-partitioned cross pairs select the baseline's pair set.
    const ts::Dataset ds = TestData();
    auto baseline = core::StreamingAffinity::Create(ds.matrix.names(), SmallOptions(1).streaming);
    ASSERT_TRUE(baseline.ok());
    FeedStream(&*baseline, ds, 0, 120);
    ShardedOptions options = SmallOptions(4);
    options.partition = PartitionScheme::kHash;
    auto service = ShardedAffinity::Create(ds.matrix.names(), options);
    ASSERT_TRUE(service.ok());
    Feed(&*service, ds, 0, 120);
    const MetRequest met{Measure::kCorrelation, 0.9, true};
    auto base = baseline->Met(met);
    auto sharded = service->Met(met);
    ASSERT_NE(service->serving(), nullptr);
    auto routed = RouterMet(*service->serving(), met);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE(routed.ok());
    ASSERT_GT(base->pairs.size(), 0u);
    EXPECT_EQ(Sorted(sharded->result.pairs), Sorted(base->pairs));
    EXPECT_EQ(Sorted(routed->pairs), Sorted(base->pairs));
  }

  // 18 series: hash groups of 6/6/6 at 3 shards and 5/5/4/4 at 4, none all
  // multiples of the 4-wide dot tile, so the cross sweep runs tile tails;
  // and the hash order puts the lower id of many a cross pair in the later
  // shard, so blocks measure pairs whose row member is the pair's v.
  const ts::Dataset ds = TestData(18);
  auto baseline = core::StreamingAffinity::Create(ds.matrix.names(), SmallOptions(1).streaming);
  ASSERT_TRUE(baseline.ok());
  FeedStream(&*baseline, ds, 0, 120);
  ASSERT_TRUE(baseline->ready());
  // WN everywhere: every value on every side is the same canonical dot
  // chain over the same window, so answers agree bit for bit.
  FreshnessOptions naive;
  naive.method = QueryMethod::kNaive;

  for (const std::size_t shards : {std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedOptions options = SmallOptions(shards);
    options.partition = PartitionScheme::kHash;
    auto service = ShardedAffinity::Create(ds.matrix.names(), options);
    ASSERT_TRUE(service.ok());
    Feed(&*service, ds, 0, 120);
    const auto snap = service->serving();
    ASSERT_NE(snap, nullptr);
    const SeriesPartitioner& p = snap->routing->partitioner;
    bool tail = false;
    for (std::size_t s = 0; s < shards; ++s) tail = tail || p.group(s).size() % 4 != 0;
    EXPECT_TRUE(tail);
    bool inverted = false;
    for (const ts::SequencePair e : snap->routing->cross.pairs) {
      inverted = inverted || p.shard_of(e.u) > p.shard_of(e.v);
    }
    EXPECT_TRUE(inverted);

    for (const Measure measure : {Measure::kCorrelation, Measure::kCovariance, Measure::kCosine,
                                  Measure::kDotProduct}) {
      SCOPED_TRACE(std::string(core::MeasureName(measure)));
      // Top-k over every pair carries every value.
      const TopKRequest all{measure, std::numeric_limits<std::size_t>::max(), true};
      auto base = baseline->TopK(all, naive);
      ASSERT_TRUE(base.ok());
      ASSERT_EQ(base->entries.size(), 18u * 17 / 2);
      auto s_topk = service->TopK(all, naive);
      auto r_topk = RouterTopK(*snap, all, QueryMethod::kNaive);
      ASSERT_TRUE(s_topk.ok());
      ASSERT_TRUE(r_topk.ok());
      const std::pair<const char*, const core::TopKResult*> topks[] = {
          {"service", &s_topk->result}, {"router", &*r_topk}};
      for (const auto& [source, got] : topks) {
        ASSERT_EQ(got->entries.size(), base->entries.size()) << source;
        for (std::size_t i = 0; i < base->entries.size(); ++i) {
          EXPECT_EQ(got->entries[i].pair, base->entries[i].pair) << source << " rank " << i;
          EXPECT_EQ(got->entries[i].value, base->entries[i].value) << source << " rank " << i;
        }
      }
      // MET/MER cut at interior values of the baseline distribution.
      const std::size_t count = base->entries.size();
      const double high = base->entries[count / 4].value;
      const double low = base->entries[3 * count / 4].value;
      const MetRequest met{measure, low, true};
      const MerRequest mer{measure, low, high};
      auto base_met = baseline->Met(met, naive);
      auto base_mer = baseline->Mer(mer, naive);
      auto s_met = service->Met(met, naive);
      auto s_mer = service->Mer(mer, naive);
      auto r_met = RouterMet(*snap, met, QueryMethod::kNaive);
      auto r_mer = RouterMer(*snap, mer, QueryMethod::kNaive);
      ASSERT_TRUE(base_met.ok());
      ASSERT_TRUE(base_mer.ok());
      ASSERT_TRUE(s_met.ok());
      ASSERT_TRUE(s_mer.ok());
      ASSERT_TRUE(r_met.ok());
      ASSERT_TRUE(r_mer.ok());
      ASSERT_GT(base_met->pairs.size(), 0u);
      ASSERT_GT(base_mer->pairs.size(), 0u);
      EXPECT_EQ(s_met->result.pairs, Sorted(base_met->pairs));
      EXPECT_EQ(r_met->pairs, Sorted(base_met->pairs));
      EXPECT_EQ(s_mer->result.pairs, Sorted(base_mer->pairs));
      EXPECT_EQ(r_mer->pairs, Sorted(base_mer->pairs));
    }
  }
}

TEST(Sharded, ResultsAreIdenticalAcrossThreadCounts) {
  const ts::Dataset ds = TestData();
  std::vector<ShardedTopK> per_thread;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(4, threads));
    ASSERT_TRUE(service.ok());
    Feed(&*service, ds, 0, 100);
    auto topk = service->TopK(TopKRequest{Measure::kCovariance, 7, true});
    ASSERT_TRUE(topk.ok());
    per_thread.push_back(std::move(*topk));
  }
  for (std::size_t t = 1; t < per_thread.size(); ++t) {
    ASSERT_EQ(per_thread[t].result.entries.size(), per_thread[0].result.entries.size());
    for (std::size_t i = 0; i < per_thread[0].result.entries.size(); ++i) {
      EXPECT_EQ(per_thread[t].result.entries[i].pair, per_thread[0].result.entries[i].pair);
      // Bitwise: the §7 determinism contract extends through the router.
      EXPECT_EQ(per_thread[t].result.entries[i].value, per_thread[0].result.entries[i].value);
    }
  }
}

// ---------------------------------------------------------------------------
// Freshness-bounded answers.
// ---------------------------------------------------------------------------

TEST(Sharded, FreshnessReportsAgeAndBlends) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 40);  // first snapshot at row 40
  ASSERT_TRUE(service->ready());

  // Age the snapshot by 5 rows with a ×3 amplitude regime so the live
  // marginals clearly disagree with the snapshot.
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = 40; i < 45; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = 3.0 * ds.matrix.matrix()(i, j);
    ASSERT_TRUE(service->Append(row).ok());
  }

  MecRequest mec;
  mec.measure = Measure::kCovariance;
  mec.ids = {0, 15};  // different shards at 2-way range partition

  // Unbounded: snapshot answer, age reported, no blending.
  auto stale = service->Mec(mec);
  ASSERT_TRUE(stale.ok());
  for (const ShardFreshness& f : stale->shards) {
    EXPECT_EQ(f.snapshot_age, 5u);
    EXPECT_FALSE(f.blended);
  }

  // Bounded tighter than the age: blended answer, flagged per shard.
  FreshnessOptions bounded;
  bounded.max_staleness = 2;
  auto fresh = service->Mec(mec, bounded);
  ASSERT_TRUE(fresh.ok());
  for (const ShardFreshness& f : fresh->shards) {
    EXPECT_EQ(f.snapshot_age, 5u);
    EXPECT_TRUE(f.blended);
  }

  // The blend tracks the live scale: snapshot correlation × live σuσv.
  MecRequest corr = mec;
  corr.measure = Measure::kCorrelation;
  auto rho = service->Mec(corr);
  ASSERT_TRUE(rho.ok());
  const auto& su = service->shard(service->router().partitioner().shard_of(0));
  const auto& sv = service->shard(service->router().partitioner().shard_of(15));
  const ts::RollingStats& ru =
      su.rolling_stats()[service->router().partitioner().local_id(0)];
  const ts::RollingStats& rv =
      sv.rolling_stats()[service->router().partitioner().local_id(15)];
  const double expected =
      rho->response.pair_values(0, 1) * std::sqrt(ru.Variance() * rv.Variance());
  EXPECT_NEAR(fresh->response.pair_values(0, 1), expected, 1e-9);
  // And it moved away from the stale snapshot answer (the ×3 regime).
  EXPECT_GT(std::abs(fresh->response.pair_values(0, 1)),
            1.5 * std::abs(stale->response.pair_values(0, 1)));

  // Blended correlation is the snapshot correlation (scale-free).
  auto fresh_corr = service->Mec(corr, bounded);
  ASSERT_TRUE(fresh_corr.ok());
  EXPECT_DOUBLE_EQ(fresh_corr->response.pair_values(0, 1), rho->response.pair_values(0, 1));

  // A fresh-enough snapshot is never blended.
  FreshnessOptions loose;
  loose.max_staleness = 10;
  auto unblended = service->Mec(mec, loose);
  ASSERT_TRUE(unblended.ok());
  for (const ShardFreshness& f : unblended->shards) EXPECT_FALSE(f.blended);
  EXPECT_DOUBLE_EQ(unblended->response.pair_values(0, 1), stale->response.pair_values(0, 1));
}

TEST(Sharded, BlendedCrossPairsComeFromOneSweep) {
  // Every blended cross value is BlendPairMeasure over the epoch's own
  // correlation and value of that pair — both from its one co-moment set,
  // so the blended gather sweeps once — with the sweep chunked on a pool
  // or run inline alike.
  const ts::Dataset ds = TestData();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(3, threads));
    ASSERT_TRUE(service.ok());
    Feed(&*service, ds, 0, 45);  // snapshot at row 40, aged 5 rows
    FreshnessOptions bounded;
    bounded.max_staleness = 2;
    const auto snap = service->serving();
    ASSERT_NE(snap, nullptr);
    const SeriesPartitioner& p = snap->routing->partitioner;
    const auto values_of = [](const core::TopKResult& r) {
      std::map<ts::SequencePair, double> out;
      for (const core::ScapeTopKEntry& e : r.entries) out[e.pair] = e.value;
      return out;
    };
    const std::size_t all = std::numeric_limits<std::size_t>::max();
    auto rho = RouterTopK(*snap, TopKRequest{Measure::kCorrelation, all, true});
    ASSERT_TRUE(rho.ok());
    const auto rho_of = values_of(*rho);
    for (const Measure measure : {Measure::kCovariance, Measure::kDotProduct, Measure::kCosine}) {
      SCOPED_TRACE(std::string(core::MeasureName(measure)));
      const TopKRequest request{measure, all, true};
      auto epoch = RouterTopK(*snap, request);
      auto blended = service->TopK(request, bounded);
      ASSERT_TRUE(epoch.ok());
      ASSERT_TRUE(blended.ok());
      const auto value_of = values_of(*epoch);
      std::size_t checked = 0;
      for (const core::ScapeTopKEntry& e : blended->result.entries) {
        if (p.shard_of(e.pair.u) == p.shard_of(e.pair.v)) continue;
        const auto& su = service->shard(p.shard_of(e.pair.u)).rolling_stats()[p.local_id(e.pair.u)];
        const auto& sv = service->shard(p.shard_of(e.pair.v)).rolling_stats()[p.local_id(e.pair.v)];
        EXPECT_EQ(e.value, core::BlendPairMeasure(measure, rho_of.at(e.pair),
                                                  value_of.at(e.pair), su, sv));
        ++checked;
      }
      EXPECT_EQ(checked, snap->routing->cross.pairs.size());
    }
  }
}

TEST(Streaming, FreshnessBlendOnSingleInstance) {
  const ts::Dataset ds = TestData(10);
  core::StreamingOptions options;
  options.window = 40;
  options.rebuild_interval = 20;
  options.build.afclst.k = 2;
  options.build.build_dft = false;
  auto stream = core::StreamingAffinity::Create(ds.matrix.names(), options);
  ASSERT_TRUE(stream.ok());
  FeedStream(&*stream, ds, 0, 40);
  ASSERT_TRUE(stream->ready());
  std::vector<double> row(ds.matrix.n());
  for (std::size_t i = 40; i < 44; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = 2.0 * ds.matrix.matrix()(i, j);
    ASSERT_TRUE(stream->Append(row).ok());
  }
  EXPECT_EQ(stream->snapshot_age(), 4u);

  // Blended mean equals the live rolling mean exactly.
  FreshnessOptions bounded;
  bounded.max_staleness = 1;
  core::FreshnessReport report;
  MecRequest mec;
  mec.measure = Measure::kMean;
  mec.ids = {2};
  auto blended = stream->Mec(mec, bounded, &report);
  ASSERT_TRUE(blended.ok());
  EXPECT_TRUE(report.blended);
  EXPECT_EQ(report.snapshot_age, 4u);
  EXPECT_DOUBLE_EQ(blended->location[0], stream->rolling_stats()[2].Mean());

  // Blended top-k runs the sweep (plan documents the blend).
  auto topk = stream->TopK(TopKRequest{Measure::kCovariance, 3, true}, bounded, &report);
  ASSERT_TRUE(topk.ok());
  EXPECT_TRUE(report.blended);
  EXPECT_EQ(topk->entries.size(), 3u);
  EXPECT_NE(topk->plan.rationale.find("freshness blend"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shard-manifest round-trip.
// ---------------------------------------------------------------------------

TEST(Sharded, ManifestRoundTripPreservesAnswers) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  Feed(&*service, ds, 0, 100);  // first build + 3 incremental refreshes
  ASSERT_TRUE(service->ready());
  EXPECT_GT(service->maintenance().refreshes, 0u);

  const std::string path = TempPath("sharded.affs");
  ASSERT_TRUE(service->Save(path).ok());
  auto loaded = ShardedAffinity::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->ready());
  EXPECT_EQ(loaded->shard_count(), 2u);
  // Build/maintenance tuning survives the round trip (a post-restore
  // escalation must rebuild with the original knobs, not defaults).
  EXPECT_EQ(loaded->options().streaming.build.afclst.k, 2u);
  EXPECT_FALSE(loaded->options().streaming.build.build_dft);
  EXPECT_EQ(loaded->options().streaming.rebuild_interval, 20u);

  const MetRequest met{Measure::kCorrelation, 0.9, true};
  const TopKRequest topk{Measure::kCorrelation, 5, true};
  auto met_a = service->Met(met);
  auto met_b = loaded->Met(met);
  ASSERT_TRUE(met_a.ok());
  ASSERT_TRUE(met_b.ok());
  EXPECT_EQ(met_a->result.pairs, met_b->result.pairs);

  auto topk_a = service->TopK(topk);
  auto topk_b = loaded->TopK(topk);
  ASSERT_TRUE(topk_a.ok());
  ASSERT_TRUE(topk_b.ok());
  ASSERT_EQ(topk_a->result.entries.size(), topk_b->result.entries.size());
  for (std::size_t i = 0; i < topk_a->result.entries.size(); ++i) {
    EXPECT_EQ(topk_a->result.entries[i].pair, topk_b->result.entries[i].pair);
    EXPECT_NEAR(topk_a->result.entries[i].value, topk_b->result.entries[i].value, 1e-9);
  }

  // Load re-freezes the maintainer (an exact refit of every relationship,
  // as after an escalation), so values may shift by the bounded round-off
  // the refit cadence normally reclaims — compare to that tolerance.
  MecRequest mec;
  mec.measure = Measure::kDotProduct;
  mec.ids = {1, 8, 14};
  auto mec_a = service->Mec(mec);
  auto mec_b = loaded->Mec(mec);
  ASSERT_TRUE(mec_a.ok());
  ASSERT_TRUE(mec_b.ok());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const double a = mec_a->response.pair_values(i, j);
      const double b = mec_b->response.pair_values(i, j);
      EXPECT_NEAR(a, b, 1e-8 * (1.0 + std::abs(a)));
    }
  }

  // A v2 manifest (written before the cross co-moment cache was removed)
  // carries two extra words — the cache budget and resync period — after
  // the build-tuning section. Rewrite this v3 save into that layout: the
  // load discards the two words and restores the same deployment.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::uint32_t v2 = 2;
    bytes.replace(4, sizeof v2, reinterpret_cast<const char*>(&v2), sizeof v2);
    // 28-byte header, 4 bytes of assignment per series, 28 bytes of
    // streaming geometry, 92 bytes of build tuning.
    const std::size_t tuning_end = 28 + 4 * ds.matrix.n() + 28 + 92;
    const std::uint64_t cache_words[2] = {8, 64};
    bytes.insert(tuning_end, reinterpret_cast<const char*>(cache_words), sizeof cache_words);
    const std::string v2_path = TempPath("sharded_v2.affs");
    std::ofstream(v2_path, std::ios::binary) << bytes;
    auto from_v2 = ShardedAffinity::Load(v2_path);
    ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
    auto met_v2 = from_v2->Met(met);
    auto topk_v2 = from_v2->TopK(topk);
    auto mec_v2 = from_v2->Mec(mec);
    ASSERT_TRUE(met_v2.ok());
    ASSERT_TRUE(topk_v2.ok());
    ASSERT_TRUE(mec_v2.ok());
    EXPECT_EQ(met_v2->result.pairs, met_b->result.pairs);
    ASSERT_EQ(topk_v2->result.entries.size(), topk_b->result.entries.size());
    for (std::size_t i = 0; i < topk_b->result.entries.size(); ++i) {
      EXPECT_EQ(topk_v2->result.entries[i].pair, topk_b->result.entries[i].pair);
      EXPECT_EQ(topk_v2->result.entries[i].value, topk_b->result.entries[i].value);
    }
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(mec_v2->response.pair_values(i, j), mec_b->response.pair_values(i, j));
      }
    }
  }

  // The restored deployment keeps streaming: one interval → a refresh.
  std::vector<double> row(ds.matrix.n());
  bool refreshed = false;
  for (std::size_t i = 100; i < 120; ++i) {
    for (std::size_t j = 0; j < ds.matrix.n(); ++j) row[j] = ds.matrix.matrix()(i, j);
    const auto result = loaded->Append(row);
    ASSERT_TRUE(result.ok());
    refreshed |= result.refreshed;
  }
  EXPECT_TRUE(refreshed);
}

TEST(Sharded, LoadRejectsCorruptManifests) {
  EXPECT_EQ(ShardedAffinity::Load(TempPath("missing.affs")).status().code(),
            StatusCode::kIoError);
  const std::string path = TempPath("garbage.affs");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a manifest at all";
  }
  EXPECT_EQ(ShardedAffinity::Load(path).status().code(), StatusCode::kInvalidArgument);

  // A bare 28-byte header declaring n = 2^28 series: the assignment table
  // it announces cannot fit in the file, so Load rejects the header
  // instead of sizing a 1 GiB table from it.
  const std::string huge = TempPath("huge_n.affs");
  {
    std::ofstream out(huge, std::ios::binary);
    const std::uint32_t version = 3;
    const std::uint64_t shards = 2;
    const std::uint64_t n = std::uint64_t{1} << 28;
    const std::uint32_t scheme = 0;
    out.write("AFFS", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    out.write(reinterpret_cast<const char*>(&shards), sizeof shards);
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(&scheme), sizeof scheme);
  }
  EXPECT_EQ(ShardedAffinity::Load(huge).status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Dirty ingestion + quality predicates across shards (DESIGN.md §12).
// ---------------------------------------------------------------------------

/// Feeds `rows` dataset rows through a StreamAligner, dropping ~`dirty_pct`
/// of the samples, and appends each emitted masked row to both sinks.
void FeedDirtyBoth(core::StreamingAffinity* baseline, ShardedAffinity* service,
                   const ts::Dataset& ds, std::size_t rows, double dirty_pct,
                   std::uint64_t seed) {
  const std::size_t n = ds.matrix.n();
  ts::IngestOptions iopts;
  iopts.max_fill = 3;
  ts::StreamAligner aligner(n, iopts);
  Xoshiro256 rng(seed);
  std::vector<ts::AlignedRow> emitted;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.Uniform(0.0, 1.0) < dirty_pct) continue;  // sample never arrives
      ASSERT_TRUE(aligner.Push(j, static_cast<double>(i), ds.matrix.matrix()(i, j)).ok());
    }
    emitted.clear();
    aligner.EmitUpTo(static_cast<double>(i + 1), &emitted);
    for (const ts::AlignedRow& row : emitted) {
      ASSERT_TRUE(baseline->AppendMasked(row).ok());
      ASSERT_TRUE(service->AppendMasked(row).ok());
    }
  }
}

TEST(ShardedQuality, FilteredAnswersMatchUnshardedBaseline) {
  const ts::Dataset ds = TestData();
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto baseline =
        core::StreamingAffinity::Create(ds.matrix.names(), SmallOptions(1).streaming);
    ASSERT_TRUE(baseline.ok());
    auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(shards));
    ASSERT_TRUE(service.ok());
    FeedDirtyBoth(&*baseline, &*service, ds, 120, 0.15, 2024);
    ASSERT_TRUE(baseline->ready());
    ASSERT_TRUE(service->ready());

    // Both sides saw identical masks, so the per-series scores agree.
    const std::vector<double>& scores = baseline->quality_scores();
    double lo = 1.0, hi = 0.0;
    for (const double s : scores) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    ASSERT_LT(lo, hi);
    const double threshold = 0.5 * (lo + hi);

    MetRequest met{Measure::kCorrelation, 0.5, true};
    met.min_quality = threshold;
    auto base_met = baseline->Met(met);
    auto s_met = service->Met(met);
    ASSERT_TRUE(base_met.ok());
    ASSERT_TRUE(s_met.ok());
    EXPECT_EQ(Sorted(s_met->result.pairs), Sorted(base_met->pairs));
    EXPECT_TRUE(s_met->result.quality.populated);
    EXPECT_GE(s_met->result.quality.min_score, threshold);
    for (const auto& p : s_met->result.pairs) {
      EXPECT_GE(scores[p.u], threshold);
      EXPECT_GE(scores[p.v], threshold);
    }

    MerRequest mer{Measure::kCorrelation, 0.2, 0.9};
    mer.min_quality = threshold;
    auto base_mer = baseline->Mer(mer);
    auto s_mer = service->Mer(mer);
    ASSERT_TRUE(base_mer.ok());
    ASSERT_TRUE(s_mer.ok());
    EXPECT_EQ(Sorted(s_mer->result.pairs), Sorted(base_mer->pairs));

    TopKRequest topk{Measure::kCorrelation, 5, true};
    topk.min_quality = threshold;
    auto base_topk = baseline->TopK(topk);
    auto s_topk = service->TopK(topk);
    ASSERT_TRUE(base_topk.ok());
    ASSERT_TRUE(s_topk.ok());
    ASSERT_EQ(s_topk->result.entries.size(), base_topk->entries.size());
    std::vector<ts::SequencePair> s_pairs;
    std::vector<ts::SequencePair> b_pairs;
    for (std::size_t i = 0; i < base_topk->entries.size(); ++i) {
      s_pairs.push_back(s_topk->result.entries[i].pair);
      b_pairs.push_back(base_topk->entries[i].pair);
      EXPECT_NEAR(s_topk->result.entries[i].value, base_topk->entries[i].value, 1e-9);
      EXPECT_GE(scores[s_topk->result.entries[i].pair.u], threshold);
      EXPECT_GE(scores[s_topk->result.entries[i].pair.v], threshold);
    }
    EXPECT_EQ(Sorted(s_pairs), Sorted(b_pairs));
    EXPECT_TRUE(s_topk->result.quality.populated);

    // MEC: an eligible id set answers with a quality stamp; a set touching
    // a below-threshold series fails FailedPrecondition through the router
    // exactly like the facade.
    ts::SeriesId good = 0, bad = 0;
    for (std::size_t j = 0; j < scores.size(); ++j) {
      if (scores[j] >= threshold) good = static_cast<ts::SeriesId>(j);
      if (scores[j] < threshold) bad = static_cast<ts::SeriesId>(j);
    }
    MecRequest mec_ok;
    mec_ok.measure = Measure::kCorrelation;
    mec_ok.ids = {good};
    mec_ok.min_quality = threshold;
    auto s_mec = service->Mec(mec_ok);
    ASSERT_TRUE(s_mec.ok());
    EXPECT_TRUE(s_mec->response.quality.populated);

    MecRequest mec_bad = mec_ok;
    mec_bad.ids = {good, bad};
    EXPECT_EQ(service->Mec(mec_bad).status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(baseline->Mec(mec_bad).status().code(), StatusCode::kFailedPrecondition);

    // The lock-free router has no quality surface: every predicate comes
    // back Unavailable (the caller's cue to ask the live service), MEC
    // included, instead of an answer that ignored it.
    const auto snap = service->serving();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(RouterMet(*snap, met).status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(RouterTopK(*snap, topk).status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(RouterMec(*snap, mec_ok).status().code(), StatusCode::kUnavailable);
  }
}

TEST(ShardedQuality, AppendMaskedValidatesShapes) {
  const ts::Dataset ds = TestData();
  auto service = ShardedAffinity::Create(ds.matrix.names(), SmallOptions(2));
  ASSERT_TRUE(service.ok());
  const std::size_t n = ds.matrix.n();
  std::vector<double> row(n, 1.0);
  EXPECT_EQ(service
                ->AppendMasked(row, std::vector<std::uint8_t>(n - 1, 1),
                               std::vector<std::uint8_t>(n, 0))
                .status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      service->AppendMasked(row, std::vector<std::uint8_t>(n, 1), std::vector<std::uint8_t>(n, 0))
          .ok());
  EXPECT_EQ(service->rows_ingested(), 1u);
}

}  // namespace
}  // namespace affinity::shard

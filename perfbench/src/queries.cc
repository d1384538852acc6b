#include "queries.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/random.h"
#include "core/measures.h"

namespace affinity::perfbench {

namespace {

constexpr core::Measure kMixMeasures[] = {core::Measure::kCorrelation, core::Measure::kCovariance,
                                          core::Measure::kCosine, core::Measure::kDotProduct,
                                          core::Measure::kMean};
constexpr std::size_t kNumMixMeasures = sizeof(kMixMeasures) / sizeof(kMixMeasures[0]);
constexpr core::Measure kAccuracyMeasures[] = {
    core::Measure::kCorrelation, core::Measure::kCovariance, core::Measure::kCosine,
    core::Measure::kDotProduct,  core::Measure::kMean,       core::Measure::kMedian,
    core::Measure::kMode};
constexpr std::size_t kNumAccuracyMeasures =
    sizeof(kAccuracyMeasures) / sizeof(kAccuracyMeasures[0]);
constexpr double kMinSelectivity = 0.001;
constexpr double kMaxSelectivity = 0.20;

/// Sorted WN values of `measure` over a seeded sample of the window's
/// entities (every series for L-measures, up to 4000 pairs otherwise).
std::vector<double> SampleValues(const ts::DataMatrix& window, core::Measure measure,
                                 Xoshiro256* rng) {
  std::vector<double> values;
  const std::size_t n = window.n();
  if (core::IsLocation(measure)) {
    for (ts::SeriesId v = 0; v < n; ++v) {
      values.push_back(*core::NaiveLocationMeasure(measure, window.ColumnData(v), window.m()));
    }
  } else {
    for (int i = 0; i < 4000; ++i) {
      const auto u = static_cast<ts::SeriesId>(rng->NextBounded(n));
      auto v = static_cast<ts::SeriesId>(rng->NextBounded(n - 1));
      if (v >= u) ++v;
      values.push_back(*core::NaivePairMeasure(measure, window.ColumnData(u),
                                               window.ColumnData(v), window.m()));
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

/// The q-quantile of sorted `values`, nudged off any stored value: a
/// threshold is a cut point, and ulp-level ties are unspecified for a
/// key-transformed index (scape.h, "Boundary semantics").
double CutAt(const std::vector<double>& values, double q, Xoshiro256* rng) {
  const auto i = std::min(values.size() - 1,
                          static_cast<std::size_t>(q * static_cast<double>(values.size())));
  const double tau = values[i];
  const double nudge = rng->Uniform(1e-7, 1e-6) * (1.0 + std::fabs(tau));
  return rng->NextDouble() < 0.5 ? tau - nudge : tau + nudge;
}

/// Selectivity at the log-scale midpoint of stratum `i` of `strata`.
double StratumSelectivity(std::size_t i, std::size_t strata) {
  const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(strata);
  return std::exp(std::log(kMinSelectivity) +
                  u * (std::log(kMaxSelectivity) - std::log(kMinSelectivity)));
}

/// |ψ| of MEC request `i`: 16, 20, .., 32 in turn, the same for every seed.
std::size_t MecSize(std::size_t i) { return 16 + 4 * (i % 5); }

std::vector<ts::SeriesId> DrawIds(std::size_t n, std::size_t size, Xoshiro256* rng) {
  size = std::min(n, size);
  std::vector<ts::SeriesId> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<ts::SeriesId>(i);
  for (std::size_t i = 0; i < size; ++i) {
    std::swap(all[i], all[i + rng->NextBounded(n - i)]);
  }
  all.resize(size);
  return all;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMet: return "met";
    case Kind::kMer: return "mer";
    case Kind::kMec: return "mec";
    case Kind::kTopK: return "topk";
  }
  return "?";
}

std::vector<Query> MakeQueryMix(const ts::DataMatrix& window, std::uint64_t seed,
                                std::size_t count) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<std::vector<double>> sampled;
  for (core::Measure m : kMixMeasures) sampled.push_back(SampleValues(window, m, &rng));

  const std::size_t shares[kNumKinds] = {count * 40 / 100, count * 25 / 100, count * 25 / 100,
                                         count - count * 90 / 100};
  std::vector<Query> mix;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    const std::size_t total = shares[kind];
    const std::size_t strata = std::max<std::size_t>(1, total / kNumMixMeasures);
    for (std::size_t i = 0; i < total; ++i) {
      Query q;
      q.kind = static_cast<Kind>(kind);
      const std::size_t mi = i % kNumMixMeasures;
      const std::size_t stratum = i / kNumMixMeasures;
      q.measure = kMixMeasures[mi];
      const std::vector<double>& values = sampled[mi];
      switch (q.kind) {
        case Kind::kMet: {
          const double s = StratumSelectivity(stratum % strata, strata);
          q.greater = stratum % 2 == 0;
          q.a = CutAt(values, q.greater ? 1.0 - s : s, &rng);
          break;
        }
        case Kind::kMer: {
          const double s = StratumSelectivity(stratum % strata, strata);
          const double lo = (1.0 - s) * (0.2 + 0.3 * static_cast<double>(stratum % 3));
          q.a = CutAt(values, lo, &rng);
          q.b = CutAt(values, lo + s, &rng);
          if (q.b < q.a) std::swap(q.a, q.b);
          break;
        }
        case Kind::kMec:
          q.ids = DrawIds(window.n(), MecSize(stratum), &rng);
          break;
        case Kind::kTopK:
          q.k = stratum % 2 == 0 ? 10 : 50;
          break;
      }
      mix.push_back(std::move(q));
    }
  }
  for (std::size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[rng.NextBounded(i)]);
  }
  for (std::size_t i = 0; i < mix.size(); ++i) mix[i].id = static_cast<std::uint32_t>(i + 1);
  return mix;
}

std::vector<Query> MakeMecSample(std::size_t n, std::uint64_t seed, std::size_t count) {
  Xoshiro256 rng(seed * 0xbf58476d1ce4e5b9ULL + 29);
  std::vector<Query> sample;
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.id = static_cast<std::uint32_t>(i + 1);
    q.kind = Kind::kMec;
    q.measure = kAccuracyMeasures[i % kNumAccuracyMeasures];
    q.ids = DrawIds(n, MecSize(i / kNumAccuracyMeasures), &rng);
    sample.push_back(std::move(q));
  }
  return sample;
}

std::string Compare(const Answer& a, const Answer& b, Agreement agreement) {
  if (a.ok() != b.ok()) return "one answer failed: " + (a.ok() ? b : a).status.ToString();
  if (!a.ok()) return "";
  if (a.kind == Kind::kMet || a.kind == Kind::kMer) {
    auto ap = a.pairs, bp = b.pairs;
    auto as = a.series, bs = b.series;
    std::sort(ap.begin(), ap.end());
    std::sort(bp.begin(), bp.end());
    std::sort(as.begin(), as.end());
    std::sort(bs.begin(), bs.end());
    if (ap != bp || as != bs) {
      return "selections differ (" + std::to_string(ap.size() + as.size()) + " vs " +
             std::to_string(bp.size() + bs.size()) + " entities)";
    }
    return "";
  }
  if (a.values.size() != b.values.size()) {
    return "answer sizes differ (" + std::to_string(a.values.size()) + " vs " +
           std::to_string(b.values.size()) + ")";
  }
  if (agreement == Agreement::kBitwise) {
    if (a.pairs != b.pairs || a.series != b.series) return "entities differ";
    if (!SameBits(a.values, b.values)) return "values differ in their bits";
    return "";
  }
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (std::fabs(a.values[i] - b.values[i]) > 1e-9 * (1.0 + std::fabs(b.values[i]))) {
      return "value " + std::to_string(i) + " differs beyond round-off";
    }
  }
  return "";
}

StatusOr<core::SelectionResult> ShardLiveApi::Met(const core::MetRequest& r,
                                                  core::QueryMethod m) const {
  auto out = service->Met(r, Opts(m));
  if (!out.ok()) return out.status();
  return std::move(out->result);
}

StatusOr<core::SelectionResult> ShardLiveApi::Mer(const core::MerRequest& r,
                                                  core::QueryMethod m) const {
  auto out = service->Mer(r, Opts(m));
  if (!out.ok()) return out.status();
  return std::move(out->result);
}

StatusOr<core::MecResponse> ShardLiveApi::Mec(const core::MecRequest& r,
                                              core::QueryMethod m) const {
  auto out = service->Mec(r, Opts(m));
  if (!out.ok()) return out.status();
  return std::move(out->response);
}

StatusOr<core::TopKResult> ShardLiveApi::TopK(const core::TopKRequest& r,
                                              core::QueryMethod m) const {
  auto out = service->TopK(r, Opts(m));
  if (!out.ok()) return out.status();
  return std::move(out->result);
}

}  // namespace affinity::perfbench

#ifndef AFFINITY_PERFBENCH_QUERIES_H_
#define AFFINITY_PERFBENCH_QUERIES_H_

/// \file queries.h
/// The seeded query mix and one way to run a query against each of the
/// engine's public query surfaces (live engine, serving snapshot, shard
/// router), plus the answer comparisons behind the correctness checks.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "serve/serve_query.h"
#include "shard/shard_serve.h"
#include "shard/sharded.h"
#include "ts/data_matrix.h"

namespace affinity::perfbench {

enum class Kind { kMet = 0, kMer = 1, kMec = 2, kTopK = 3 };
inline constexpr int kNumKinds = 4;
const char* KindName(Kind kind);

struct Query {
  std::uint32_t id = 0;
  Kind kind = Kind::kMet;
  core::Measure measure = core::Measure::kCorrelation;
  double a = 0.0;  ///< MET τ, or MER lower bound
  double b = 0.0;  ///< MER upper bound
  bool greater = true;
  std::size_t k = 10;
  std::vector<ts::SeriesId> ids;  ///< MEC ψ
};

/// Queries in one mix. Enough distinct queries that neighbouring ranks of
/// the pooled latency distribution sit close together, so its median
/// does not jump between kinds from one dataset to the next.
inline constexpr std::size_t kMixSize = 200;

/// The mix, stratified so the work it asks for does not depend on the
/// seed: 40% MET, 25% MER, 25% MEC (|ψ| 16, 20, .., 32) and 10% top-k
/// (k 10 and 50), each kind spread evenly over correlation, covariance,
/// cosine, dot product and mean. MET/MER thresholds are cut from the
/// value distribution of `window` (WN over a seeded sample of pairs) at
/// selectivities log-spaced over 0.1%–20%. The seed moves the data
/// behind the cuts, ψ and the order; the work each query asks for stays
/// the same, so runs under different seeds time the same mix.
std::vector<Query> MakeQueryMix(const ts::DataMatrix& window, std::uint64_t seed,
                                std::size_t count = kMixSize);

/// `count` seeded MEC requests over the mix's measures plus median and
/// mode — the L-measures WA serves by affine propagation rather than
/// exactly (the accuracy sample behind wa_rmse_pct).
std::vector<Query> MakeMecSample(std::size_t n, std::uint64_t seed, std::size_t count);

/// A query's answer with its result containers moved out of the engine's
/// response.
struct Answer {
  Status status = Status::OK();
  Kind kind = Kind::kMet;
  core::QueryMethod plan = core::QueryMethod::kNaive;
  core::PruneStats prune;
  std::vector<ts::SequencePair> pairs;  ///< selection / top-k pairs
  std::vector<ts::SeriesId> series;     ///< selection / top-k series
  std::vector<double> values;           ///< top-k values, MEC location or pair matrix
  bool ok() const { return status.ok(); }
};

/// Runs `q` through a query surface: any type with Met/Mer/Mec/TopK
/// taking (request, method).
template <typename Api>
Answer Execute(const Api& api, const Query& q, core::QueryMethod method) {
  Answer out;
  out.kind = q.kind;
  auto take_selection = [&](StatusOr<core::SelectionResult> r) {
    if (!r.ok()) {
      out.status = r.status();
      return;
    }
    out.plan = r->plan.method;
    out.prune = r->prune;
    out.pairs = std::move(r->pairs);
    out.series = std::move(r->series);
  };
  switch (q.kind) {
    case Kind::kMet:
      take_selection(api.Met(core::MetRequest{q.measure, q.a, q.greater}, method));
      break;
    case Kind::kMer:
      take_selection(api.Mer(core::MerRequest{q.measure, q.a, q.b}, method));
      break;
    case Kind::kMec: {
      core::MecRequest request;
      request.measure = q.measure;
      request.ids = q.ids;
      auto r = api.Mec(request, method);
      if (!r.ok()) {
        out.status = r.status();
        break;
      }
      out.plan = r->plan.method;
      if (r->location.size() > 0) {
        out.values.assign(r->location.data(), r->location.data() + r->location.size());
      } else {
        const la::Matrix& m = r->pair_values;
        for (std::size_t j = 0; j < m.cols(); ++j) {
          for (std::size_t i = 0; i < m.rows(); ++i) out.values.push_back(m(i, j));
        }
      }
      break;
    }
    case Kind::kTopK: {
      auto r = api.TopK(core::TopKRequest{q.measure, q.k, true}, method);
      if (!r.ok()) {
        out.status = r.status();
        break;
      }
      out.plan = r->plan.method;
      for (const core::ScapeTopKEntry& e : r->entries) {
        if (e.has_series()) {
          out.series.push_back(e.series);
        } else {
          out.pairs.push_back(e.pair);
        }
        out.values.push_back(e.value);
      }
      break;
    }
  }
  return out;
}

/// How two answers must agree.
enum class Agreement {
  kBitwise,   ///< same result sets, same entities, bit-identical values
  kRoundOff,  ///< same selection sets; top-k and MEC values within 1e-9
              ///< relative (ulp-level ties may order a top-k differently)
};

/// Empty when `a` and `b` agree; otherwise a one-line description.
std::string Compare(const Answer& a, const Answer& b, Agreement agreement);

/// Adapters giving each query surface the Met/Mer/Mec/TopK shape.
struct EngineApi {
  const core::QueryEngine* engine;
  auto Met(const core::MetRequest& r, core::QueryMethod m) const { return engine->Met(r, m); }
  auto Mer(const core::MerRequest& r, core::QueryMethod m) const { return engine->Mer(r, m); }
  auto Mec(const core::MecRequest& r, core::QueryMethod m) const { return engine->Mec(r, m); }
  auto TopK(const core::TopKRequest& r, core::QueryMethod m) const { return engine->TopK(r, m); }
};

struct SnapshotApi {
  const serve::ServingSnapshot* snap;
  auto Met(const core::MetRequest& r, core::QueryMethod m) const {
    return serve::SnapshotMet(*snap, r, m);
  }
  auto Mer(const core::MerRequest& r, core::QueryMethod m) const {
    return serve::SnapshotMer(*snap, r, m);
  }
  auto Mec(const core::MecRequest& r, core::QueryMethod m) const {
    return serve::SnapshotMec(*snap, r, m);
  }
  auto TopK(const core::TopKRequest& r, core::QueryMethod m) const {
    return serve::SnapshotTopK(*snap, r, m);
  }
};

struct RouterApi {
  const shard::RouterSnapshot* snap;
  auto Met(const core::MetRequest& r, core::QueryMethod m) const {
    return shard::RouterMet(*snap, r, m);
  }
  auto Mer(const core::MerRequest& r, core::QueryMethod m) const {
    return shard::RouterMer(*snap, r, m);
  }
  auto Mec(const core::MecRequest& r, core::QueryMethod m) const {
    return shard::RouterMec(*snap, r, m);
  }
  auto TopK(const core::TopKRequest& r, core::QueryMethod m) const {
    return shard::RouterTopK(*snap, r, m);
  }
};

/// The sharded service's live scatter-gather (method travels in the
/// freshness options; no staleness bound, so no blending).
struct ShardLiveApi {
  const shard::ShardedAffinity* service;
  static core::FreshnessOptions Opts(core::QueryMethod m) { return {m, 0}; }
  StatusOr<core::SelectionResult> Met(const core::MetRequest& r, core::QueryMethod m) const;
  StatusOr<core::SelectionResult> Mer(const core::MerRequest& r, core::QueryMethod m) const;
  StatusOr<core::MecResponse> Mec(const core::MecRequest& r, core::QueryMethod m) const;
  StatusOr<core::TopKResult> TopK(const core::TopKRequest& r, core::QueryMethod m) const;
};

}  // namespace affinity::perfbench

#endif  // AFFINITY_PERFBENCH_QUERIES_H_

#include "core/query.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/kernels.h"

namespace affinity::core {

namespace {

/// Number of pairs (u', v') with u' < u, in the lexicographic (u, v) order
/// used by every sweep: f(u) = u·(2n − u − 1)/2.
std::size_t PairsBeforeRow(std::size_t u, std::size_t n) {
  return u * (2 * n - u - 1) / 2;
}

/// The idx-th sequence pair in lexicographic order over n series — O(1)
/// (plus a fix-up loop for floating-point slack), so parallel chunks can
/// seek into the middle of the O(n²) sweep.
ts::SequencePair PairFromIndex(std::size_t idx, std::size_t n) {
  const double nd = static_cast<double>(n);
  const double disc = (2.0 * nd - 1.0) * (2.0 * nd - 1.0) - 8.0 * static_cast<double>(idx);
  double guess = (2.0 * nd - 1.0 - std::sqrt(disc > 0.0 ? disc : 0.0)) / 2.0;
  if (guess < 0.0) guess = 0.0;
  std::size_t u = static_cast<std::size_t>(guess);
  if (u > n - 2) u = n - 2;
  while (u > 0 && PairsBeforeRow(u, n) > idx) --u;
  while (PairsBeforeRow(u + 1, n) <= idx) ++u;
  const std::size_t v = u + 1 + (idx - PairsBeforeRow(u, n));
  return ts::SequencePair(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
}

/// Advances (u, v) to the next pair in lexicographic order.
void NextPair(std::size_t n, std::size_t* u, std::size_t* v) {
  if (++*v >= n) {
    ++*u;
    *v = *u + 1;
  }
}

}  // namespace

CrossLayout MakeCrossLayout(std::vector<std::vector<ts::SeriesId>> groups) {
  std::size_t n = 0;
  for (const std::vector<ts::SeriesId>& g : groups) n += g.size();
  constexpr std::size_t kNone = ~std::size_t{0};
  std::vector<std::size_t> group_of(n, kNone);
  std::vector<std::size_t> index_of(n);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t i = 0; i < groups[g].size(); ++i) {
      const ts::SeriesId id = groups[g][i];
      AFFINITY_CHECK(id < n && group_of[id] == kNone);  // a disjoint cover of 0..n−1
      group_of[id] = g;
      index_of[id] = i;
    }
  }
  // First block-order index of each block (a, b), a < b.
  const std::size_t count = groups.size();
  std::vector<std::size_t> base(count * count, 0);
  std::size_t total = 0;
  for (std::size_t a = 0; a < count; ++a) {
    for (std::size_t b = a + 1; b < count; ++b) {
      base[a * count + b] = total;
      total += groups[a].size() * groups[b].size();
    }
  }
  AFFINITY_CHECK(total <= std::numeric_limits<std::uint32_t>::max());
  CrossLayout out;
  out.rank.resize(total);
  out.pairs.reserve(total);
  for (std::size_t u = 0; u + 1 < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (group_of[u] == group_of[v]) continue;
      // The cell of the block whose row group is the lower group index.
      const bool u_rows = group_of[u] < group_of[v];
      const std::size_t row = u_rows ? u : v;
      const std::size_t col = u_rows ? v : u;
      const std::size_t width = groups[group_of[col]].size();
      out.rank[base[group_of[row] * count + group_of[col]] + index_of[row] * width +
               index_of[col]] = static_cast<std::uint32_t>(out.pairs.size());
      out.pairs.emplace_back(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
    }
  }
  out.groups = std::move(groups);
  return out;
}

namespace {

/// Marginals of every non-null column of the table (all-zero elsewhere);
/// InvalidArgument for an L-measure, the one check of the sweep.
StatusOr<std::vector<kernels::Marginals>> CrossMarginals(Measure measure,
                                                         const CrossColumns& columns,
                                                         const ExecContext& exec) {
  if (IsLocation(measure)) {
    return Status::InvalidArgument("cross-shard evaluation covers pair measures only");
  }
  return kernels::HoistMarginals(columns.by_id, columns.m, exec, columns.anchor);
}

/// The value of `pair` from its hoisted marginals and cross dot, in the
/// pair's own (u, v) orientation; blended from the same co-moments when
/// the caller asks.
double FinishCrossPair(Measure measure, ts::SequencePair pair,
                       const std::vector<kernels::Marginals>& marginals, double dot,
                       std::size_t m, const CrossBlend* blend) {
  const PairMoments pm = PairMomentsFromMarginals(marginals[pair.u], marginals[pair.v], dot, m);
  const double value = PairMeasureValue(measure, pm);
  if (blend == nullptr) return value;
  return (*blend)(pair, PairMeasureValue(Measure::kCorrelation, pm), value);
}

Status UnresolvedColumns() {
  return Status::InvalidArgument("cross-shard pair with unresolved columns");
}

}  // namespace

StatusOr<std::vector<double>> EvaluateCrossPairs(Measure measure, const CrossColumns& columns,
                                                 const CrossLayout& layout,
                                                 const ExecContext& exec,
                                                 const CrossBlend* blend) {
  for (const std::vector<ts::SeriesId>& group : layout.groups) {
    for (const ts::SeriesId id : group) {
      if (id >= columns.by_id.size() || columns.by_id[id] == nullptr) return UnresolvedColumns();
    }
  }
  AFFINITY_ASSIGN_OR_RETURN(const std::vector<kernels::Marginals> marginals,
                            CrossMarginals(measure, columns, exec));
  // Work units: the tile-row strips of every block, in block order.
  constexpr auto kRows = static_cast<std::size_t>(kernels::kTileRows);
  constexpr auto kCols = static_cast<std::size_t>(kernels::kTileCols);
  struct Block {
    std::size_t a, b;
    std::size_t first_strip;  ///< strip index of the block's first tile row
    std::size_t base;         ///< block-order index of the block's first cell
  };
  const std::vector<std::vector<ts::SeriesId>>& groups = layout.groups;
  std::vector<Block> blocks;
  std::size_t strips = 0;
  std::size_t cells = 0;
  for (std::size_t a = 0; a < groups.size(); ++a) {
    for (std::size_t b = a + 1; b < groups.size(); ++b) {
      blocks.push_back(Block{a, b, strips, cells});
      strips += (groups[a].size() + kRows - 1) / kRows;
      cells += groups[a].size() * groups[b].size();
    }
  }
  AFFINITY_CHECK_EQ(cells, layout.rank.size());
  std::vector<double> values(cells);
  const std::size_t m = columns.m;
  ParallelChunks(exec, strips, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    std::size_t k = 0;
    for (std::size_t t = lo; t < hi; ++t) {
      while (k + 1 < blocks.size() && blocks[k + 1].first_strip <= t) ++k;
      const Block& block = blocks[k];
      const std::vector<ts::SeriesId>& rows = groups[block.a];
      const std::vector<ts::SeriesId>& cols = groups[block.b];
      const std::size_t r0 = (t - block.first_strip) * kRows;
      const std::size_t nr = std::min(kRows, rows.size() - r0);
      const double* x[kRows];
      for (std::size_t i = 0; i < nr; ++i) x[i] = columns.by_id[rows[r0 + i]];
      for (std::size_t c0 = 0; c0 < cols.size(); c0 += kCols) {
        const std::size_t nc = std::min(kCols, cols.size() - c0);
        const double* y[kCols];
        for (std::size_t j = 0; j < nc; ++j) y[j] = columns.by_id[cols[c0 + j]];
        double dots[kRows * kCols];
        kernels::BlockedDotTile(x, nr, y, nc, m, dots, columns.anchor);
        for (std::size_t i = 0; i < nr; ++i) {
          for (std::size_t j = 0; j < nc; ++j) {
            const ts::SequencePair pair(rows[r0 + i], cols[c0 + j]);
            const std::size_t cell = block.base + (r0 + i) * cols.size() + c0 + j;
            values[layout.rank[cell]] =
                FinishCrossPair(measure, pair, marginals, dots[i * nc + j], m, blend);
          }
        }
      }
    }
  });
  return values;
}

StatusOr<std::vector<double>> EvaluateCrossPairs(Measure measure, const CrossColumns& columns,
                                                 const std::vector<ts::SequencePair>& pairs,
                                                 const ExecContext& exec,
                                                 const CrossBlend* blend) {
  for (const ts::SequencePair pair : pairs) {
    if (pair.v >= columns.by_id.size() || columns.by_id[pair.u] == nullptr ||
        columns.by_id[pair.v] == nullptr) {
      return UnresolvedColumns();
    }
  }
  AFFINITY_ASSIGN_OR_RETURN(const std::vector<kernels::Marginals> marginals,
                            CrossMarginals(measure, columns, exec));
  std::vector<double> values(pairs.size());
  ParallelChunks(exec, pairs.size(), [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const ts::SequencePair pair = pairs[i];
      const double dot = kernels::BlockedDot(columns.by_id[pair.u], columns.by_id[pair.v],
                                             columns.m, columns.anchor);
      values[i] = FinishCrossPair(measure, pair, marginals, dot, columns.m, blend);
    }
  });
  return values;
}

QueryEngine::QueryEngine(const ts::DataMatrix* data) : data_(data) {
  AFFINITY_CHECK(data != nullptr);
}

QueryPlanner::Capabilities QueryEngine::Capabilities() const {
  QueryPlanner::Capabilities caps;
  caps.has_model = model_ != nullptr;
  caps.has_scape = scape_ != nullptr;
  caps.has_dft = wf_coefficients_ > 0;
  caps.has_quality = quality_ != nullptr;
  return caps;
}

ExecutedPlan QueryEngine::ResolvePlan(
    QueryMethod method, const std::function<PlanChoice(const QueryPlanner&)>& plan) const {
  if (method != QueryMethod::kAuto) {
    ExecutedPlan explicit_plan;
    explicit_plan.method = method;
    explicit_plan.rationale = "explicitly requested " + std::string(QueryMethodName(method));
    return explicit_plan;
  }
  return plan(QueryPlanner(data_->n(), data_->m(), Capabilities()));
}

Status QueryEngine::CheckQualityPredicate(double min_quality) const {
  if (min_quality <= 0.0) return Status::OK();
  if (quality_ == nullptr) {
    return Status::FailedPrecondition(
        "min_quality requires an attached per-series quality surface");
  }
  if (quality_->size() != data_->n()) {
    return Status::FailedPrecondition("quality surface covers " +
                                      std::to_string(quality_->size()) + " series but n=" +
                                      std::to_string(data_->n()));
  }
  return Status::OK();
}

double QueryEngine::QualityScore(ts::SeriesId v) const {
  return quality_ == nullptr || v >= quality_->size() ? 1.0 : (*quality_)[v];
}

Status QueryEngine::CheckIds(const std::vector<ts::SeriesId>& ids) const {
  if (ids.empty()) return Status::InvalidArgument("MEC requires a non-empty id set");
  for (const ts::SeriesId id : ids) {
    if (id >= data_->n()) {
      return Status::OutOfRange("series id " + std::to_string(id) + " out of range (n=" +
                                std::to_string(data_->n()) + ")");
    }
  }
  return Status::OK();
}

StatusOr<double> QueryEngine::SeriesValue(Measure measure, ts::SeriesId v,
                                          QueryMethod method) const {
  switch (method) {
    case QueryMethod::kNaive:
      return NaiveLocationMeasure(measure, data_->ColumnData(v), data_->m());
    case QueryMethod::kAffine:
      if (model_ == nullptr) return Status::FailedPrecondition("WA strategy not attached");
      return model_->SeriesMeasure(measure, v);
    default:
      return Status::InvalidArgument("L-measures support WN and WA only");
  }
}

StatusOr<double> QueryEngine::Value(Measure measure, ts::SeriesId u, ts::SeriesId v,
                                    QueryMethod method) const {
  switch (method) {
    case QueryMethod::kNaive:
      return NaivePairMeasure(measure, data_->ColumnData(u), data_->ColumnData(v), data_->m(),
                              data_->anchor_row());
    case QueryMethod::kAffine: {
      if (model_ == nullptr) return Status::FailedPrecondition("WA strategy not attached");
      if (u == v) {
        // Diagonal entries come from the exact per-series statistics.
        const SeriesStats& st = model_->series_stats(u);
        switch (measure) {
          case Measure::kCovariance:
            return st.variance;
          case Measure::kDotProduct:
            return st.sumsq;
          case Measure::kCorrelation:
            return st.variance > 0.0 ? 1.0 : 0.0;
          case Measure::kCosine:
          case Measure::kJaccard:
            return st.sumsq > 0.0 ? 1.0 : 0.0;
          case Measure::kDice:
            return st.sumsq > 0.0 ? 1.0 : 0.0;
          default:
            return Status::InvalidArgument("not a pair measure");
        }
      }
      return model_->PairMeasure(measure, ts::SequencePair(u, v));
    }
    case QueryMethod::kDft:
      return Status::Internal("WF values are computed batch-wise (see Mec/Met/Mer)");
    case QueryMethod::kScape:
      return Status::InvalidArgument("SCAPE answers MET/MER queries, not MEC");
    case QueryMethod::kAuto:
      return Status::Internal("kAuto must be resolved before per-value dispatch");
  }
  return Status::Internal("unreachable");
}

StatusOr<MecResponse> QueryEngine::Mec(const MecRequest& request, QueryMethod method) const {
  AFFINITY_RETURN_IF_ERROR(CheckIds(request.ids));
  AFFINITY_RETURN_IF_ERROR(CheckQualityPredicate(request.min_quality));
  AnswerQuality answer_quality;
  if (quality_ != nullptr) {
    // MEC's response shape is id-aligned, so the predicate cannot silently
    // exclude: every requested id must satisfy it (DESIGN.md §12).
    answer_quality.populated = true;
    for (const ts::SeriesId id : request.ids) {
      const double s = QualityScore(id);
      answer_quality.min_score = std::min(answer_quality.min_score, s);
      if (request.min_quality > 0.0 && s < request.min_quality) {
        return Status::FailedPrecondition(
            "series " + std::to_string(id) + " has quality " + std::to_string(s) +
            " below the requested min_quality " + std::to_string(request.min_quality));
      }
    }
  }
  ExecutedPlan plan = ResolvePlan(method, [&](const QueryPlanner& planner) {
    return planner.PlanMec(request.measure, request.ids.size());
  });
  method = plan.method;

  MecResponse out;
  out.plan = std::move(plan);
  out.quality = answer_quality;
  const std::size_t count = request.ids.size();
  if (IsLocation(request.measure)) {
    out.location = la::Vector(count);
    AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
        exec_, count, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
          for (std::size_t i = lo; i < hi; ++i) {
            auto value = SeriesValue(request.measure, request.ids[i], method);
            if (!value.ok()) return value.status();
            out.location[i] = *value;
          }
          return Status::OK();
        }));
    return out;
  }
  if (method == QueryMethod::kDft) {
    // WF computes its sketches from scratch per query (paper §6 cost model)
    // over just the requested series.
    if (wf_coefficients_ == 0) return Status::FailedPrecondition("WF strategy not enabled");
    if (request.measure != Measure::kCorrelation) {
      return Status::InvalidArgument("the WF method only supports the correlation coefficient");
    }
    la::Matrix subset(data_->m(), count);
    for (std::size_t i = 0; i < count; ++i) subset.SetCol(i, data_->Column(request.ids[i]));
    AFFINITY_ASSIGN_OR_RETURN(
        dft::DftCorrelationEstimator wf,
        dft::DftCorrelationEstimator::Build(ts::DataMatrix(std::move(subset)), wf_coefficients_,
                                            exec_));
    out.pair_values = wf.EstimateAll();
    return out;
  }
  out.pair_values = la::Matrix(count, count);
  // WN: hoist each requested column's marginals once — O(count·m) — then
  // exactly one fused blocked dot per cell; the diagonal reuses the
  // hoisted Σx² chain (bit-equal to BlockedDot(x, x)) with no extra scan.
  std::vector<kernels::Marginals> marginals;
  std::vector<const double*> cols;
  if (method == QueryMethod::kNaive) {
    cols.resize(count);
    for (std::size_t i = 0; i < count; ++i) cols[i] = data_->ColumnData(request.ids[i]);
    marginals = kernels::HoistMarginals(cols, data_->m(), exec_, data_->anchor_row());
  }
  // Row i fills cells (i, j) and (j, i) for j ≥ i — rows write disjoint
  // cell sets, so the chunked fill needs no synchronization.
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, count, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = i; j < count; ++j) {
            StatusOr<double> value = [&]() -> StatusOr<double> {
              if (method != QueryMethod::kNaive) {
                return Value(request.measure, request.ids[i], request.ids[j], method);
              }
              const double dot = i == j ? marginals[i].sumsq
                                        : kernels::BlockedDot(cols[i], cols[j], data_->m(),
                                                              data_->anchor_row());
              return PairMeasureFromMoments(
                  request.measure,
                  PairMomentsFromMarginals(marginals[i], marginals[j], dot, data_->m()));
            }();
            if (!value.ok()) return value.status();
            out.pair_values(i, j) = *value;
            out.pair_values(j, i) = *value;
          }
        }
        return Status::OK();
      }));
  return out;
}

StatusOr<SelectionResult> QueryEngine::SelectByPredicateDft(Measure measure,
                                                            bool (*keep)(double, double, double),
                                                            double a, double b) const {
  if (wf_coefficients_ == 0) return Status::FailedPrecondition("WF strategy not enabled");
  if (measure != Measure::kCorrelation) {
    return Status::InvalidArgument("the WF method only supports the correlation coefficient");
  }
  // Per-query sketch construction, then the O(c)-per-pair estimate.
  AFFINITY_ASSIGN_OR_RETURN(dft::DftCorrelationEstimator wf,
                            dft::DftCorrelationEstimator::Build(*data_, wf_coefficients_, exec_));
  SelectionResult out;
  const std::size_t n = data_->n();
  if (n < 2) return out;
  const std::size_t total = ts::SequencePairCount(n);
  std::vector<std::vector<ts::SequencePair>> parts(ExecNumChunks(total));
  ParallelChunks(exec_, total, [&](std::size_t c, std::size_t lo, std::size_t hi) {
    ts::SequencePair p = PairFromIndex(lo, n);
    std::size_t u = p.u, v = p.v;
    for (std::size_t i = lo; i < hi; ++i) {
      if (keep(wf.Estimate(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v)), a, b)) {
        parts[c].emplace_back(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
      }
      NextPair(n, &u, &v);
    }
  });
  for (std::vector<ts::SequencePair>& part : parts) {
    out.pairs.insert(out.pairs.end(), part.begin(), part.end());
  }
  return out;
}

StatusOr<SelectionResult> QueryEngine::SelectByPredicate(Measure measure, QueryMethod method,
                                                         bool (*keep)(double, double, double),
                                                         double a, double b) const {
  SelectionResult out;
  const std::size_t n = data_->n();
  if (IsLocation(measure)) {
    std::vector<std::vector<ts::SeriesId>> parts(ExecNumChunks(n));
    AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
        exec_, n, [&](std::size_t c, std::size_t lo, std::size_t hi) -> Status {
          for (std::size_t v = lo; v < hi; ++v) {
            auto value = SeriesValue(measure, static_cast<ts::SeriesId>(v), method);
            if (!value.ok()) return value.status();
            if (keep(*value, a, b)) parts[c].push_back(static_cast<ts::SeriesId>(v));
          }
          return Status::OK();
        }));
    for (std::vector<ts::SeriesId>& part : parts) {
      out.series.insert(out.series.end(), part.begin(), part.end());
    }
    return out;
  }
  if (n < 2) return out;
  // WN sweeps hoist every column's marginals once per query (O(n·m)),
  // then pay exactly one fused blocked dot per pair — the marginal
  // hoisting of DESIGN.md §10. Each pair's value is computed whole by one
  // chunk, so results stay bitwise identical at any thread count.
  std::vector<kernels::Marginals> marginals;
  if (method == QueryMethod::kNaive) marginals = kernels::HoistMarginals(*data_, exec_);
  const auto pair_value = [&](std::size_t u, std::size_t v) -> StatusOr<double> {
    if (method != QueryMethod::kNaive) {
      return Value(measure, static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v), method);
    }
    const double dot = kernels::BlockedDot(data_->ColumnData(static_cast<ts::SeriesId>(u)),
                                           data_->ColumnData(static_cast<ts::SeriesId>(v)),
                                           data_->m(), data_->anchor_row());
    return PairMeasureFromMoments(
        measure, PairMomentsFromMarginals(marginals[u], marginals[v], dot, data_->m()));
  };
  const std::size_t total = ts::SequencePairCount(n);
  std::vector<std::vector<ts::SequencePair>> parts(ExecNumChunks(total));
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      exec_, total, [&](std::size_t c, std::size_t lo, std::size_t hi) -> Status {
        ts::SequencePair p = PairFromIndex(lo, n);
        std::size_t u = p.u, v = p.v;
        for (std::size_t i = lo; i < hi; ++i) {
          auto value = pair_value(u, v);
          if (!value.ok()) return value.status();
          if (keep(*value, a, b)) {
            parts[c].emplace_back(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v));
          }
          NextPair(n, &u, &v);
        }
        return Status::OK();
      }));
  for (std::vector<ts::SequencePair>& part : parts) {
    out.pairs.insert(out.pairs.end(), part.begin(), part.end());
  }
  return out;
}

namespace {

/// Post-filters a MET/MER selection by the quality predicate and stamps
/// its AnswerQuality (DESIGN.md §12). The measure predicate and the
/// quality predicate are conjunctive, so filtering *after* any strategy —
/// SCAPE included — is exact. `score(v)` must return the composite score
/// of series v.
template <class ScoreFn>
void FilterAndStampSelection(double min_quality, const ScoreFn& score, SelectionResult* out) {
  AnswerQuality q;
  q.populated = true;
  std::size_t kept_series = 0;
  for (const ts::SeriesId v : out->series) {
    const double s = score(v);
    if (min_quality > 0.0 && s < min_quality) continue;
    out->series[kept_series++] = v;
    q.min_score = std::min(q.min_score, s);
  }
  q.excluded += out->series.size() - kept_series;
  out->series.resize(kept_series);
  std::size_t kept_pairs = 0;
  for (const ts::SequencePair& p : out->pairs) {
    const double su = score(p.u);
    const double sv = score(p.v);
    if (min_quality > 0.0 && (su < min_quality || sv < min_quality)) continue;
    out->pairs[kept_pairs++] = p;
    q.min_score = std::min(q.min_score, std::min(su, sv));
  }
  q.excluded += out->pairs.size() - kept_pairs;
  out->pairs.resize(kept_pairs);
  out->quality = q;
  if (min_quality > 0.0) AnnotateQualityFiltered(&out->plan, min_quality, q.excluded);
}

}  // namespace

StatusOr<SelectionResult> QueryEngine::Met(const MetRequest& request, QueryMethod method) const {
  AFFINITY_RETURN_IF_ERROR(CheckQualityPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlan(
      method, [&](const QueryPlanner& planner) { return planner.PlanMet(request.measure); });
  method = plan.method;
  StatusOr<SelectionResult> result = [&]() -> StatusOr<SelectionResult> {
    if (method == QueryMethod::kDft) {
      return SelectByPredicateDft(request.measure, request.greater ? KeepGreater : KeepLesser,
                                  request.tau, 0.0);
    }
    if (method == QueryMethod::kScape) {
      if (scape_ == nullptr) return Status::FailedPrecondition("SCAPE index not attached");
      AFFINITY_ASSIGN_OR_RETURN(
          ScapeQueryResult r,
          scape_->MeasureThreshold(request.measure, request.tau, request.greater));
      SelectionResult out;
      out.series = std::move(r.series);
      out.pairs = std::move(r.pairs);
      out.prune = r.prune;
      return out;
    }
    return SelectByPredicate(request.measure, method, request.greater ? KeepGreater : KeepLesser,
                             request.tau, 0.0);
  }();
  if (!result.ok()) return result.status();
  result->plan = std::move(plan);
  if (quality_ != nullptr) {
    FilterAndStampSelection(request.min_quality, [&](ts::SeriesId v) { return QualityScore(v); },
                            &*result);
  }
  return result;
}

StatusOr<SelectionResult> QueryEngine::Mer(const MerRequest& request, QueryMethod method) const {
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  AFFINITY_RETURN_IF_ERROR(CheckQualityPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlan(
      method, [&](const QueryPlanner& planner) { return planner.PlanMer(request.measure); });
  method = plan.method;
  StatusOr<SelectionResult> result = [&]() -> StatusOr<SelectionResult> {
    if (method == QueryMethod::kDft) {
      return SelectByPredicateDft(request.measure, KeepInside, request.lo, request.hi);
    }
    if (method == QueryMethod::kScape) {
      if (scape_ == nullptr) return Status::FailedPrecondition("SCAPE index not attached");
      AFFINITY_ASSIGN_OR_RETURN(ScapeQueryResult r,
                                scape_->MeasureRange(request.measure, request.lo, request.hi));
      SelectionResult out;
      out.series = std::move(r.series);
      out.pairs = std::move(r.pairs);
      out.prune = r.prune;
      return out;
    }
    return SelectByPredicate(request.measure, method, KeepInside, request.lo, request.hi);
  }();
  if (!result.ok()) return result.status();
  result->plan = std::move(plan);
  if (quality_ != nullptr) {
    FilterAndStampSelection(request.min_quality, [&](ts::SeriesId v) { return QualityScore(v); },
                            &*result);
  }
  return result;
}

StatusOr<TopKResult> QueryEngine::TopK(const TopKRequest& request, QueryMethod method) const {
  AFFINITY_RETURN_IF_ERROR(CheckQualityPredicate(request.min_quality));
  ExecutedPlan plan = ResolvePlan(method, [&](const QueryPlanner& planner) {
    return planner.PlanTopK(request.measure, request.k);
  });
  method = plan.method;
  const bool quality_filter = request.min_quality > 0.0;
  if (quality_filter && method == QueryMethod::kScape) {
    // The index's bounded scan keeps a fixed k entries with no
    // notion of eligibility; restricting the competition to eligible
    // series needs the sweep (graceful degradation, DESIGN.md §12).
    method = model_ != nullptr ? QueryMethod::kAffine : QueryMethod::kNaive;
    plan.method = method;
    plan.rationale += "; quality filter: SCAPE bypassed, " +
                      std::string(QueryMethodName(method)) + " sweep over eligible entities";
  }
  // Stamps the answer with the worst score among the series it touched
  // (populated only when a quality surface is attached).
  const auto stamp = [&](TopKResult* out) {
    if (quality_ == nullptr) return;
    out->quality.populated = true;
    out->quality.min_score = 1.0;
    for (const ScapeTopKEntry& e : out->entries) {
      if (e.series != kNoSeries) {
        out->quality.min_score = std::min(out->quality.min_score, QualityScore(e.series));
      } else {
        out->quality.min_score = std::min(
            out->quality.min_score, std::min(QualityScore(e.pair.u), QualityScore(e.pair.v)));
      }
    }
  };
  if (method == QueryMethod::kScape) {
    if (scape_ == nullptr) return Status::FailedPrecondition("SCAPE index not attached");
    AFFINITY_ASSIGN_OR_RETURN(ScapeTopKResult r,
                              scape_->TopK(request.measure, request.k, request.largest));
    TopKResult out;
    static_cast<ScapeTopKResult&>(out) = std::move(r);
    out.plan = std::move(plan);
    stamp(&out);
    return out;
  }
  if (method == QueryMethod::kDft) {
    return Status::InvalidArgument("top-k supports WN, WA, and SCAPE");
  }
  // WN/WA: evaluate every entity in parallel, then partial-sort. Under the
  // quality predicate, ineligible entities get the worst-possible sentinel
  // value so they can never claim one of the k slots (k is clamped to the
  // eligible count below, so sentinels never surface in the result).
  const std::size_t n = data_->n();
  const std::size_t total =
      IsLocation(request.measure) ? n : ts::SequencePairCount(n);
  const double sentinel = request.largest ? -std::numeric_limits<double>::infinity()
                                          : std::numeric_limits<double>::infinity();
  const auto eligible = [&](std::size_t v) {
    return !quality_filter || QualityScore(static_cast<ts::SeriesId>(v)) >= request.min_quality;
  };
  std::size_t eligible_series = 0;
  for (std::size_t v = 0; v < n; ++v) eligible_series += eligible(v) ? 1 : 0;
  const std::size_t eligible_total =
      IsLocation(request.measure) ? eligible_series : ts::SequencePairCount(eligible_series);
  std::vector<ScapeTopKEntry> all(total);
  if (IsLocation(request.measure)) {
    AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
        exec_, total, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
          for (std::size_t v = lo; v < hi; ++v) {
            if (!eligible(v)) {
              all[v] = ScapeTopKEntry{ts::SequencePair{}, static_cast<ts::SeriesId>(v), sentinel};
              continue;
            }
            auto value = SeriesValue(request.measure, static_cast<ts::SeriesId>(v), method);
            if (!value.ok()) return value.status();
            all[v] = ScapeTopKEntry{ts::SequencePair{}, static_cast<ts::SeriesId>(v), *value};
          }
          return Status::OK();
        }));
  } else {
    // Marginal-hoisted WN sweep, exactly as SelectByPredicate.
    std::vector<kernels::Marginals> marginals;
    if (method == QueryMethod::kNaive) marginals = kernels::HoistMarginals(*data_, exec_);
    AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
        exec_, total, [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
          ts::SequencePair p = PairFromIndex(lo, n);
          std::size_t u = p.u, v = p.v;
          for (std::size_t i = lo; i < hi; ++i) {
            if (!eligible(u) || !eligible(v)) {
              all[i] = ScapeTopKEntry{
                  ts::SequencePair(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v)),
                  kNoSeries, sentinel};
              NextPair(n, &u, &v);
              continue;
            }
            StatusOr<double> value = [&]() -> StatusOr<double> {
              if (method != QueryMethod::kNaive) {
                return Value(request.measure, static_cast<ts::SeriesId>(u),
                             static_cast<ts::SeriesId>(v), method);
              }
              const double dot =
                  kernels::BlockedDot(data_->ColumnData(static_cast<ts::SeriesId>(u)),
                                      data_->ColumnData(static_cast<ts::SeriesId>(v)),
                                      data_->m(), data_->anchor_row());
              return PairMeasureFromMoments(
                  request.measure,
                  PairMomentsFromMarginals(marginals[u], marginals[v], dot, data_->m()));
            }();
            if (!value.ok()) return value.status();
            all[i] = ScapeTopKEntry{
                ts::SequencePair(static_cast<ts::SeriesId>(u), static_cast<ts::SeriesId>(v)),
                kNoSeries, *value};
            NextPair(n, &u, &v);
          }
          return Status::OK();
        }));
  }
  const std::size_t cap = quality_filter ? std::min(request.k, eligible_total) : request.k;
  const std::size_t k = cap < all.size() ? cap : all.size();
  const auto before = [&](const ScapeTopKEntry& a, const ScapeTopKEntry& b) {
    return TopKBefore(a, b, request.largest);
  };
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(), before);
  all.resize(k);
  TopKResult out;
  out.entries = std::move(all);
  out.examined = total;
  out.plan = std::move(plan);
  if (quality_filter) {
    out.quality.excluded = total - eligible_total;
    AnnotateQualityFiltered(&out.plan, request.min_quality, out.quality.excluded);
  }
  stamp(&out);
  return out;
}

}  // namespace affinity::core

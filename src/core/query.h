#ifndef AFFINITY_CORE_QUERY_H_
#define AFFINITY_CORE_QUERY_H_

/// \file query.h
/// The three AFFINITY query types (Section 2.2) and a query engine that
/// answers each of them with any of the paper's four strategies:
///
///  * **WN** — naive: every value recomputed from the raw samples;
///  * **WA** — affine relationships (Section 4.1): O(1) per value after the
///    one-time SYMEX+ preprocessing;
///  * **WF** — top-5-DFT-coefficient approximation (correlation only);
///  * **SCAPE** — the index of Section 5 (MET/MER only);
///
/// or with **AUTO**, which consults the cost-based `QueryPlanner`
/// (planner.h) over the capabilities actually attached and dispatches to
/// the cheapest admissible strategy. Every response carries the
/// `ExecutedPlan` that answered it, for EXPLAIN-style introspection.
///
/// Full-sweep queries (MET/MER over all O(n²) sequence pairs, MEC pair
/// matrices, top-k) execute as deterministic chunked parallel loops over
/// the engine's `ExecContext` — results are identical at any thread
/// count (DESIGN.md §7).
///
/// The engine is the measurement surface of every benchmark: Figs. 9–12
/// time MEC under WN/WA; Figs. 15–16 and Table 4 time MET/MER under all
/// four strategies.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/measures.h"
#include "core/planner.h"
#include "core/scape.h"
#include "core/symex.h"
#include "dft/dft_correlation.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "ts/data_matrix.h"

namespace affinity::core {

/// The strategy that actually answered a query — the planner's choice
/// (cost estimate and rationale included) for `kAuto` queries, or a fixed
/// "explicitly requested" record otherwise.
using ExecutedPlan = PlanChoice;

/// Quality stamp of one answer (DESIGN.md §12): the worst composite
/// quality score among the series the answer touched, and how many
/// candidates the `min_quality` predicate excluded. `populated` is set
/// only when a quality surface was attached to the answering engine —
/// dense deployments without one are unchanged.
struct AnswerQuality {
  bool populated = false;
  double min_score = 1.0;   ///< worst score among touched series
  std::size_t excluded = 0; ///< candidates dropped by the predicate
};

/// Query 1 — measure computation over a set of series ψ.
struct MecRequest {
  Measure measure = Measure::kCovariance;
  std::vector<ts::SeriesId> ids;  ///< ψ ⊆ I
  /// Quality predicate (DESIGN.md §12): every id in ψ must have composite
  /// quality ≥ min_quality, else the query fails FailedPrecondition (the
  /// response shape is id-aligned, so silent exclusion is not an option).
  /// 0 (default) disables the predicate.
  double min_quality = 0.0;
};

/// MEC response: `location[i]` for L-measures (aligned with request ids),
/// or the |ψ|×|ψ| symmetric `pair_values` matrix for T/D-measures.
struct MecResponse {
  la::Vector location;
  la::Matrix pair_values;
  ExecutedPlan plan;
  AnswerQuality quality;
};

/// Query 2 — measure threshold: entities with measure > τ (or < τ).
struct MetRequest {
  Measure measure = Measure::kCovariance;
  double tau = 0.0;
  bool greater = true;
  /// Quality predicate: keep only entities whose series (both endpoints
  /// for pairs) score ≥ min_quality. 0 disables.
  double min_quality = 0.0;
};

/// Query 3 — measure range: entities with measure strictly in (lo, hi).
struct MerRequest {
  Measure measure = Measure::kCovariance;
  double lo = 0.0;
  double hi = 0.0;
  /// Quality predicate: keep only entities whose series (both endpoints
  /// for pairs) score ≥ min_quality. 0 disables.
  double min_quality = 0.0;
};

/// Top-k query (extension): the k entities with the largest (or smallest)
/// measure value.
struct TopKRequest {
  Measure measure = Measure::kCorrelation;
  std::size_t k = 10;
  bool largest = true;
  /// Quality predicate: only entities whose series (both endpoints for
  /// pairs) score ≥ min_quality compete for the k slots. 0 disables.
  double min_quality = 0.0;
};

/// Result of a MET/MER query: series ids for L-measures, sequence pairs for
/// T/D-measures. `prune` is populated by the SCAPE strategy only.
struct SelectionResult {
  std::vector<ts::SeriesId> series;
  std::vector<ts::SequencePair> pairs;
  PruneStats prune;
  ExecutedPlan plan;
  AnswerQuality quality;
};

/// Engine-level top-k result: the index-side entries plus the plan that
/// produced them.
struct TopKResult : ScapeTopKResult {
  ExecutedPlan plan;
  AnswerQuality quality;
};

/// The selection predicates — keep(value, a, b) — shared by the engine's
/// MET/MER sweeps, the streaming freshness-blend path, and the shard
/// router's cross-shard sweep, so bound semantics (strict comparisons,
/// open ranges) are defined exactly once.
inline bool KeepGreater(double value, double tau, double /*unused*/) { return value > tau; }
inline bool KeepLesser(double value, double tau, double /*unused*/) { return value < tau; }
inline bool KeepInside(double value, double lo, double hi) { return lo < value && value < hi; }

/// The columns a cross-shard sweep reads: one aligned length-`m` span per
/// global series id, each resolved by the caller from (possibly
/// different) shard snapshots, all on the block grid at `anchor` (the
/// snapshots' `anchor_row()`, identical across a lockstep deployment). A
/// null entry marks a series the sweep does not touch.
struct CrossColumns {
  std::vector<const double*> by_id;
  std::size_t m = 0;
  std::size_t anchor = 0;
};

/// Every pair spanning two groups of a disjoint cover of the global ids,
/// in (u, v)-lex order, with their shard-pair block layout (DESIGN.md §9).
/// Block order walks the group pairs (A, B), A < B, lexicographically,
/// and within a block the cells group(A)[i] × group(B)[j] row-major;
/// `rank[k]` is the index in `pairs` of the k-th cell in that order.
/// Fixed for a partition, so built once.
struct CrossLayout {
  std::vector<std::vector<ts::SeriesId>> groups;
  std::vector<ts::SequencePair> pairs;
  std::vector<std::uint32_t> rank;
};

/// Builds the layout of `groups`: a disjoint cover of 0..n−1, each group
/// in its sweep order.
CrossLayout MakeCrossLayout(std::vector<std::vector<ts::SeriesId>> groups);

/// The freshness blend of a cross pair (DESIGN.md §9): (pair, snapshot
/// correlation, snapshot value) → blended value. Both inputs come from
/// the pair's one co-moment set. Called from the sweep's chunks, so it
/// may run concurrently on `exec`'s pool.
using CrossBlend = std::function<double(ts::SequencePair, double, double)>;

/// Evaluates `measure` from scratch (WN) for every pair of `layout` over
/// the `columns` table — the cross-shard half of a scatter-gather
/// MET/MER/top-k (DESIGN.md §9). No per-shard model or index covers a
/// pair spanning two shards, so the sweep hoists every column's marginals
/// once, then runs each block as register tiles of
/// `kernels::BlockedDotTile` (tails cell by cell), chunked
/// deterministically over tile-row strips on `exec`. Each value is
/// finished in the pair's own (u < v) orientation — bitwise equal to
/// `NaivePairMeasure` over the same columns — optionally blended
/// (`blend`); values are index-aligned with `layout.pairs`.
/// InvalidArgument for L-measures and for a layout series with no column.
StatusOr<std::vector<double>> EvaluateCrossPairs(Measure measure, const CrossColumns& columns,
                                                 const CrossLayout& layout,
                                                 const ExecContext& exec = {},
                                                 const CrossBlend* blend = nullptr);

/// The same evaluation for an explicit pair list (MEC's cross cells),
/// pair by pair; values index-aligned with `pairs`. Marginals are hoisted
/// for the table's non-null columns only.
StatusOr<std::vector<double>> EvaluateCrossPairs(Measure measure, const CrossColumns& columns,
                                                 const std::vector<ts::SequencePair>& pairs,
                                                 const ExecContext& exec = {},
                                                 const CrossBlend* blend = nullptr);

/// Strategy-dispatching query processor.
///
/// The engine never owns its inputs; the caller guarantees that `data` (and
/// any attached model/index/estimator/thread pool) outlives it. `Affinity`
/// (framework.h) packages the ownership story for typical users.
class QueryEngine {
 public:
  /// An engine that can only answer with WN, sequentially.
  explicit QueryEngine(const ts::DataMatrix* data);

  /// Enables the WA strategy.
  void AttachModel(const AffinityModel* model) { model_ = model; }

  /// Enables the WF strategy (correlation only). Like WN, the WF strategy
  /// computes its approximation *per query* (sketch construction included)
  /// — this is how the paper's evaluation costs it. Callers wanting an
  /// amortized, pre-built estimator should use dft::DftCorrelationEstimator
  /// directly (the Affinity facade exposes one via wf()).
  void EnableDft(std::size_t coefficients = dft::kDefaultCoefficients) {
    wf_coefficients_ = coefficients;
  }

  /// Enables the SCAPE strategy (MET/MER).
  void AttachScape(const ScapeIndex* scape) { scape_ = scape; }

  /// Attaches the per-series quality surface (DESIGN.md §12): composite
  /// scores in [0, 1], one per series id. Enables the `min_quality`
  /// request predicate and stamps every answer's AnswerQuality. The
  /// vector must outlive the engine and track data_->n(); nullptr
  /// detaches (requests with min_quality > 0 then fail
  /// FailedPrecondition).
  void AttachQuality(const std::vector<double>* scores) { quality_ = scores; }

  /// The attached quality surface (nullptr when none).
  const std::vector<double>* quality() const { return quality_; }

  /// Sets the execution context used by full-sweep queries. The pool (if
  /// any) must outlive the engine; default is sequential.
  void SetExec(const ExecContext& exec) { exec_ = exec; }

  /// The engine's execution context.
  const ExecContext& exec() const { return exec_; }

  /// The planner capabilities implied by what is attached — the basis of
  /// every `kAuto` dispatch.
  QueryPlanner::Capabilities Capabilities() const;

  /// Query 1. FailedPrecondition when the strategy is not attached;
  /// InvalidArgument for strategy/measure mismatches (e.g. WF with a
  /// non-correlation measure) or out-of-range ids.
  StatusOr<MecResponse> Mec(const MecRequest& request,
                            QueryMethod method = QueryMethod::kAuto) const;

  /// Query 2 over all series (L) or all sequence pairs (T/D).
  StatusOr<SelectionResult> Met(const MetRequest& request,
                                QueryMethod method = QueryMethod::kAuto) const;

  /// Query 3 over all series (L) or all sequence pairs (T/D).
  StatusOr<SelectionResult> Mer(const MerRequest& request,
                                QueryMethod method = QueryMethod::kAuto) const;

  /// Top-k query (extension). WN/WA evaluate all entities and select;
  /// SCAPE runs the index-side bounded scan. Results are best-first under
  /// the canonical order (core::TopKBefore), so exact ties rank by id.
  StatusOr<TopKResult> TopK(const TopKRequest& request,
                            QueryMethod method = QueryMethod::kAuto) const;

 private:
  /// kAuto → the planner's verdict over current capabilities (`plan` is
  /// called with a ready planner); anything else → an "explicitly
  /// requested" record. The single point where auto dispatch resolves.
  ExecutedPlan ResolvePlan(QueryMethod method,
                           const std::function<PlanChoice(const QueryPlanner&)>& plan) const;

  Status CheckIds(const std::vector<ts::SeriesId>& ids) const;
  StatusOr<double> Value(Measure measure, ts::SeriesId u, ts::SeriesId v,
                         QueryMethod method) const;
  StatusOr<double> SeriesValue(Measure measure, ts::SeriesId v, QueryMethod method) const;
  StatusOr<SelectionResult> SelectByPredicate(Measure measure, QueryMethod method,
                                              bool (*keep)(double, double, double), double a,
                                              double b) const;
  StatusOr<SelectionResult> SelectByPredicateDft(Measure measure,
                                                 bool (*keep)(double, double, double), double a,
                                                 double b) const;

  /// Shared epilogue of the quality-aware query paths: verifies the
  /// predicate is servable (quality attached when min_quality > 0).
  Status CheckQualityPredicate(double min_quality) const;
  /// Score of one series under the attached surface (1.0 when detached).
  double QualityScore(ts::SeriesId v) const;

  const ts::DataMatrix* data_;
  const AffinityModel* model_ = nullptr;
  std::size_t wf_coefficients_ = 0;  ///< 0 = WF disabled
  const ScapeIndex* scape_ = nullptr;
  const std::vector<double>* quality_ = nullptr;
  ExecContext exec_;
};

}  // namespace affinity::core

#endif  // AFFINITY_CORE_QUERY_H_

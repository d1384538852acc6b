#include "shard/shard_serve.h"

#include <algorithm>
#include <queue>
#include <string>
#include <utility>

#include "core/planner.h"

namespace affinity::shard {

RoutingTables::RoutingTables(SeriesPartitioner p) : partitioner(std::move(p)) {
  // The complement of the per-shard pair sets; each block sweeps its
  // shards' members in local order.
  std::vector<std::vector<ts::SeriesId>> groups;
  for (std::size_t s = 0; s < partitioner.shards(); ++s) groups.push_back(partitioner.group(s));
  cross = core::MakeCrossLayout(std::move(groups));
}

namespace {

using core::ExecutedPlan;
using core::Measure;
using core::QueryMethod;
using core::QueryPlanner;
using core::ScapeTopKEntry;
using core::ScapeTopKResult;

/// K-way heap merge of sorted runs into one sorted vector — the gather
/// step for selection results (runs: per-shard answers + the cross-shard
/// sweep, each sorted ascending under `less`).
template <typename T, typename Less>
std::vector<T> MergeSortedRuns(const std::vector<std::vector<T>>& runs, Less less) {
  struct Head {
    std::size_t run;
    std::size_t pos;
  };
  const auto head_greater = [&](const Head& a, const Head& b) {
    return less(runs[b.run][b.pos], runs[a.run][a.pos]);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(head_greater)> frontier(head_greater);
  std::size_t total = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) frontier.push(Head{r, 0});
  }
  std::vector<T> out;
  out.reserve(total);
  while (!frontier.empty()) {
    const Head head = frontier.top();
    frontier.pop();
    out.push_back(runs[head.run][head.pos]);
    if (head.pos + 1 < runs[head.run].size()) frontier.push(Head{head.run, head.pos + 1});
  }
  return out;
}

/// The epoch's snapshot column of every global series — or, with `only`,
/// of those ids alone (shard snapshots hold the window copies; local order
/// matches the live shard's DataMatrix).
core::CrossColumns ColumnTable(const RouterSnapshot& snap,
                               const std::vector<ts::SeriesId>* only = nullptr) {
  const SeriesPartitioner& p = snap.routing->partitioner;
  core::CrossColumns table{std::vector<const double*>(p.n(), nullptr), snap.window, snap.anchor};
  const auto resolve = [&](ts::SeriesId id) {
    table.by_id[id] = snap.shards[p.shard_of(id)]->data.ColumnData(p.local_id(id));
  };
  if (only != nullptr) {
    for (const ts::SeriesId id : *only) resolve(id);
  } else {
    for (std::size_t id = 0; id < p.n(); ++id) resolve(static_cast<ts::SeriesId>(id));
  }
  return table;
}

/// Composite quality score of global series `id` from its shard's surface
/// (1 when the caller has none, or the series is not scored yet).
double QualityOf(const RouterSnapshot& snap, const GatherOptions& options, ts::SeriesId id) {
  if (options.quality.empty()) return 1.0;
  const SeriesPartitioner& p = snap.routing->partitioner;
  const std::vector<double>& scores = *options.quality[p.shard_of(id)];
  const ts::SeriesId local = p.local_id(id);
  return local < scores.size() ? scores[local] : 1.0;
}

/// The executed plan: the caller's blend plan, an explicitly requested
/// method, or the shard-aware kAuto planner over the epoch.
template <typename PlanFn>
ExecutedPlan ResolvePlan(const RouterSnapshot& snap, QueryMethod method,
                         const GatherOptions& options, const PlanFn& plan) {
  if (options.blend) return options.blend->plan;
  if (method != QueryMethod::kAuto) {
    ExecutedPlan explicit_plan;
    explicit_plan.method = method;
    explicit_plan.rationale = "explicitly requested " +
                              std::string(core::QueryMethodName(method)) +
                              " per shard; scatter-gather over " +
                              std::to_string(snap.shards.size()) + " shards";
    return explicit_plan;
  }
  const QueryPlanner::Topology topology{snap.shards.size(), snap.routing->cross.pairs.size()};
  const QueryPlanner planner(snap.max_n, snap.window, snap.caps, topology);
  return plan(planner);
}

/// Stamps where the answer ran. A blended answer rescales by live
/// marginals, so it is not a snapshot answer.
void Annotate(ExecutedPlan* plan, const RouterSnapshot& snap, const GatherOptions& options) {
  if (!options.blend) core::AnnotateSnapshotServed(plan, snap.generation);
}

/// The blend applied to cross-pair values, if any: correlation is
/// scale-free, so it passes through the blend unchanged.
const core::CrossBlend* CrossBlendFor(Measure measure, const GatherOptions& options) {
  return options.blend && measure != Measure::kCorrelation ? &options.blend->value : nullptr;
}

/// Values of every cross pair of the epoch, index-aligned with
/// `snap.routing->cross.pairs`, swept naively over the snapshot columns.
StatusOr<std::vector<double>> CrossValues(const RouterSnapshot& snap, Measure measure,
                                          const GatherOptions& options) {
  return core::EvaluateCrossPairs(measure, ColumnTable(snap), snap.routing->cross, options.exec,
                                  CrossBlendFor(measure, options));
}

/// Rewrites a shard's local ids to global ones.
ts::SequencePair GlobalPair(const SeriesPartitioner& p, std::size_t s, ts::SequencePair e) {
  return ts::SequencePair(p.global_id(s, e.u), p.global_id(s, e.v));
}

/// The shared MET/MER gather: per-shard selections run concurrently on
/// `options.exec` (every write is shard-disjoint), local ids are rewritten
/// to global and sorted, the cross-shard sweep applies `keep(value, a, b)`
/// plus the `min_quality` predicate, and the sorted runs k-way merge.
template <typename PlanFn>
StatusOr<core::SelectionResult> Select(const RouterSnapshot& snap, Measure measure,
                                       bool (*keep)(double, double, double), double a, double b,
                                       double min_quality, QueryMethod method,
                                       const PlanFn& plan_fn, const ShardSelect& shard,
                                       const GatherOptions& options) {
  ExecutedPlan plan = ResolvePlan(snap, method, options, plan_fn);
  const QueryMethod per_shard = method == QueryMethod::kAuto ? plan.method : method;
  const SeriesPartitioner& partitioner = snap.routing->partitioner;
  const bool location = core::IsLocation(measure);
  const std::size_t n_shards = snap.shards.size();
  std::vector<std::vector<ts::SeriesId>> series_runs(n_shards);
  std::vector<std::vector<ts::SequencePair>> pair_runs(n_shards);
  std::vector<core::PruneStats> prunes(n_shards);
  std::vector<core::AnswerQuality> qualities(n_shards);
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      options.exec, n_shards,
      [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          AFFINITY_ASSIGN_OR_RETURN(core::SelectionResult r, shard(s, per_shard));
          prunes[s] = r.prune;
          qualities[s] = r.quality;
          if (location) {
            for (ts::SeriesId& v : r.series) v = partitioner.global_id(s, v);
            std::sort(r.series.begin(), r.series.end());
            series_runs[s] = std::move(r.series);
          } else {
            for (ts::SequencePair& e : r.pairs) e = GlobalPair(partitioner, s, e);
            std::sort(r.pairs.begin(), r.pairs.end());
            pair_runs[s] = std::move(r.pairs);
          }
        }
        return Status::OK();
      }));
  core::SelectionResult out;
  for (const core::PruneStats& p : prunes) out.prune += p;
  // The merged stamp: populated only when every shard answered with a
  // quality surface; min over shard minima, exclusions summed (cross-pair
  // exclusions added below).
  core::AnswerQuality merged;
  merged.populated = n_shards > 0;
  for (const core::AnswerQuality& q : qualities) {
    merged.populated = merged.populated && q.populated;
    merged.min_score = std::min(merged.min_score, q.min_score);
    merged.excluded += q.excluded;
  }
  if (!location && n_shards > 1) {
    const std::vector<ts::SequencePair>& cross = snap.routing->cross.pairs;
    AFFINITY_ASSIGN_OR_RETURN(const std::vector<double> values,
                              CrossValues(snap, measure, options));
    std::vector<ts::SequencePair> kept;
    for (std::size_t i = 0; i < cross.size(); ++i) {
      if (!keep(values[i], a, b)) continue;
      // No shard model covers a cross pair, so its quality predicate runs
      // here, against each endpoint's shard-local surface — same
      // conjunctive semantics as QueryEngine's post-filter.
      if (min_quality > 0.0 || merged.populated) {
        const double su = QualityOf(snap, options, cross[i].u);
        const double sv = QualityOf(snap, options, cross[i].v);
        if (min_quality > 0.0 && (su < min_quality || sv < min_quality)) {
          ++merged.excluded;
          continue;
        }
        if (merged.populated) merged.min_score = std::min(merged.min_score, std::min(su, sv));
      }
      kept.push_back(cross[i]);
    }
    pair_runs.push_back(std::move(kept));  // already lex-sorted
  }
  if (location) {
    out.series = MergeSortedRuns(series_runs, std::less<ts::SeriesId>{});
  } else {
    out.pairs = MergeSortedRuns(pair_runs, std::less<ts::SequencePair>{});
  }
  out.quality = merged;
  if (min_quality > 0.0) core::AnnotateQualityFiltered(&plan, min_quality, merged.excluded);
  Annotate(&plan, snap, options);
  out.plan = std::move(plan);
  return out;
}

}  // namespace

StatusOr<core::SelectionResult> GatherMet(const RouterSnapshot& snap,
                                          const core::MetRequest& request, QueryMethod method,
                                          const ShardSelect& shard, const GatherOptions& options) {
  return Select(
      snap, request.measure, request.greater ? core::KeepGreater : core::KeepLesser, request.tau,
      0.0, request.min_quality, method,
      [&](const QueryPlanner& planner) { return planner.PlanMet(request.measure); }, shard,
      options);
}

StatusOr<core::SelectionResult> GatherMer(const RouterSnapshot& snap,
                                          const core::MerRequest& request, QueryMethod method,
                                          const ShardSelect& shard, const GatherOptions& options) {
  if (request.lo > request.hi) return Status::InvalidArgument("MER requires lo <= hi");
  return Select(
      snap, request.measure, core::KeepInside, request.lo, request.hi, request.min_quality, method,
      [&](const QueryPlanner& planner) { return planner.PlanMer(request.measure); }, shard,
      options);
}

StatusOr<core::TopKResult> GatherTopK(const RouterSnapshot& snap, const core::TopKRequest& request,
                                      QueryMethod method, const ShardTopK& shard,
                                      const GatherOptions& options) {
  ExecutedPlan plan = ResolvePlan(snap, method, options, [&](const QueryPlanner& planner) {
    return planner.PlanTopK(request.measure, request.k);
  });
  const QueryMethod per_shard = method == QueryMethod::kAuto ? plan.method : method;
  const SeriesPartitioner& partitioner = snap.routing->partitioner;
  const std::size_t n_shards = snap.shards.size();
  std::vector<ScapeTopKResult> runs(n_shards);
  std::vector<core::AnswerQuality> qualities(n_shards);
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      options.exec, n_shards,
      [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          AFFINITY_ASSIGN_OR_RETURN(core::TopKResult r, shard(s, per_shard));
          qualities[s] = r.quality;
          for (ScapeTopKEntry& entry : r.entries) {
            if (entry.has_series()) {
              entry.series = partitioner.global_id(s, entry.series);
            } else {
              entry.pair = GlobalPair(partitioner, s, entry.pair);
            }
          }
          runs[s] = std::move(r);
        }
        return Status::OK();
      }));
  core::AnswerQuality merged;
  merged.populated = n_shards > 0;
  for (const core::AnswerQuality& q : qualities) {
    merged.populated = merged.populated && q.populated;
    merged.excluded += q.excluded;
  }
  if (!core::IsLocation(request.measure) && n_shards > 1) {
    const std::vector<ts::SequencePair>& cross = snap.routing->cross.pairs;
    AFFINITY_ASSIGN_OR_RETURN(const std::vector<double> values,
                              CrossValues(snap, request.measure, options));
    core::BestK best(request.k, request.largest);
    for (std::size_t i = 0; i < cross.size(); ++i) {
      // Cross pairs compete only when both endpoints satisfy the quality
      // predicate (per-shard answers already restricted their own
      // competition).
      if (request.min_quality > 0.0 &&
          (QualityOf(snap, options, cross[i].u) < request.min_quality ||
           QualityOf(snap, options, cross[i].v) < request.min_quality)) {
        ++merged.excluded;
        continue;
      }
      best.Offer(ScapeTopKEntry{cross[i], core::kNoSeries, values[i]});
    }
    ScapeTopKResult cross_run;
    cross_run.entries = best.TakeSorted();
    cross_run.examined = cross.size();
    runs.push_back(std::move(cross_run));
  }
  core::TopKResult out;
  static_cast<ScapeTopKResult&>(out) = core::MergeTopK(runs, request.k, request.largest);
  if (merged.populated) {
    // Exact stamp over the entries that actually survived the merge.
    for (const ScapeTopKEntry& e : out.entries) {
      const double score = e.has_series() ? QualityOf(snap, options, e.series)
                                          : std::min(QualityOf(snap, options, e.pair.u),
                                                     QualityOf(snap, options, e.pair.v));
      merged.min_score = std::min(merged.min_score, score);
    }
  }
  out.quality = merged;
  if (request.min_quality > 0.0) {
    core::AnnotateQualityFiltered(&plan, request.min_quality, merged.excluded);
  }
  Annotate(&plan, snap, options);
  out.plan = std::move(plan);
  return out;
}

StatusOr<core::MecResponse> GatherMec(const RouterSnapshot& snap, const core::MecRequest& request,
                                      QueryMethod method, const ShardMec& shard,
                                      const GatherOptions& options) {
  ExecutedPlan plan = ResolvePlan(snap, method, options, [&](const QueryPlanner& planner) {
    return planner.PlanMec(request.measure, request.ids.size());
  });
  if (request.ids.empty()) return Status::InvalidArgument("MEC requires a non-empty id set");
  const SeriesPartitioner& partitioner = snap.routing->partitioner;
  for (const ts::SeriesId id : request.ids) {
    if (id >= partitioner.n()) {
      return Status::OutOfRange("series id " + std::to_string(id) + " out of range (n=" +
                                std::to_string(partitioner.n()) + ")");
    }
  }
  const QueryMethod per_shard = method == QueryMethod::kAuto ? plan.method : method;

  // Slice the request per shard, remembering each id's request position.
  const std::size_t n_shards = snap.shards.size();
  std::vector<std::vector<std::size_t>> positions(n_shards);
  std::vector<core::MecRequest> slices(n_shards);
  for (std::size_t i = 0; i < request.ids.size(); ++i) {
    const std::size_t s = partitioner.shard_of(request.ids[i]);
    positions[s].push_back(i);
    slices[s].measure = request.measure;
    slices[s].min_quality = request.min_quality;
    slices[s].ids.push_back(partitioner.local_id(request.ids[i]));
  }

  const std::size_t count = request.ids.size();
  const bool location = core::IsLocation(request.measure);
  core::MecResponse out;
  if (location) {
    out.location = la::Vector(count);
  } else {
    out.pair_values = la::Matrix(count, count);
  }
  // One chunk per shard (writes are shard-disjoint request positions).
  std::vector<core::AnswerQuality> qualities(n_shards);
  AFFINITY_RETURN_IF_ERROR(TryParallelChunks(
      options.exec, n_shards,
      [&](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) -> Status {
        for (std::size_t s = lo; s < hi; ++s) {
          if (slices[s].ids.empty()) continue;
          AFFINITY_ASSIGN_OR_RETURN(core::MecResponse r, shard(s, slices[s], per_shard));
          qualities[s] = r.quality;
          if (location) {
            for (std::size_t t = 0; t < positions[s].size(); ++t) {
              out.location[positions[s][t]] = r.location[t];
            }
          } else {
            for (std::size_t a = 0; a < positions[s].size(); ++a) {
              for (std::size_t b = 0; b < positions[s].size(); ++b) {
                out.pair_values(positions[s][a], positions[s][b]) = r.pair_values(a, b);
              }
            }
          }
        }
        return Status::OK();
      }));
  if (!location) {
    // Cross-shard cells: every requested (i, j) spanning two shards,
    // evaluated naively over the epoch's columns.
    std::vector<ts::SequencePair> pairs;
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = i + 1; j < count; ++j) {
        if (partitioner.shard_of(request.ids[i]) == partitioner.shard_of(request.ids[j])) {
          continue;
        }
        pairs.emplace_back(request.ids[i], request.ids[j]);
        cells.emplace_back(i, j);
      }
    }
    if (!pairs.empty()) {
      AFFINITY_ASSIGN_OR_RETURN(
          const std::vector<double> values,
          core::EvaluateCrossPairs(request.measure, ColumnTable(snap, &request.ids), pairs,
                                   options.exec, CrossBlendFor(request.measure, options)));
      for (std::size_t idx = 0; idx < cells.size(); ++idx) {
        out.pair_values(cells[idx].first, cells[idx].second) = values[idx];
        out.pair_values(cells[idx].second, cells[idx].first) = values[idx];
      }
    }
  }
  // Merged stamp over the shards the request actually touched (every id
  // lands in exactly one slice, and each slice already enforced the
  // FailedPrecondition contract for its ids).
  core::AnswerQuality merged;
  merged.populated = true;
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (slices[s].ids.empty()) continue;
    merged.populated = merged.populated && qualities[s].populated;
    merged.min_score = std::min(merged.min_score, qualities[s].min_score);
    merged.excluded += qualities[s].excluded;
  }
  out.quality = merged;
  Annotate(&plan, snap, options);
  out.plan = std::move(plan);
  return out;
}

StatusOr<core::SelectionResult> RouterMet(const RouterSnapshot& snap,
                                          const core::MetRequest& request, QueryMethod method) {
  return GatherMet(
      snap, request, method,
      [&](std::size_t s, QueryMethod m) { return serve::SnapshotMet(*snap.shards[s], request, m); },
      {});
}

StatusOr<core::SelectionResult> RouterMer(const RouterSnapshot& snap,
                                          const core::MerRequest& request, QueryMethod method) {
  return GatherMer(
      snap, request, method,
      [&](std::size_t s, QueryMethod m) { return serve::SnapshotMer(*snap.shards[s], request, m); },
      {});
}

StatusOr<core::TopKResult> RouterTopK(const RouterSnapshot& snap,
                                      const core::TopKRequest& request, QueryMethod method) {
  return GatherTopK(
      snap, request, method,
      [&](std::size_t s, QueryMethod m) {
        return serve::SnapshotTopK(*snap.shards[s], request, m);
      },
      {});
}

StatusOr<core::MecResponse> RouterMec(const RouterSnapshot& snap, const core::MecRequest& request,
                                      QueryMethod method) {
  return GatherMec(
      snap, request, method,
      [&](std::size_t s, const core::MecRequest& slice, QueryMethod m) {
        return serve::SnapshotMec(*snap.shards[s], slice, m);
      },
      {});
}

}  // namespace affinity::shard

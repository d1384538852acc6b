#ifndef AFFINITY_SHARD_SHARD_SERVE_H_
#define AFFINITY_SHARD_SHARD_SERVE_H_

/// \file shard_serve.h
/// The sharded deployment's one scatter-gather (DESIGN.md §9, §11). An
/// immutable `RouterSnapshot` bundles every shard's published
/// `serve::ServingSnapshot` for one lockstep refresh epoch with the
/// deployment's routing tables (the partition, the lex cross-pair list
/// and its block layout), so a MET/MER/MEC/top-k can execute end-to-end
/// against immutable state — zero locks, zero waiting on in-flight slides.
///
/// Every sharded query runs through the `Gather*` functions below: plan
/// resolution, the per-shard scatter, local→global rewrite + sort, the
/// naive sweep of the pairs spanning two shards, the cross-pair quality
/// filter and stamp, and the k-way merge. The cross sweep reads the
/// epoch's snapshot columns through one table indexed by global id and
/// runs each shard pair's block group(A) × group(B) as register tiles
/// (`core::EvaluateCrossPairs`); the routing tables' rank table puts each
/// value at its lex position. MEC's few cross cells read the same table
/// pair by pair. Two callers drive it:
///
///  * `RouterMet`/`RouterMer`/`RouterMec`/`RouterTopK` — concurrent
///    readers: sequential, each shard answered by its serving snapshot.
///    Anything a shard snapshot cannot serve (WF, quality predicates)
///    propagates `StatusCode::kUnavailable`, and the caller falls back to
///    the live service.
///  * `ShardedAffinity`'s queries — the writer thread: its pool, each
///    shard answered by its live `StreamingAffinity` (freshness blend, WF
///    and quality predicates included), its shards' quality surfaces, and
///    the live-marginal blend of the cross pairs when the staleness bound
///    trips.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/query.h"
#include "serve/serve_query.h"
#include "serve/serving_snapshot.h"
#include "shard/partitioner.h"
#include "ts/data_matrix.h"

namespace affinity::shard {

/// The routing tables of one deployment: the partition plus every
/// sequence pair spanning two shards, (u, v)-lex in global ids, with the
/// shard-pair block layout the cross sweep runs in. Fixed once the
/// deployment is created or restored, so one instance is shared by the
/// ingest router and every published epoch.
struct RoutingTables {
  SeriesPartitioner partitioner;
  core::CrossLayout cross;

  /// Builds the cross pairs and their layout for `partitioner`.
  explicit RoutingTables(SeriesPartitioner partitioner);
};

/// An immutable serving replica of one sharded deployment at one lockstep
/// refresh epoch. Holds shared ownership of every shard's serving
/// snapshot; no pointer into the live service survives in here.
struct RouterSnapshot {
  /// Router epochs published before this one, plus one (≥ 1).
  std::uint64_t generation = 0;
  /// Window geometry shared by every shard snapshot.
  std::size_t window = 0;
  /// The shard snapshots' shared block-grid anchor.
  std::size_t anchor = 0;

  /// Shard s's serving snapshot for this epoch.
  std::vector<std::shared_ptr<const serve::ServingSnapshot>> shards;

  /// The deployment's routing tables (shared, never copied per epoch).
  std::shared_ptr<const RoutingTables> routing;

  /// Capability intersection over the shards and the widest shard width —
  /// the kAuto planner inputs.
  core::QueryPlanner::Capabilities caps;
  std::size_t max_n = 0;
};

/// What a gather's caller supplies beyond the epoch. The defaults are the
/// concurrent-reader path: sequential, no quality surface, no blend.
struct GatherOptions {
  /// Runs the per-shard scatter and the cross sweep.
  ExecContext exec;
  /// Shard s's composite quality scores by local id (DESIGN.md §12), for
  /// the cross-pair `min_quality` filter and the answer's quality stamp.
  /// Empty when the caller has no quality surface.
  std::vector<const std::vector<double>*> quality;
  /// The freshness blend (DESIGN.md §9), set only when the staleness
  /// bound trips: `plan` replaces the planner's, and `value(pair,
  /// snapshot_corr, snapshot_value)` rescales each cross-pair value by the
  /// live marginals.
  struct Blend {
    core::ExecutedPlan plan;
    core::CrossBlend value;
  };
  std::optional<Blend> blend;
};

/// One shard's part of a gather: shard `s` answering under the resolved
/// per-shard method (MEC passes the shard's slice of the request, in
/// shard-local ids).
using ShardSelect =
    std::function<StatusOr<core::SelectionResult>(std::size_t s, core::QueryMethod)>;
using ShardTopK = std::function<StatusOr<core::TopKResult>(std::size_t s, core::QueryMethod)>;
using ShardMec = std::function<StatusOr<core::MecResponse>(
    std::size_t s, const core::MecRequest& slice, core::QueryMethod)>;

/// The gathers, in global ids. `method` is the requested strategy (kAuto
/// consults the shard-aware planner over the epoch). InvalidArgument for
/// MER with lo > hi and for an empty MEC id set, OutOfRange for a MEC id
/// outside the deployment; per-shard errors propagate (lowest shard
/// first).
StatusOr<core::SelectionResult> GatherMet(const RouterSnapshot& snap,
                                          const core::MetRequest& request,
                                          core::QueryMethod method, const ShardSelect& shard,
                                          const GatherOptions& options);
StatusOr<core::SelectionResult> GatherMer(const RouterSnapshot& snap,
                                          const core::MerRequest& request,
                                          core::QueryMethod method, const ShardSelect& shard,
                                          const GatherOptions& options);
StatusOr<core::TopKResult> GatherTopK(const RouterSnapshot& snap, const core::TopKRequest& request,
                                      core::QueryMethod method, const ShardTopK& shard,
                                      const GatherOptions& options);
StatusOr<core::MecResponse> GatherMec(const RouterSnapshot& snap, const core::MecRequest& request,
                                      core::QueryMethod method, const ShardMec& shard,
                                      const GatherOptions& options);

/// Query 1 against a router snapshot; answers carry no per-shard
/// freshness — the snapshot is one coherent epoch.
StatusOr<core::MecResponse> RouterMec(const RouterSnapshot& snap, const core::MecRequest& request,
                                      core::QueryMethod method = core::QueryMethod::kAuto);

/// Query 2 against a router snapshot.
StatusOr<core::SelectionResult> RouterMet(const RouterSnapshot& snap,
                                          const core::MetRequest& request,
                                          core::QueryMethod method = core::QueryMethod::kAuto);

/// Query 3 against a router snapshot.
StatusOr<core::SelectionResult> RouterMer(const RouterSnapshot& snap,
                                          const core::MerRequest& request,
                                          core::QueryMethod method = core::QueryMethod::kAuto);

/// Top-k against a router snapshot.
StatusOr<core::TopKResult> RouterTopK(const RouterSnapshot& snap,
                                      const core::TopKRequest& request,
                                      core::QueryMethod method = core::QueryMethod::kAuto);

}  // namespace affinity::shard

#endif  // AFFINITY_SHARD_SHARD_SERVE_H_

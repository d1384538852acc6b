#ifndef AFFINITY_PERFBENCH_WORKLOADS_H_
#define AFFINITY_PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// The three workloads (perfbench/README.md says why each exists) and the
/// layer accounting they share.

#include <map>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/incremental.h"
#include "harness.h"
#include "ts/ingest.h"

namespace affinity::perfbench {

/// Archival setting: one paper-scale build, closed-loop readers on the
/// live QueryEngine, a checkpoint round trip.
void RunArchiveStock(const RunConfig& config, Report* report);

/// Dirty timestamped feed through StreamAligner → AppendMasked at a fixed
/// rate, interval-1 incremental refresh, readers on serving snapshots.
void RunStreamDirty(const RunConfig& config, Report* report);

/// Clean feed into a 4-shard service at a fixed rate, readers on the
/// router snapshot, a manifest Save/Load round trip.
void RunShardFanout(const RunConfig& config, Report* report);

/// Set-up rounds of a stream workload: set-up and restore are each timed
/// once per round, every round on a dataset of its own, so the medians
/// average out how fast the first build converges on one dataset. One
/// round sets up the instance that serves the run; half of the others
/// run before it and half after its final round trip, so a slow stretch
/// of the host at one end of the run moves at most half of them (the
/// rounds take only 2–3 s in all).
inline constexpr std::size_t kSetupRounds = 15;

/// The seed of set-up round `round`'s dataset (distinct from the run's
/// main dataset, which is made from the run's seed itself).
inline std::uint64_t RoundSeed(std::uint64_t seed, std::size_t round) {
  return (seed << 8) + 1 + round;
}

/// Build-phase timings, one entry per BuildProfile added.
struct BuildPhases {
  std::vector<double> total, afclst, symex, preprocess, scape, dft;
  void Add(const core::BuildProfile& p) {
    total.push_back(p.total_seconds);
    afclst.push_back(p.afclst_seconds);
    symex.push_back(p.symex_seconds);
    preprocess.push_back(p.preprocess_seconds);
    scape.push_back(p.scape_seconds);
    dft.push_back(p.dft_seconds);
  }
};
void AddBuildMetrics(Report* report, const BuildPhases& phases);

/// Maintenance and publication counters accumulated between `before` and
/// `after`; `trees_per_epoch` is the number of flat SCAPE trees an epoch
/// holds (the base of the shared-run ratio). Zeros on a workload that
/// does not stream.
void AddMaintenanceMetrics(Report* report, const core::MaintenanceProfile& before,
                           const core::MaintenanceProfile& after, std::size_t trees_per_epoch);

/// Per-refresh bookkeeping of a stream workload: an append that returned
/// `refreshed` took `wall_ms`; the maintenance profile read right after
/// it splits that into maintainer, recompute and publish time, and the
/// rest (quality, bookkeeping) is what the engine does not time.
struct RefreshLog {
  std::vector<double> wall_ms, maintain_ms, recompute_ms, publish_ms, untimed_ms;
  void Record(double wall, const core::MaintenanceProfile& m) {
    wall_ms.push_back(wall);
    maintain_ms.push_back(m.last_refresh_seconds * 1e3);
    recompute_ms.push_back(m.last_recompute_seconds * 1e3);
    publish_ms.push_back(m.last_publish_seconds * 1e3);
    untimed_ms.push_back(wall - (m.last_refresh_seconds + m.last_publish_seconds) * 1e3);
  }
};

/// What the two stream workloads measure the same way.
struct StreamFigures {
  std::vector<double> setup_s, restore_s;  ///< one per set-up round
  BuildPhases phases;                      ///< the set-up rounds' first builds
  std::vector<double> checkpoint_write_s, checkpoint_read_s;
  Visibility visibility;
  RefreshLog refreshes;
  std::vector<double> lag_ms;  ///< open-loop generator lateness per item
  ChunkedRate flat{1, 0.0};
  double wa_rmse_pct = 0.0;
  core::MaintenanceProfile before, after;  ///< around the streaming phases
  std::size_t trees_per_epoch = 0;
  double inputs_mb = 0.0;  ///< resident memory once the inputs were made
};

/// Adds the stream workloads' shared metrics: every end-to-end metric,
/// the reader layer (`reader_layer`, e.g. "serve"), refresh wall times
/// as `<refresh_layer>.refresh_ms`, and the build, checkpoint and
/// maintenance layers.
void AddStreamMetrics(Report* report, const StreamFigures& figures, const ReaderSummary& summary,
                      const std::string& reader_layer, const std::string& refresh_layer);

/// peak_rss_mb: the peak resident memory of the run above `inputs_mb`,
/// the resident memory once the benchmark had made its inputs — so the
/// figure is the engine's, not the generated data's.
void AddPeakRss(Report* report, double inputs_mb);

/// Aligner counters (zeros when the feed does not go through one).
void AddIngestMetrics(Report* report, const ts::IngestStats& stats);

/// Percent RMSE of the kAuto MEC answers a surface serves against its WN
/// answers over `sample`, per measure, averaged over measures. Counts
/// each request.
template <typename Api>
double WaRmsePct(const Api& api, const std::vector<Query>& sample, Report* report) {
  std::map<int, std::pair<std::vector<double>, std::vector<double>>> by_measure;
  for (const Query& q : sample) {
    const Answer served = Execute(api, q, core::QueryMethod::kAuto);
    const Answer exact = Execute(api, q, core::QueryMethod::kNaive);
    const bool ok =
        served.ok() && exact.ok() && served.values.size() == exact.values.size();
    report->Count(ok, "accuracy MEC " + std::to_string(q.id));
    if (!ok) continue;
    auto& [truth, approx] = by_measure[static_cast<int>(q.measure)];
    truth.insert(truth.end(), exact.values.begin(), exact.values.end());
    approx.insert(approx.end(), served.values.begin(), served.values.end());
  }
  double sum = 0.0;
  for (const auto& [measure, values] : by_measure) {
    const double rmse = core::PercentRmse(values.first, values.second);
    report->Add(Group::kDetail,
                "accuracy." + std::string(core::MeasureName(static_cast<core::Measure>(measure))) +
                    "_rmse_pct",
                rmse, "%");
    sum += rmse;
  }
  return by_measure.empty() ? 0.0 : sum / static_cast<double>(by_measure.size());
}

/// The checkpoint layer, measured on every workload.
void AddCheckpointMetrics(Report* report, double write_s, const std::vector<double>& read_s);

}  // namespace affinity::perfbench

#endif  // AFFINITY_PERFBENCH_WORKLOADS_H_

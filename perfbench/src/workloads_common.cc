#include "bench_math.h"
#include "workloads.h"

namespace affinity::perfbench {

namespace {

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

}  // namespace

void AddBuildMetrics(Report* report, const BuildPhases& p) {
  report->Add(Group::kLayer, "core.build_s", Median(p.total), "s");
  report->Add(Group::kLayer, "core.build.afclst_s", Median(p.afclst), "s");
  report->Add(Group::kLayer, "core.build.symex_s", Median(p.symex), "s");
  report->Add(Group::kLayer, "core.build.preprocess_s", Median(p.preprocess), "s");
  report->Add(Group::kLayer, "core.build.scape_s", Median(p.scape), "s");
  report->Add(Group::kLayer, "core.build.dft_s", Median(p.dft), "s");
}

void AddMaintenanceMetrics(Report* report, const core::MaintenanceProfile& before,
                           const core::MaintenanceProfile& after, std::size_t trees_per_epoch) {
  auto delta = [&](std::size_t core::MaintenanceProfile::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double refreshes = delta(&core::MaintenanceProfile::refreshes);
  const double rekeys = delta(&core::MaintenanceProfile::tree_rekeys);
  const double skipped = delta(&core::MaintenanceProfile::scape_rekeys_skipped);
  const double touched = delta(&core::MaintenanceProfile::recompute_blocks_touched);
  const double reused = delta(&core::MaintenanceProfile::recompute_blocks_reused);
  const double epochs = delta(&core::MaintenanceProfile::epochs_published);
  report->Add(Group::kLayer, "core.rekeys_per_refresh", Ratio(rekeys, refreshes), "count");
  report->Add(Group::kLayer, "core.rekeys_skipped_ratio", Ratio(skipped, rekeys + skipped),
              "ratio");
  report->Add(Group::kLayer, "core.blocks_reused_ratio", Ratio(reused, touched + reused),
              "ratio");
  report->Add(Group::kLayer, "core.escalations", delta(&core::MaintenanceProfile::escalations),
              "count");
  report->Add(Group::kLayer, "serve.delta_ratio",
              Ratio(delta(&core::MaintenanceProfile::epochs_delta), epochs), "ratio");
  report->Add(Group::kLayer, "serve.runs_shared_ratio",
              Ratio(delta(&core::MaintenanceProfile::scape_runs_shared),
                    epochs * static_cast<double>(trees_per_epoch)),
              "ratio");
  report->Add(Group::kLayer, "serve.bytes_copied_per_epoch",
              Ratio(delta(&core::MaintenanceProfile::snapshot_bytes_copied), epochs), "bytes");
  report->Add(Group::kLayer, "serve.fallbacks", delta(&core::MaintenanceProfile::serve_fallbacks),
              "count");
  report->Add(Group::kDetail, "core.refreshes", refreshes, "count");
  report->Add(Group::kDetail, "serve.epochs", epochs, "count");
  report->Add(Group::kDetail, "serve.runs_shared",
              delta(&core::MaintenanceProfile::scape_runs_shared), "count");
  report->Add(Group::kDetail, "serve.runs_spliced",
              delta(&core::MaintenanceProfile::scape_runs_spliced), "count");
  report->Add(Group::kDetail, "serve.trees_per_epoch", static_cast<double>(trees_per_epoch),
              "count");
}

void AddIngestMetrics(Report* report, const ts::IngestStats& stats) {
  report->Add(Group::kLayer, "ts.late", static_cast<double>(stats.late), "count");
  report->Add(Group::kLayer, "ts.fills", static_cast<double>(stats.fills), "count");
  report->Add(Group::kLayer, "ts.gaps", static_cast<double>(stats.gaps), "count");
  report->Add(Group::kDetail, "ts.samples", static_cast<double>(stats.samples), "count");
  report->Add(Group::kDetail, "ts.nonfinite", static_cast<double>(stats.nonfinite), "count");
  report->Add(Group::kDetail, "ts.rows", static_cast<double>(stats.rows), "count");
}

void AddStreamMetrics(Report* report, const StreamFigures& f, const ReaderSummary& summary,
                      const std::string& reader_layer, const std::string& refresh_layer) {
  report->Add(Group::kEndToEnd, "setup_s", Median(f.setup_s), "s");
  report->Add(Group::kEndToEnd, "restore_s", Median(f.restore_s), "s");
  AddReaderMetrics(report, summary, reader_layer);
  const std::vector<double>& visible = f.visibility.visible_ms();
  AddPercentile(report, Group::kEndToEnd, "visible_p50_ms", visible, 50, "ms");
  AddPercentile(report, Group::kEndToEnd, "visible_p99_ms", visible, 99, "ms");
  report->Add(Group::kEndToEnd, "ingest_rows_per_s", f.flat.PerSecond(), "1/s");
  AddPeakRss(report, f.inputs_mb);
  report->Add(Group::kLayer, "core.wa_rmse_pct", f.wa_rmse_pct, "%");

  AddBuildMetrics(report, f.phases);
  AddCheckpointMetrics(report, Median(f.checkpoint_write_s), f.checkpoint_read_s);
  AddMaintenanceMetrics(report, f.before, f.after, f.trees_per_epoch);
  report->Add(Group::kDetail, "visible.samples", static_cast<double>(visible.size()), "count");
  AddPercentiles(report, Group::kDetail, refresh_layer + ".refresh_ms", f.refreshes.wall_ms,
                 "ms");
  report->Add(Group::kDetail, "core.maintain_ms.p50", Median(f.refreshes.maintain_ms), "ms");
  report->Add(Group::kDetail, "core.recompute_ms.p50", Median(f.refreshes.recompute_ms), "ms");
  report->Add(Group::kDetail, "core.refresh_untimed_ms.p50", Median(f.refreshes.untimed_ms),
              "ms");
  AddPercentiles(report, Group::kDetail, "serve.publish_ms", f.refreshes.publish_ms, "ms");
  AddPercentile(report, Group::kDetail, "feed.lag_p99_ms", f.lag_ms, 99, "ms");
  report->Add(Group::kDetail, "feed.flat_rows", static_cast<double>(f.flat.total()), "count");
}

void AddPeakRss(Report* report, double inputs_mb) {
  report->Add(Group::kEndToEnd, "peak_rss_mb", PeakRssMb() - inputs_mb, "MB");
  report->Add(Group::kDetail, "rss.inputs_mb", inputs_mb, "MB");
  report->Add(Group::kDetail, "rss.process_peak_mb", PeakRssMb(), "MB");
}

void AddCheckpointMetrics(Report* report, double write_s, const std::vector<double>& read_s) {
  report->Add(Group::kLayer, "core.checkpoint_write_s", write_s, "s");
  report->Add(Group::kLayer, "core.checkpoint_read_s", Median(read_s), "s");
}

}  // namespace affinity::perfbench

// archive-stock: the paper's archival setting. AFCLST → SYMEX+ → SCAPE
// (+WF) builds over paper-scale stock datasets, a closed-loop reader on
// the live QueryEngine under kAuto, then a checkpoint round trip. No
// ingest, refresh or publish runs here, so every streaming-layer change
// should leave these numbers alone.

#include <memory>
#include <sstream>
#include <thread>

#include "bench_math.h"
#include "core/framework.h"
#include "core/serialize.h"
#include "ts/generators.h"
#include "workloads.h"

namespace affinity::perfbench {

namespace {

const char* const kQuerySpans[kNumKinds] = {"core.query.met", "core.query.mer",
                                            "core.query.mec", "core.query.topk"};

/// Independent datasets per run, each built and restored once. The
/// datasets of different seeds differ in how fast AFCLST converges and
/// how well SCAPE prunes; timing five per run averages that out of the
/// run's figures.
constexpr std::size_t kDatasets = 5;

/// What the datasets of one run add up to.
struct ArchiveTotals {
  std::vector<double> setup_s, read_s, from_model_s, restore_s, write_s, wa_rmse;
  BuildPhases phases;
  std::vector<ReaderLog> logs;
  double inputs_mb = 0.0;
  double measured = 0.0;
  std::size_t checkpoint_bytes = 0;
};

/// One dataset: builds, a closed-loop query phase of `seconds`, the
/// checks, and a checkpoint round trip. False when the run must stop.
bool RunArchiveDataset(const RunConfig& config, const ts::Dataset& dataset, std::uint64_t seed,
                       double seconds, const core::AffinityOptions& options,
                       ArchiveTotals* totals, Report* report) {
  // Set-up: hand the matrix over, wait for an engine that can answer.
  const double begin = NowSeconds();
  auto built = core::Affinity::Build(dataset.matrix, options);
  totals->setup_s.push_back(NowSeconds() - begin);
  report->Count(built.ok(), "Affinity::Build");
  if (!built.ok()) {
    report->Wrong("build failed: " + built.status().ToString());
    return false;
  }
  const auto fw = std::make_unique<core::Affinity>(std::move(*built));
  totals->phases.Add(fw->profile());

  // One closed-loop reader that owns the rest of the threads as its
  // engine pool: query latency is then a property of the query and the
  // data, not of how two readers' sweeps happened to overlap.
  const std::vector<Query> mix = MakeQueryMix(dataset.matrix, seed);
  const EngineApi live{&fw->engine()};
  {
    ReaderPool reading(
        mix, 1,
        [&](const Query& q, double*) {
          ScopedSpan span(kQuerySpans[static_cast<int>(q.kind)]);
          return Execute(live, q, core::QueryMethod::kAuto);
        },
        std::min(0.5, 0.1 * seconds));
    const double measure_begin = NowSeconds();
    reading.Measure();
    while (NowSeconds() - measure_begin < seconds) {
      if (config.trace) ToggleTracing(NowSeconds());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    totals->measured += NowSeconds() - measure_begin;
    reading.Stop();
    Tracer::Get().SetEnabled(false);
    totals->logs.push_back(std::move(reading.logs().front()));
  }

  // Check: sampled kAuto answers equal the explicitly requested WA answer
  // (SCAPE ≡ WA). A correlation top-k is always in the sample.
  const std::size_t sample = config.tiny ? mix.size() : 8;
  bool corr_topk_checked = false;
  for (const Query& q : mix) {
    const bool corr_topk = q.kind == Kind::kTopK && q.measure == core::Measure::kCorrelation;
    if (q.id > sample && !(corr_topk && !corr_topk_checked)) continue;
    corr_topk_checked |= corr_topk;
    const std::string diff = Compare(Execute(live, q, core::QueryMethod::kAuto),
                                     Execute(live, q, core::QueryMethod::kAffine),
                                     Agreement::kRoundOff);
    report->Check("kAuto vs WA, query " + std::to_string(q.id), diff);
  }

  // Checkpoint round trip.
  std::stringstream checkpoint;
  const double write_begin = NowSeconds();
  const Status written = core::WriteModelStream(fw->model(), checkpoint);
  totals->write_s.push_back(NowSeconds() - write_begin);
  report->Count(written.ok(), "WriteModelStream: " + written.ToString());
  const std::string bytes = checkpoint.str();
  totals->checkpoint_bytes = bytes.size();
  std::unique_ptr<core::Affinity> restored;
  std::istringstream in(bytes);
  const double read_begin = NowSeconds();
  auto model = core::ReadModelStream(in);
  const double read_end = NowSeconds();
  report->Count(model.ok(), "ReadModelStream");
  if (model.ok()) {
    auto back = core::Affinity::FromModel(std::move(*model), options);
    const double end = NowSeconds();
    report->Count(back.ok(), "Affinity::FromModel");
    if (back.ok()) {
      restored = std::make_unique<core::Affinity>(std::move(*back));
      totals->read_s.push_back(read_end - read_begin);
      totals->from_model_s.push_back(end - read_end);
      totals->restore_s.push_back(end - read_begin);
    }
  }
  if (restored == nullptr) {
    report->Wrong("checkpoint did not restore");
    return false;
  }
  // Check: the restored engine answers a fixed query set as the original.
  const EngineApi back{&restored->engine()};
  for (const Query& q : mix) {
    if (q.id > 8) continue;
    const std::string diff = Compare(Execute(live, q, core::QueryMethod::kAuto),
                                     Execute(back, q, core::QueryMethod::kAuto),
                                     Agreement::kBitwise);
    report->Check("restored engine, query " + std::to_string(q.id), diff);
  }
  restored.reset();

  totals->wa_rmse.push_back(
      WaRmsePct(live, MakeMecSample(dataset.matrix.n(), seed, config.tiny ? 14 : 49), report));
  return true;
}

}  // namespace

void RunArchiveStock(const RunConfig& config, Report* report) {
  core::AffinityOptions options;
  // One reader + pool workers = the CPUs available; the engine runs
  // sequentially (no pool) below 3.
  const std::size_t workers = config.threads >= 3 ? config.threads - 1 : 0;
  options.threads = std::max<std::size_t>(1, workers);  // 1 = no pool
  report->Context("n", config.tiny ? 64.0 : 996.0);
  report->Context("m", config.tiny ? 256.0 : 1950.0);
  report->Context("datasets", static_cast<double>(kDatasets));
  report->Context("readers", 1.0);
  report->Context("pool_threads", static_cast<double>(workers));

  // The paper-scale stock datasets (Table 3), all made before the engine
  // sees any, so the memory they take is the base of peak_rss_mb.
  std::vector<ts::Dataset> datasets;
  for (std::size_t d = 0; d < kDatasets; ++d) {
    ts::DatasetSpec spec;
    spec.num_series = config.tiny ? 64 : 996;
    spec.num_samples = config.tiny ? 256 : 1950;
    spec.num_clusters = config.tiny ? 4 : 10;
    spec.noise_level = 0.015;
    spec.seed = config.seed * kDatasets + d;
    datasets.push_back(ts::MakeStockData(spec));
  }
  ArchiveTotals totals;
  totals.inputs_mb = SettledRssMb();
  for (std::size_t d = 0; d < kDatasets; ++d) {
    if (!RunArchiveDataset(config, datasets[d], config.seed * kDatasets + d,
                           config.seconds / kDatasets, options, &totals, report)) {
      return;
    }
  }
  const ReaderSummary summary = Summarize(totals.logs, kMixSize, totals.measured, 1);

  // End to end. There is no row stream here: every row is handed over at
  // once and becomes visible when the build returns. So visible_p50_ms,
  // visible_p99_ms and ingest_rows_per_s are aliases of the build times
  // behind setup_s (its median in ms, their p99 — a thin tail of
  // kDatasets builds, noted as such — and rows per second of the median
  // build): printed because every workload prints every end-to-end
  // metric, they add nothing to setup_s here.
  std::vector<double> setup_ms;
  for (double s : totals.setup_s) setup_ms.push_back(s * 1e3);
  report->Add(Group::kEndToEnd, "setup_s", Median(totals.setup_s), "s");
  report->Add(Group::kEndToEnd, "restore_s", Median(totals.restore_s), "s");
  AddReaderMetrics(report, summary, "core.query");
  AddPercentile(report, Group::kEndToEnd, "visible_p50_ms", setup_ms, 50, "ms");
  AddPercentile(report, Group::kEndToEnd, "visible_p99_ms", setup_ms, 99, "ms");
  report->Add(Group::kEndToEnd, "ingest_rows_per_s",
              (config.tiny ? 256.0 : 1950.0) / Median(totals.setup_s), "1/s");
  double rmse = 0.0;
  for (double r : totals.wa_rmse) rmse += r / static_cast<double>(totals.wa_rmse.size());
  report->Add(Group::kLayer, "core.wa_rmse_pct", rmse, "%");

  AddBuildMetrics(report, totals.phases);
  AddCheckpointMetrics(report, Median(totals.write_s), totals.read_s);
  report->Add(Group::kDetail, "core.from_model_s", Median(totals.from_model_s), "s");
  report->Add(Group::kDetail, "core.checkpoint_bytes",
              static_cast<double>(totals.checkpoint_bytes), "bytes");
  AddMaintenanceMetrics(report, {}, {}, 0);
  AddIngestMetrics(report, {});
  AddPeakRss(report, totals.inputs_mb);
}

}  // namespace affinity::perfbench

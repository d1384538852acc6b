// shard-fanout: a clean feed at a fixed rate into ShardedAffinity::Append
// (n=512 range-partitioned over 4 shards, window 512, interval 16,
// incremental, cross cache off), readers on the router snapshot through
// shard::Router*, and a manifest Save/Load round trip. It exercises the
// scatter, concurrent per-shard refresh on one shared pool, and the
// cross-shard gather; the clean stream takes the quality path's clean
// case.

#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench_math.h"
#include "shard/sharded.h"
#include "ts/generators.h"
#include "workloads.h"

namespace affinity::perfbench {

namespace {

/// Open-loop feed rate, rows per second: about half of the 570–880 rows/s
/// the service absorbed flat out, reader running, on a 4-core x86 VM
/// whose speed varied with its neighbours' load.
constexpr double kRowsPerSecond = 250.0;
/// Rows per second the flat-out phase's feed is sized for: above the
/// measured capacity, so the feed outlasts the phase.
constexpr double kFlatCap = 1300.0;

const char* const kRouterSpans[kNumKinds] = {"shard.router.met", "shard.router.mer",
                                             "shard.router.mec", "shard.router.topk"};

/// Router ≡ the service's own gather; every shard's epoch ≡ its live
/// engine ≡ a cold rebuild.
void CheckEpoch(const shard::ShardedAffinity& service, const std::vector<Query>& mix,
                std::uint64_t seed, const std::string& when, Report* report) {
  const auto snap = service.serving();
  if (snap == nullptr) return report->Wrong(when + ": no published epoch");
  const RouterApi router{snap.get()};
  const ShardLiveApi gather{&service};
  for (const Query& q : mix) {
    if (q.id > 8) continue;
    const Answer a = Execute(router, q, core::QueryMethod::kAuto);
    report->Count(a.ok(), when + " router query: " + a.status.ToString());
    report->Check(when + " router vs gather, query " + std::to_string(q.id),
                  Compare(a, Execute(gather, q, core::QueryMethod::kAuto), Agreement::kBitwise));
  }
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const core::StreamingAffinity& shard = service.shard(s);
    const auto cold = shard.BuildColdSnapshot();
    if (cold == nullptr) return report->Wrong(when + ": shard without a cold snapshot");
    const SnapshotApi served{snap->shards[s].get()};
    const SnapshotApi rebuilt{cold.get()};
    const EngineApi live{&shard.framework()->engine()};
    std::vector<Query> local = MakeMecSample(shard.framework()->data().n(), seed + s, 2);
    for (const Query& q : mix) {
      if (q.id <= 8 && q.kind != Kind::kMec) local.push_back(q);
    }
    for (const Query& q : local) {
      const Answer a = Execute(served, q, core::QueryMethod::kAuto);
      const std::string at = " shard " + std::to_string(s) + ", query " + std::to_string(q.id);
      report->Check(when + at + " snapshot vs live",
                    Compare(a, Execute(live, q, core::QueryMethod::kAuto), Agreement::kBitwise));
      report->Check(when + at + " epoch vs cold build",
                    Compare(a, Execute(rebuilt, q, core::QueryMethod::kAuto), Agreement::kBitwise));
    }
  }
}

/// Flat SCAPE trees per shard epoch: the aggregated maintenance profile
/// counts publications per shard, so shared runs are a share of these.
std::size_t TreesPerShardEpoch(const shard::RouterSnapshot& snap) {
  std::size_t trees = 0;
  for (const auto& s : snap.shards) trees += 2 * s->pair_pivots.size() + 3 * s->loc_pivots.size();
  return trees / snap.shards.size();
}

/// Row `i` of the column-major `data`, as Append takes it.
void GatherRow(const ts::DataMatrix& data, std::size_t i, std::vector<double>* row) {
  row->resize(data.n());
  for (std::size_t j = 0; j < data.n(); ++j) {
    (*row)[j] = data.ColumnData(static_cast<ts::SeriesId>(j))[i];
  }
}

/// Set-up, timed into `f`: Create, the first window of rows (gathered
/// beforehand), the first publish. Null when it failed (reported).
std::unique_ptr<shard::ShardedAffinity> SetUp(const ts::DataMatrix& data,
                                              const shard::ShardedOptions& options,
                                              StreamFigures* f, Report* report) {
  std::vector<std::vector<double>> rows(options.streaming.window);
  for (std::size_t i = 0; i < rows.size(); ++i) GatherRow(data, i, &rows[i]);
  const double begin = NowSeconds();
  auto created = shard::ShardedAffinity::Create(data.names(), options);
  report->Count(created.ok(), "ShardedAffinity::Create: " + created.status().ToString());
  if (!created.ok()) {
    report->Wrong("service not created");
    return nullptr;
  }
  auto service = std::make_unique<shard::ShardedAffinity>(std::move(*created));
  for (std::size_t i = 0; i < rows.size() && !service->ready(); ++i) {
    report->Count(service->Append(rows[i]).ok(), "set-up Append");
  }
  f->setup_s.push_back(NowSeconds() - begin);
  if (!service->ready()) {
    report->Wrong("service never became ready");
    return nullptr;
  }
  core::BuildProfile sum;  // shards build side by side; their work adds up
  for (std::size_t s = 0; s < service->shard_count(); ++s) {
    const core::BuildProfile& p = service->shard(s).framework()->profile();
    sum.total_seconds += p.total_seconds;
    sum.afclst_seconds += p.afclst_seconds;
    sum.symex_seconds += p.symex_seconds;
    sum.preprocess_seconds += p.preprocess_seconds;
    sum.scape_seconds += p.scape_seconds;
    sum.dft_seconds += p.dft_seconds;
  }
  f->phases.Add(sum);
  return service;
}

/// Manifest round trip, timed into `f`: Save, then Load (restore_s).
/// Null when it failed (reported).
std::unique_ptr<shard::ShardedAffinity> RoundTrip(const shard::ShardedAffinity& service,
                                                  const std::string& path, std::size_t threads,
                                                  StreamFigures* f, Report* report) {
  const double write_begin = NowSeconds();
  const Status saved = service.Save(path);
  f->checkpoint_write_s.push_back(NowSeconds() - write_begin);
  report->Count(saved.ok(), "ShardedAffinity::Save: " + saved.ToString());
  std::unique_ptr<shard::ShardedAffinity> loaded;
  if (saved.ok()) {
    const double begin = NowSeconds();
    auto back = shard::ShardedAffinity::Load(path, threads);
    const double end = NowSeconds();
    report->Count(back.ok(), "ShardedAffinity::Load: " + back.status().ToString());
    if (back.ok()) {
      f->checkpoint_read_s.push_back(end - begin);
      f->restore_s.push_back(end - begin);
      loaded = std::make_unique<shard::ShardedAffinity>(std::move(*back));
    }
  }
  std::remove(path.c_str());
  if (loaded == nullptr) report->Wrong("manifest did not load");
  return loaded;
}

}  // namespace

void RunShardFanout(const RunConfig& config, Report* report) {
  const std::size_t n = config.tiny ? 48 : 512;
  const std::size_t window = config.tiny ? 64 : 512;
  const std::size_t interval = config.tiny ? 4 : 16;
  const double rate = config.tiny ? 1000.0 : kRowsPerSecond;
  const double open_seconds = 0.85 * config.seconds;
  const double flat_seconds = config.seconds - open_seconds;
  const auto open_rows = static_cast<std::size_t>(rate * open_seconds);
  const auto flat_cap = static_cast<std::size_t>((config.tiny ? 20000.0 : kFlatCap) * flat_seconds);
  // Writer + reader + pool workers = the CPUs available (at least 2); the
  // engine runs sequentially (no pool) below 4.
  const std::size_t readers = 1;
  const std::size_t workers = config.threads >= 4 ? config.threads - 2 : 0;

  ts::DatasetSpec spec;
  spec.num_series = n;
  spec.num_samples = window + open_rows + flat_cap;
  spec.num_clusters = config.tiny ? 4 : 10;
  spec.noise_level = 0.015;
  spec.seed = config.seed;
  const ts::Dataset dataset = ts::MakeStockData(spec);
  const ts::DataMatrix& data = dataset.matrix;
  StreamFigures f;
  f.inputs_mb = SettledRssMb();

  shard::ShardedOptions options;
  options.shards = 4;
  options.partition = shard::PartitionScheme::kRange;
  options.streaming.window = window;
  options.streaming.rebuild_interval = interval;
  options.streaming.mode = core::UpdateMode::kIncremental;
  options.streaming.build.threads = std::max<std::size_t>(1, workers);  // 1 = no pool
  report->Context("n", static_cast<double>(n));
  report->Context("shards", static_cast<double>(options.shards));
  report->Context("window", static_cast<double>(window));
  report->Context("rebuild_interval", static_cast<double>(interval));
  report->Context("rows_per_s", rate);
  report->Context("readers", static_cast<double>(readers));
  report->Context("pool_threads", static_cast<double>(workers));
  report->Context("setup_rounds", static_cast<double>(config.tiny ? 2 : kSetupRounds));

  // Set-up rounds on datasets of their own, each with a manifest round
  // trip, split around the run (kSetupRounds); one round sets up the
  // service that serves the run, whose round trip comes at the end.
  const std::string path = config.out_dir + "/shard-checkpoint-" + std::to_string(config.seed);
  const std::size_t rounds = config.tiny ? 2 : kSetupRounds;
  const auto set_up_rounds = [&](std::size_t from, std::size_t to) {
    for (std::size_t r = from; r < to; ++r) {
      ts::DatasetSpec round_spec = spec;
      round_spec.num_samples = window;
      round_spec.seed = RoundSeed(config.seed, r);
      const auto round = SetUp(ts::MakeStockData(round_spec).matrix, options, &f, report);
      if (round == nullptr ||
          RoundTrip(*round, path, options.streaming.build.threads, &f, report) == nullptr) {
        return false;
      }
    }
    return true;
  };
  if (!set_up_rounds(0, (rounds - 1) / 2)) return;
  auto service = SetUp(data, options, &f, report);
  if (service == nullptr) return;
  std::size_t next_row = window;

  la::Matrix head(window, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < window; ++i) head(i, j) = data.ColumnData(static_cast<ts::SeriesId>(j))[i];
  }
  const std::vector<Query> mix = MakeQueryMix(ts::DataMatrix(std::move(head)), config.seed);
  CheckEpoch(*service, mix, config.seed, "first epoch", report);

  const shard::ShardedAffinity& serving = *service;
  ReaderPool reading(
      mix, readers,
      [&](const Query& q, double* acquire_us) {
        std::shared_ptr<const shard::RouterSnapshot> snap;
        {
          ScopedSpan span("shard.acquire");
          const std::int64_t begin = NowNs();
          snap = serving.serving();
          *acquire_us = static_cast<double>(NowNs() - begin) * 1e-3;
        }
        ScopedSpan span(kRouterSpans[static_cast<int>(q.kind)]);
        return Execute(RouterApi{snap.get()}, q, core::QueryMethod::kAuto);
      },
      std::min(0.5, 0.05 * config.seconds));

  // Open loop: row i is due at start + i / rate whatever the service did.
  f.before = service->maintenance();
  std::vector<double> append_us, skew;
  std::vector<double> row;
  const double start = NowSeconds();
  reading.Measure();
  for (std::size_t i = 0; i < open_rows && next_row < data.m(); ++i, ++next_row) {
    const double due = DueTime(start, rate, i);
    SleepUntil(due);
    const double issued = NowSeconds();
    if (config.trace) ToggleTracing(issued);
    f.lag_ms.push_back(Lag(due, issued) * 1e3);
    f.visibility.Pending(due);
    GatherRow(data, next_row, &row);
    ScopedSpan span("shard.append", next_row + 1);
    const std::int64_t begin = NowNs();
    const core::AppendResult result = service->Append(row);
    const std::int64_t end = NowNs();
    report->Count(result.ok(), "Append: " + result.status.ToString());
    if (!result.refreshed) {
      append_us.push_back(static_cast<double>(end - begin) * 1e-3);
      continue;
    }
    span.Rename("shard.refresh");
    f.visibility.Published(static_cast<double>(end) * 1e-9);
    f.refreshes.Record(static_cast<double>(end - begin) * 1e-6, service->maintenance());
    double lo = 0, hi = 0;
    for (std::size_t s = 0; s < service->shard_count(); ++s) {
      const double t = service->shard(s).maintenance().last_refresh_seconds;
      lo = s == 0 ? t : std::min(lo, t);
      hi = std::max(hi, t);
    }
    if (lo > 0) skew.push_back(hi / lo);
  }
  const double open_measured = NowSeconds() - start;
  reading.Pause();
  Tracer::Get().SetEnabled(false);

  const auto epoch = service->serving();
  f.wa_rmse_pct = WaRmsePct(RouterApi{epoch.get()},
                            MakeMecSample(n, config.seed, config.tiny ? 20 : 100), report);
  f.trees_per_epoch = TreesPerShardEpoch(*epoch);
  CheckEpoch(*service, mix, config.seed, "after open loop", report);

  // Flat out: the rest of the rows as fast as the service absorbs them.
  f.flat = FlatOut(flat_seconds, 8 * interval, [&]() -> std::optional<std::size_t> {
    if (next_row >= data.m()) return std::nullopt;
    GatherRow(data, next_row++, &row);
    report->Count(service->Append(row).ok(), "flat-out Append");
    return 1;
  });
  report->Add(Group::kDetail, "feed.exhausted", next_row >= data.m() ? 1.0 : 0.0, "count");
  reading.Stop();
  f.after = service->maintenance();
  CheckEpoch(*service, mix, config.seed, "after flat out", report);
  const ReaderSummary summary = Summarize(reading.logs(), mix.size(), open_measured, readers);

  // The last round trip, after the heap the readers churned is handed
  // back (so peak_rss_mb counts the two services, not the churn). Load
  // re-freezes each shard's maintainer with an exact refit: values may
  // move by round-off (sharded.h), result sets must not.
  ReleaseFreedHeap();
  auto loaded = RoundTrip(*service, path, options.streaming.build.threads, &f, report);
  if (loaded == nullptr) return;
  {
    const auto original = service->serving();
    const auto back = loaded->serving();
    for (const Query& q : mix) {
      if (q.id > 8) continue;
      report->Check("loaded service, query " + std::to_string(q.id),
                    Compare(Execute(RouterApi{original.get()}, q, core::QueryMethod::kAuto),
                            Execute(RouterApi{back.get()}, q, core::QueryMethod::kAuto),
                            Agreement::kRoundOff));
    }
  }
  loaded.reset();
  service.reset();
  ReleaseFreedHeap();  // as above: the later rounds are measured against what is held
  if (!set_up_rounds((rounds - 1) / 2, rounds - 1)) return;

  AddStreamMetrics(report, f, summary, "shard.router", "shard");
  AddIngestMetrics(report, {});
  AddPercentiles(report, Group::kDetail, "shard.append_us", append_us, "us");
  report->Add(Group::kDetail, "shard.refresh_skew", Median(skew), "ratio");
  report->Add(Group::kDetail, "shard.acquire_us.p50", Median(summary.acquire_us), "us");
  report->Add(Group::kDetail, "shard.save_s", Median(f.checkpoint_write_s), "s");
  report->Add(Group::kDetail, "shard.load_s", Median(f.restore_s), "s");
}

}  // namespace affinity::perfbench

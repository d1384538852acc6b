// stream-dirty: a ragged timestamped feed at a fixed rate through
// StreamAligner → StreamingAffinity::AppendMasked (n=128, window 1024,
// interval 1, incremental), while closed-loop readers query the published
// epochs through serve::Snapshot*. Every row refreshes and publishes, so
// ingest, incremental maintenance and publication dominate; the readers
// show whether that work hurts serving.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench_math.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/serialize.h"
#include "core/streaming.h"
#include "ts/generators.h"
#include "workloads.h"

namespace affinity::perfbench {

namespace {

/// Open-loop feed rate, rows per second: about half of the 80–140 rows/s
/// the engine absorbed flat out, readers running, on a 4-core x86 VM
/// whose speed varied with its neighbours' load — headroom enough that
/// a slow spell does not tip the open loop into a growing backlog.
constexpr double kRowsPerSecond = 40.0;
/// Rows per second the flat-out phase's feed is sized for: above the
/// measured capacity, so the feed outlasts the phase.
constexpr double kFlatCap = 300.0;
/// Ticks the aligner's watermark trails the newest tick: samples up to
/// this late are reordered into their row, later ones are dropped.
constexpr double kLatenessTicks = 3.0;

const char* const kServeSpans[kNumKinds] = {"serve.met", "serve.mer", "serve.mec", "serve.topk"};

/// One timestamped sample as it reaches the aligner.
struct Sample {
  double arrival = 0.0;  ///< tick at which the generator hands it over
  double time = 0.0;     ///< its timestamp (snaps to the nearest slot)
  ts::SeriesId series = 0;
  double value = 0.0;
};

/// The dirty feed made from a clean matrix: ~5% of cells missing, every
/// timestamp jittered by up to ±0.3 ticks, ~5% of samples delivered up to
/// 2 ticks out of order, ~0.2% NaN and ~0.1% arriving after the watermark
/// passed their slot.
struct DirtyFeed {
  std::vector<Sample> samples;  ///< sorted by arrival
  std::vector<double> newest;   ///< per slot: arrival of its last in-time sample

  DirtyFeed(const ts::DataMatrix& data, std::uint64_t seed) {
    Xoshiro256 rng(seed * 0x94d049bb133111ebULL + 5);
    newest.assign(data.m(), -1.0);
    for (std::size_t s = 0; s < data.m(); ++s) {
      for (ts::SeriesId j = 0; j < data.n(); ++j) {
        if (rng.NextDouble() < 0.05) continue;
        Sample sample;
        sample.series = j;
        sample.value = rng.NextDouble() < 0.002 ? std::nan("") : data.matrix()(s, j);
        sample.time = static_cast<double>(s) + rng.Uniform(-0.3, 0.3);
        const double u = rng.NextDouble();
        if (u < 0.001) {
          sample.arrival = static_cast<double>(s) + kLatenessTicks + rng.Uniform(1.0, 3.0);
        } else {
          sample.arrival = sample.time + (u < 0.051 ? rng.Uniform(0.0, 2.0) : 0.0);
          newest[s] = std::max(newest[s], sample.arrival);
        }
        samples.push_back(sample);
      }
    }
    std::stable_sort(samples.begin(), samples.end(),
                     [](const Sample& a, const Sample& b) { return a.arrival < b.arrival; });
  }
};

/// Drives one aligner + stream pair through the feed, one tick at a time.
struct Feeder {
  const DirtyFeed& feed;
  ts::StreamAligner aligner;
  std::size_t next_sample = 0;
  std::int64_t tick = 0;
  std::vector<ts::AlignedRow> rows;

  Feeder(const DirtyFeed& f, std::size_t n) : feed(f), aligner(n, ts::IngestOptions{}) {}

  bool exhausted() const {
    return next_sample >= feed.samples.size() &&
           tick > static_cast<std::int64_t>(feed.newest.size()) + 8;
  }

  /// Hands over every sample arriving before the end of this tick and
  /// emits the rows the watermark releases.
  void Align() {
    rows.clear();
    const double end = static_cast<double>(tick + 1);
    while (next_sample < feed.samples.size() && feed.samples[next_sample].arrival < end) {
      const Sample& s = feed.samples[next_sample++];
      (void)aligner.Push(s.series, s.time, s.value);
    }
    aligner.EmitUpTo(end - kLatenessTicks, &rows);
    ++tick;
  }
};

/// Snapshot ≡ live engine ≡ cold rebuild of the published epoch.
void CheckEpoch(const core::StreamingAffinity& stream, const std::vector<Query>& mix,
                const std::string& when, Report* report) {
  const auto snap = stream.serving();
  const auto cold = stream.BuildColdSnapshot();
  if (snap == nullptr || cold == nullptr) {
    report->Wrong(when + ": no published epoch");
    return;
  }
  const SnapshotApi served{snap.get()};
  const SnapshotApi rebuilt{cold.get()};
  const EngineApi live{&stream.framework()->engine()};
  for (const Query& q : mix) {
    if (q.id > 16) continue;
    const Answer a = Execute(served, q, core::QueryMethod::kAuto);
    report->Count(a.ok(), when + " snapshot query: " + a.status.ToString());
    const std::string at = ", query " + std::to_string(q.id);
    report->Check(when + " snapshot vs live" + at,
                  Compare(a, Execute(live, q, core::QueryMethod::kAuto), Agreement::kBitwise));
    report->Check(when + " epoch vs cold build" + at,
                  Compare(a, Execute(rebuilt, q, core::QueryMethod::kAuto), Agreement::kBitwise));
  }
}

std::size_t TreesPerEpoch(const serve::ServingSnapshot& snap) {
  return 2 * snap.pair_pivots.size() + 3 * snap.loc_pivots.size();
}

/// Set-up, timed into `f`: Create, feed the first window through the
/// feeder's aligner, first publish. Null when it failed (reported).
std::unique_ptr<core::StreamingAffinity> SetUp(const ts::DataMatrix& data,
                                               const core::StreamingOptions& options,
                                               const ExecContext& exec, Feeder* feeder,
                                               StreamFigures* f, Report* report) {
  const double begin = NowSeconds();
  auto created = core::StreamingAffinity::CreateWith(data.names(), options, exec);
  report->Count(created.ok(), "CreateWith: " + created.status().ToString());
  if (!created.ok()) {
    report->Wrong("stream not created");
    return nullptr;
  }
  auto stream = std::make_unique<core::StreamingAffinity>(std::move(*created));
  while (!stream->ready() && !feeder->exhausted()) {
    feeder->Align();
    for (const ts::AlignedRow& row : feeder->rows) {
      report->Count(stream->AppendMasked(row).ok(), "set-up append");
    }
  }
  f->setup_s.push_back(NowSeconds() - begin);
  if (!stream->ready()) {
    report->Wrong("stream never became ready");
    return nullptr;
  }
  f->phases.Add(stream->framework()->profile());
  return stream;
}

/// Checkpoint round trip, timed into `f`: WriteModelStream, then
/// ReadModelStream + Restore (restore_s). Null when it failed (reported).
std::unique_ptr<core::StreamingAffinity> RoundTrip(const core::StreamingAffinity& stream,
                                                   const core::StreamingOptions& options,
                                                   const ExecContext& exec, StreamFigures* f,
                                                   Report* report) {
  std::stringstream checkpoint;
  const double write_begin = NowSeconds();
  const Status written = core::WriteModelStream(stream.framework()->model(), checkpoint);
  f->checkpoint_write_s.push_back(NowSeconds() - write_begin);
  report->Count(written.ok(), "WriteModelStream: " + written.ToString());
  const double begin = NowSeconds();
  auto model = core::ReadModelStream(checkpoint);
  const double read_end = NowSeconds();
  report->Count(model.ok(), "ReadModelStream");
  if (model.ok()) {
    auto back = core::StreamingAffinity::Restore(std::move(*model), options, exec);
    const double end = NowSeconds();
    report->Count(back.ok(), "StreamingAffinity::Restore: " + back.status().ToString());
    if (back.ok()) {
      f->checkpoint_read_s.push_back(read_end - begin);
      f->restore_s.push_back(end - begin);
      return std::make_unique<core::StreamingAffinity>(std::move(*back));
    }
  }
  report->Wrong("checkpoint did not restore");
  return nullptr;
}

}  // namespace

void RunStreamDirty(const RunConfig& config, Report* report) {
  const std::size_t n = config.tiny ? 24 : 128;
  const std::size_t window = config.tiny ? 128 : 1024;
  const double rate = config.tiny ? 400.0 : kRowsPerSecond;
  const double open_seconds = 0.85 * config.seconds;
  const double flat_seconds = config.seconds - open_seconds;
  const auto open_rows = static_cast<std::size_t>(rate * open_seconds);
  const auto flat_cap = static_cast<std::size_t>((config.tiny ? 5000.0 : kFlatCap) * flat_seconds);
  // Writer + readers + pool workers = the CPUs available (at least 2).
  const std::size_t readers = config.threads >= 4 ? 2 : 1;
  const std::size_t workers = config.threads - 1 - readers;

  ts::DatasetSpec spec;
  spec.num_series = n;
  spec.num_samples = window + open_rows + flat_cap + 16;
  spec.num_clusters = config.tiny ? 4 : 8;
  spec.noise_level = 0.015;
  spec.seed = config.seed;
  const ts::Dataset dataset = ts::MakeStockData(spec);
  const DirtyFeed feed(dataset.matrix, config.seed);
  StreamFigures f;
  f.inputs_mb = SettledRssMb();

  core::StreamingOptions options;
  options.window = window;
  options.rebuild_interval = 1;
  options.mode = core::UpdateMode::kIncremental;
  std::unique_ptr<ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
  const ExecContext exec{pool.get()};
  report->Context("n", static_cast<double>(n));
  report->Context("window", static_cast<double>(window));
  report->Context("rebuild_interval", 1.0);
  report->Context("rows_per_s", rate);
  report->Context("lateness_ticks", kLatenessTicks);
  report->Context("readers", static_cast<double>(readers));
  report->Context("pool_threads", static_cast<double>(workers));
  report->Context("setup_rounds", static_cast<double>(config.tiny ? 2 : kSetupRounds));

  // Set-up rounds on datasets of their own, each with a checkpoint round
  // trip, split around the run (kSetupRounds); one round sets up the
  // instance that serves the run, whose round trip comes at the end.
  const std::size_t rounds = config.tiny ? 2 : kSetupRounds;
  const auto set_up_rounds = [&](std::size_t from, std::size_t to) {
    for (std::size_t r = from; r < to; ++r) {
      ts::DatasetSpec round_spec = spec;
      round_spec.num_samples = window + 16;
      round_spec.seed = RoundSeed(config.seed, r);
      const ts::Dataset data = ts::MakeStockData(round_spec);
      const DirtyFeed round_feed(data.matrix, round_spec.seed);
      Feeder feeder(round_feed, n);
      const auto stream = SetUp(data.matrix, options, exec, &feeder, &f, report);
      if (stream == nullptr || RoundTrip(*stream, options, exec, &f, report) == nullptr) {
        return false;
      }
    }
    return true;
  };
  if (!set_up_rounds(0, (rounds - 1) / 2)) return;
  Feeder feeder(feed, n);
  auto stream = SetUp(dataset.matrix, options, exec, &feeder, &f, report);
  if (stream == nullptr) return;

  la::Matrix head(window, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < window; ++i) head(i, j) = dataset.matrix.matrix()(i, j);
  }
  const ts::DataMatrix first_window(std::move(head));
  const std::vector<Query> mix = MakeQueryMix(first_window, config.seed);
  CheckEpoch(*stream, mix, "first epoch", report);

  const core::StreamingAffinity& serving = *stream;
  ReaderPool reading(
      mix, readers,
      [&](const Query& q, double* acquire_us) {
        std::shared_ptr<const serve::ServingSnapshot> snap;
        {
          ScopedSpan span("serve.acquire");
          const std::int64_t begin = NowNs();
          snap = serving.serving();
          *acquire_us = static_cast<double>(NowNs() - begin) * 1e-3;
        }
        ScopedSpan span(kServeSpans[static_cast<int>(q.kind)]);
        return Execute(SnapshotApi{snap.get()}, q, core::QueryMethod::kAuto);
      },
      std::min(0.5, 0.05 * config.seconds));

  // Open loop: tick k is due at start + k / rate whatever the engine did.
  f.before = stream->maintenance();
  std::vector<double> align_us;
  const std::int64_t first_tick = feeder.tick;
  const double start = NowSeconds();
  reading.Measure();
  for (std::size_t i = 0; i < open_rows && !feeder.exhausted(); ++i) {
    const double due = DueTime(start, rate, i);
    SleepUntil(due);
    const double issued = NowSeconds();
    if (config.trace) ToggleTracing(issued);
    f.lag_ms.push_back(Lag(due, issued) * 1e3);
    ScopedSpan tick_span("feed.tick", static_cast<std::uint64_t>(feeder.tick) + 1);
    {
      ScopedSpan span("ts.align");
      const std::int64_t begin = NowNs();
      feeder.Align();
      align_us.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
    }
    for (const ts::AlignedRow& row : feeder.rows) {
      // The row's newest sample went out with tick floor(arrival); rows
      // whose samples all went out before the open loop are not timed.
      const auto newest_tick = static_cast<std::int64_t>(
          std::floor(feed.newest[static_cast<std::size_t>(row.slot)]));
      if (newest_tick >= first_tick) {
        const auto ticks_in = static_cast<std::size_t>(newest_tick - first_tick);
        f.visibility.Pending(DueTime(start, rate, ticks_in));
      }
      ScopedSpan span("core.append", static_cast<std::uint64_t>(row.slot) + 1);
      const std::int64_t begin = NowNs();
      const core::AppendResult result = stream->AppendMasked(row);
      const std::int64_t end = NowNs();
      report->Count(result.ok(), "AppendMasked: " + result.status.ToString());
      if (!result.refreshed) continue;
      span.Rename("core.refresh");
      f.visibility.Published(static_cast<double>(end) * 1e-9);
      f.refreshes.Record(static_cast<double>(end - begin) * 1e-6, stream->maintenance());
    }
  }
  const double open_measured = NowSeconds() - start;
  reading.Pause();
  Tracer::Get().SetEnabled(false);
  const ts::IngestStats ingest = feeder.aligner.stats();

  // The epoch after a fixed number of rows is the same for every run of a
  // seed: measure accuracy and check it here.
  const auto epoch = stream->serving();
  f.wa_rmse_pct = WaRmsePct(SnapshotApi{epoch.get()},
                            MakeMecSample(n, config.seed, config.tiny ? 20 : 100), report);
  f.trees_per_epoch = TreesPerEpoch(*epoch);
  CheckEpoch(*stream, mix, "after open loop", report);

  // Flat out: the same feed as fast as the engine absorbs it, readers on.
  f.flat = FlatOut(flat_seconds, 32, [&]() -> std::optional<std::size_t> {
    if (feeder.exhausted()) return std::nullopt;
    feeder.Align();
    for (const ts::AlignedRow& row : feeder.rows) {
      report->Count(stream->AppendMasked(row).ok(), "flat-out AppendMasked");
    }
    return feeder.rows.size();
  });
  report->Add(Group::kDetail, "feed.exhausted", feeder.exhausted() ? 1.0 : 0.0, "count");
  reading.Stop();
  f.after = stream->maintenance();
  CheckEpoch(*stream, mix, "after flat out", report);
  const ReaderSummary summary = Summarize(reading.logs(), mix.size(), open_measured, readers);

  // The last round trip, after the heap the readers churned is handed
  // back (so peak_rss_mb counts the two instances, not the churn).
  // Restore re-freezes the maintainer with an exact refit, so the
  // restored epoch may differ from the delta-maintained one by round-off;
  // result sets must still match.
  ReleaseFreedHeap();
  auto restored = RoundTrip(*stream, options, exec, &f, report);
  if (restored == nullptr) return;
  {
    const auto original = stream->serving();
    const auto back = restored->serving();
    for (const Query& q : mix) {
      if (q.id > 12) continue;
      report->Check("restored stream, query " + std::to_string(q.id),
                    Compare(Execute(SnapshotApi{original.get()}, q, core::QueryMethod::kAuto),
                            Execute(SnapshotApi{back.get()}, q, core::QueryMethod::kAuto),
                            Agreement::kRoundOff));
    }
  }
  restored.reset();
  stream.reset();
  ReleaseFreedHeap();  // as above: the later rounds are measured against what is held
  if (!set_up_rounds((rounds - 1) / 2, rounds - 1)) return;

  AddStreamMetrics(report, f, summary, "serve", "core");
  AddIngestMetrics(report, ingest);
  AddPercentiles(report, Group::kDetail, "ts.align_us", align_us, "us");
  report->Add(Group::kDetail, "serve.acquire_us.p50", Median(summary.acquire_us), "us");
}

}  // namespace affinity::perfbench

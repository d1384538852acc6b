#ifndef AFFINITY_PERFBENCH_HARNESS_H_
#define AFFINITY_PERFBENCH_HARNESS_H_

/// \file harness.h
/// What the three workloads share: run configuration, the metric report,
/// closed-loop readers, append-to-visible bookkeeping, and the span
/// summary of a traced run.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "queries.h"
#include "trace.h"

namespace affinity::perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the benchmark's own tests: same code paths, seconds
  /// instead of minutes.
  bool tiny = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  /// CPUs this process may run on: the writer, the engine pool and the
  /// readers together keep no more threads than this busy.
  std::size_t threads = 1;
};

/// Which printed set a metric belongs to.
enum class Group {
  kEndToEnd,  ///< BENCHMARK.json end_to_end: the untraced run's result
  kLayer,     ///< BENCHMARK.json per_layer: the traced run's result
  kDetail,    ///< layer detail of this workload: printed and written only
};

/// Metrics, correctness accounting and context of one run.
class Report {
 public:
  explicit Report(const RunConfig& config);

  void Add(Group group, const std::string& name, double value, const std::string& unit);
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);

  /// Counts one operation; a failed one also records why (first few).
  void Count(bool ok, const std::string& what = "");
  /// Counts `attempted` operations of which `failed` failed.
  void CountMany(std::size_t attempted, std::size_t failed, const std::string& what = "");

  /// Counts one correctness check; `diff` describes the mismatch, empty
  /// when the answers agreed.
  void Check(const std::string& what, const std::string& diff) {
    if (diff.empty()) {
      ++attempted_;
    } else {
      Wrong(what + ": " + diff);
    }
  }
  /// Counts one failed correctness check: the run's answers are wrong.
  void Wrong(const std::string& what);
  /// Records a caveat about a figure (printed and written, no failure).
  void Note(const std::string& what) { notes_.push_back(what); }
  bool correct() const { return wrong_ == 0; }

  /// Prints the human-readable report, writes the layer file, and prints
  /// the result line last. Returns the process exit code.
  int Finish();

 private:
  struct Metric {
    Group group;
    std::string name;
    double value;
    std::string unit;
  };
  const RunConfig& config_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t wrong_ = 0;
  std::vector<std::string> problems_;
  std::vector<std::string> notes_;
};

/// Measurement phases shared by the writer and the readers.
enum Phase : int { kWarm = 0, kMeasure = 1, kPause = 2, kStop = 3 };

/// One closed-loop reader's log.
struct ReaderLog {
  std::array<std::vector<double>, kNumKinds> latency_us;  ///< measured phase only
  std::vector<double> acquire_us;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::string first_error;
  core::PruneStats prune;
  /// Per query id: latency sums with tracing on / off (tracing overhead).
  std::vector<double> traced_us, untraced_us;
  std::vector<std::uint32_t> traced_n, untraced_n;
  /// Per query id: the plan the last answer ran (kAuto's choice).
  std::vector<int> plan;
  /// Queries per second of each full pass over the mix that ran wholly
  /// inside the measured phase.
  std::vector<double> pass_qps;
};

/// Runs one query; sets `*acquire_us` when the surface has an acquire
/// step (epoch pinning), else leaves it negative.
using RunQueryFn = std::function<Answer(const Query&, double* acquire_us)>;

/// A closed-loop reader: issues the mix in order starting at `offset`,
/// the next query only after the previous answered, until kStop.
/// Latencies are kept for queries started in the kMeasure phase.
void ReaderLoop(const std::vector<Query>& mix, std::size_t offset,
                const std::atomic<int>& phase, const RunQueryFn& run, ReaderLog* log);

/// Closed-loop readers on threads of their own, started in the warm-up
/// phase: Measure() opens the measured phase, Pause() closes it (readers
/// keep querying, unlogged), Stop() joins them.
class ReaderPool {
 public:
  ReaderPool(const std::vector<Query>& mix, std::size_t readers, RunQueryFn run,
             double warm_seconds);
  ~ReaderPool() { Stop(); }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  void Measure() { phase_.store(kMeasure, std::memory_order_release); }
  void Pause() { phase_.store(kPause, std::memory_order_release); }
  void Stop();
  /// The readers' logs; read them after Stop().
  std::vector<ReaderLog>& logs() { return logs_; }

 private:
  RunQueryFn run_;
  std::atomic<int> phase_{kWarm};
  std::vector<ReaderLog> logs_;
  std::vector<std::thread> threads_;
};

/// Readers' logs folded: end-to-end query metrics, per-kind layer
/// metrics named `<layer>.<kind>_us.p50/.p99`, plan counts and the
/// verified ratio.
struct ReaderSummary {
  std::size_t queries = 0;
  std::size_t failed = 0;
  std::vector<double> all_us;
  std::array<std::vector<double>, kNumKinds> kind_us;
  std::vector<double> acquire_us;
  core::PruneStats prune;
  std::array<std::size_t, 5> plans{};  ///< indexed by core::QueryMethod
  /// Each query of the mix by its mean latency over the measured phase
  /// (all readers), the median over the mix: query_p50_us. A query's
  /// repeats are averaged before the median is taken, so a slow stretch
  /// of the host moves it as it moves queries_per_s, not as it moves the
  /// low quantile of the expensive queries where the pooled median sits.
  double mix_p50_us = 0.0;
  /// Completed queries per second: all queries of the full passes over
  /// the mix over those passes' time, times the readers running at once;
  /// all queries over the measured time when no pass completed.
  double queries_per_s = 0.0;
  double overhead_pct = 0.0;
  std::string first_error;
};
ReaderSummary Summarize(const std::vector<ReaderLog>& logs, std::size_t mix_size,
                        double measured_seconds, std::size_t concurrent_readers);

/// Adds the reader metrics: query_* end to end, `query.*` per layer, and
/// the workload-named detail (`layer` is e.g. "serve" or "core.query").
void AddReaderMetrics(Report* report, const ReaderSummary& summary, const std::string& layer);

/// Append-to-visible bookkeeping: rows wait here from the time they were
/// due until an append returns that published an epoch containing them.
class Visibility {
 public:
  void Pending(double due) { pending_.push_back(due); }
  /// An append just published everything pending; `now` is its return.
  void Published(double now) {
    for (double due : pending_) visible_ms_.push_back((now - due) * 1e3);
    pending_.clear();
  }
  const std::vector<double>& visible_ms() const { return visible_ms_; }

 private:
  std::vector<double> pending_;
  std::vector<double> visible_ms_;
};

/// Flat-out throughput: the median rate over consecutive chunks of
/// `chunk` items, robust to a stall or a noisy neighbour during part of
/// the phase. Falls back to items over elapsed time when no chunk closed.
class ChunkedRate {
 public:
  ChunkedRate(std::size_t chunk, double start) : chunk_(chunk), start_(start), begin_(start) {}
  /// `items` more completed at `now`.
  void Add(std::size_t items, double now) {
    total_ += items;
    in_chunk_ += items;
    last_ = now;
    if (in_chunk_ >= chunk_) {
      rates_.push_back(static_cast<double>(in_chunk_) / (now - begin_));
      in_chunk_ = 0;
      begin_ = now;
    }
  }
  std::size_t total() const { return total_; }
  double PerSecond() const;

 private:
  std::size_t chunk_;
  double start_, begin_, last_ = 0.0;
  std::size_t total_ = 0, in_chunk_ = 0;
  std::vector<double> rates_;
};

/// The flat-out phase of a stream workload: calls `step` back to back
/// for `seconds`, or until it reports the feed exhausted (nullopt);
/// each call returns the rows it absorbed. `chunk` as in ChunkedRate.
ChunkedRate FlatOut(double seconds, std::size_t chunk,
                    const std::function<std::optional<std::size_t>()>& step);

/// Sleeps until `t` seconds on the steady clock (returns at once if past).
void SleepUntil(double t);

/// Tracing on and off in alternating quarter seconds, so the traced run
/// measures its own overhead against untraced stretches of the same run.
void ToggleTracing(double now);

/// Collects the traced run's spans, prints per-name counts, duration
/// percentiles and self times (also added as `self.<name>_s` detail
/// metrics), and writes the spans to `<out_dir>/trace-*.json`.
void SummarizeSpans(const RunConfig& config, Report* report);

/// Adds the q-th percentile of `values` as `name`. A tail percentile
/// (q > 50) resting on fewer than ten samples beyond it is flagged with
/// a note, since its value is then little more than the largest sample.
void AddPercentile(Report* report, Group group, const std::string& name,
                   const std::vector<double>& values, double q, const std::string& unit);

/// Adds `<name>.p50` and `<name>.p99` of `values`.
void AddPercentiles(Report* report, Group group, const std::string& name,
                    const std::vector<double>& values, const std::string& unit);

/// Threads on this machine the process may run on.
std::size_t AvailableThreads();

/// Hands freed heap pages back to the system, so a later peak counts
/// what is held then, not what earlier phases freed in a fragmented heap.
void ReleaseFreedHeap();

/// Resident memory of this process in MB once freed heap pages went back
/// to the system (taken after the inputs are made, the base the engine's
/// memory is measured from).
double SettledRssMb();

/// Peak resident memory of this process in MB.
double PeakRssMb();

}  // namespace affinity::perfbench

#endif  // AFFINITY_PERFBENCH_HARNESS_H_

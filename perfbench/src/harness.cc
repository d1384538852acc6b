#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "bench_math.h"

namespace affinity::perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Report::Report(const RunConfig& config) : config_(config) {}

void Report::Add(Group group, const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Wrong("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({group, name, value, unit});
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, JsonString(value));
}

void Report::Context(const std::string& key, double value) {
  context_.emplace_back(key, JsonNumber(value));
}

void Report::Count(bool ok, const std::string& what) { CountMany(1, ok ? 0 : 1, what); }

void Report::CountMany(std::size_t attempted, std::size_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && problems_.size() < 20) problems_.push_back("failed: " + what);
}

void Report::Wrong(const std::string& what) {
  ++wrong_;
  ++failed_;
  ++attempted_;
  if (problems_.size() < 20) problems_.push_back("wrong: " + what);
}

int Report::Finish() {
  std::string context = "{";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    context += (i ? ", " : "") + JsonString(context_[i].first) + ": " + context_[i].second;
  }
  context += "}";
  std::printf("context %s\n", context.c_str());
  static const char* kGroupNames[] = {"end_to_end", "per_layer", "detail"};
  for (const Metric& m : metrics_) {
    std::printf("metric %-40s %16.6f %-6s (%s)\n", m.name.c_str(), m.value, m.unit.c_str(),
                kGroupNames[static_cast<int>(m.group)]);
  }
  for (const std::string& n : notes_) std::printf("note %s\n", n.c_str());
  for (const std::string& p : problems_) std::printf("problem %s\n", p.c_str());
  std::printf("ops attempted=%zu failed=%zu wrong=%zu\n", attempted_, failed_, wrong_);

  const Group wanted = config_.trace ? Group::kLayer : Group::kEndToEnd;
  std::string metrics = "{";
  std::string all = "[";
  bool first = true;
  for (const Metric& m : metrics_) {
    const std::string entry = "{\"value\": " + JsonNumber(m.value) +
                              ", \"unit\": " + JsonString(m.unit) + "}";
    all += std::string(all.size() > 1 ? ", " : "") + "{\"name\": " + JsonString(m.name) +
           ", \"group\": " + JsonString(kGroupNames[static_cast<int>(m.group)]) +
           ", \"value\": " + JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    if (m.group != wanted) continue;
    metrics += (first ? "" : ", ") + JsonString(m.name) + ": " + entry;
    first = false;
  }
  metrics += "}";
  all += "]";

  const std::string path = config_.out_dir + "/metrics-" + config_.workload + "-seed" +
                           std::to_string(config_.seed) + (config_.trace ? "-traced" : "") +
                           ".json";
  std::ofstream file(path);
  std::string notes = "[";
  for (std::size_t i = 0; i < notes_.size(); ++i) notes += (i ? ", " : "") + JsonString(notes_[i]);
  notes += "]";
  file << "{\"context\": " << context << ", \"metrics\": " << all << ", \"notes\": " << notes
       << "}\n";
  std::printf("wrote %s\n", path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct() ? "true" : "false", attempted_ < 1 ? 1 : attempted_, failed_,
              metrics.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

void ReaderLoop(const std::vector<Query>& mix, std::size_t offset,
                const std::atomic<int>& phase, const RunQueryFn& run, ReaderLog* log) {
  const std::size_t ids = mix.size() + 1;
  log->traced_us.assign(ids, 0.0);
  log->untraced_us.assign(ids, 0.0);
  log->traced_n.assign(ids, 0);
  log->untraced_n.assign(ids, 0);
  log->plan.assign(ids, -1);
  // A pass is mix.size() consecutive queries, all started in kMeasure;
  // the first one begins when the measured phase does.
  std::int64_t pass_begin = 0;
  std::size_t pass_first = 0;
  int last_phase = kWarm;
  for (std::size_t i = offset;; ++i) {
    const int at_start = phase.load(std::memory_order_acquire);
    if (at_start == kStop) break;
    if (at_start == kMeasure &&
        (last_phase != kMeasure || i - pass_first == mix.size())) {
      const std::int64_t now = NowNs();
      if (last_phase == kMeasure) {
        log->pass_qps.push_back(static_cast<double>(mix.size()) * 1e9 /
                                static_cast<double>(now - pass_begin));
      }
      pass_begin = now;
      pass_first = i;
    }
    last_phase = at_start;
    const Query& q = mix[i % mix.size()];
    const bool traced = Tracer::Get().enabled();
    double acquire_us = -1.0;
    const std::int64_t begin = NowNs();
    Answer answer;
    {
      ScopedSpan span("reader.query", q.id);
      answer = run(q, &acquire_us);
    }
    const double us = static_cast<double>(NowNs() - begin) * 1e-3;
    if (!answer.ok()) {
      ++log->failed;
      if (log->first_error.empty()) log->first_error = answer.status.ToString();
      continue;
    }
    if (at_start != kMeasure) continue;
    ++log->ok;
    log->latency_us[static_cast<int>(q.kind)].push_back(us);
    if (acquire_us >= 0) log->acquire_us.push_back(acquire_us);
    log->prune += answer.prune;
    log->plan[q.id] = static_cast<int>(answer.plan);
    if (traced) {
      log->traced_us[q.id] += us;
      ++log->traced_n[q.id];
    } else {
      log->untraced_us[q.id] += us;
      ++log->untraced_n[q.id];
    }
  }
}

ReaderPool::ReaderPool(const std::vector<Query>& mix, std::size_t readers, RunQueryFn run,
                       double warm_seconds)
    : run_(std::move(run)), logs_(readers) {
  for (std::size_t r = 0; r < readers; ++r) {
    threads_.emplace_back(ReaderLoop, std::cref(mix), r * mix.size() / readers,
                          std::cref(phase_), std::cref(run_), &logs_[r]);
  }
  SleepUntil(NowSeconds() + warm_seconds);
}

void ReaderPool::Stop() {
  phase_.store(kStop, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

ReaderSummary Summarize(const std::vector<ReaderLog>& logs, std::size_t mix_size,
                        double measured_seconds, std::size_t concurrent_readers) {
  ReaderSummary s;
  std::vector<int> plan(mix_size + 1, -1);
  double log_ratio_sum = 0.0;
  std::size_t ratios = 0;
  std::vector<double> query_mean_us;
  for (std::size_t id = 1; id <= mix_size; ++id) {
    double on = 0, off = 0;
    std::size_t n_on = 0, n_off = 0;
    for (const ReaderLog& log : logs) {
      on += log.traced_us[id];
      off += log.untraced_us[id];
      n_on += log.traced_n[id];
      n_off += log.untraced_n[id];
      if (log.plan[id] >= 0) plan[id] = log.plan[id];
    }
    if (n_on + n_off > 0) {
      query_mean_us.push_back((on + off) / static_cast<double>(n_on + n_off));
    }
    if (n_on > 0 && n_off > 0 && on > 0 && off > 0) {
      log_ratio_sum += std::log((on / static_cast<double>(n_on)) /
                                (off / static_cast<double>(n_off)));
      ++ratios;
    }
  }
  if (ratios > 0) {
    s.overhead_pct = (std::exp(log_ratio_sum / static_cast<double>(ratios)) - 1.0) * 100.0;
  }
  for (std::size_t id = 1; id <= mix_size; ++id) {
    if (plan[id] >= 0) ++s.plans[static_cast<std::size_t>(plan[id])];
  }
  s.mix_p50_us = Median(query_mean_us);
  std::vector<double> pass_qps;
  for (const ReaderLog& log : logs) {
    pass_qps.insert(pass_qps.end(), log.pass_qps.begin(), log.pass_qps.end());
    s.queries += log.ok;
    s.failed += log.failed;
    if (s.first_error.empty()) s.first_error = log.first_error;
    s.prune += log.prune;
    for (int k = 0; k < kNumKinds; ++k) {
      s.kind_us[k].insert(s.kind_us[k].end(), log.latency_us[k].begin(), log.latency_us[k].end());
      s.all_us.insert(s.all_us.end(), log.latency_us[k].begin(), log.latency_us[k].end());
    }
    s.acquire_us.insert(s.acquire_us.end(), log.acquire_us.begin(), log.acquire_us.end());
  }
  // The full passes' queries over their time: every pass runs the same
  // number of queries, so this is the harmonic mean of the pass rates.
  double inverse_rates = 0.0;
  for (double qps : pass_qps) inverse_rates += 1.0 / qps;
  s.queries_per_s =
      pass_qps.empty()
          ? static_cast<double>(s.queries) / measured_seconds
          : static_cast<double>(concurrent_readers * pass_qps.size()) / inverse_rates;
  return s;
}

void AddPercentile(Report* report, Group group, const std::string& name,
                   const std::vector<double>& values, double q, const std::string& unit) {
  report->Add(group, name, Percentile(values, q), unit);
  const std::size_t beyond = SamplesBeyond(values, q);
  if (q > 50 && !values.empty() && beyond < 10) {
    report->Note("thin tail: " + name + " rests on " + std::to_string(beyond) +
                 " samples beyond it (of " + std::to_string(values.size()) + ")");
  }
}

void AddPercentiles(Report* report, Group group, const std::string& name,
                    const std::vector<double>& values, const std::string& unit) {
  AddPercentile(report, group, name + ".p50", values, 50, unit);
  AddPercentile(report, group, name + ".p99", values, 99, unit);
}

void AddReaderMetrics(Report* report, const ReaderSummary& s, const std::string& layer) {
  report->CountMany(s.queries + s.failed, s.failed, "query: " + s.first_error);
  report->Add(Group::kEndToEnd, "query_p50_us", s.mix_p50_us, "us");
  AddPercentile(report, Group::kEndToEnd, "query_p99_us", s.all_us, 99, "us");
  report->Add(Group::kEndToEnd, "queries_per_s", s.queries_per_s, "1/s");
  report->Add(Group::kDetail, "query.samples", static_cast<double>(s.all_us.size()), "count");
  report->Add(Group::kDetail, "query.pooled_p50_us", Percentile(s.all_us, 50), "us");
  report->Add(Group::kDetail, "query.samples_beyond_p99",
              static_cast<double>(SamplesBeyond(s.all_us, 99)), "count");
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string kind = KindName(static_cast<Kind>(k));
    AddPercentiles(report, Group::kLayer, "query." + kind + "_us", s.kind_us[k], "us");
    AddPercentiles(report, Group::kDetail, layer + "." + kind + "_us", s.kind_us[k], "us");
  }
  report->Add(Group::kLayer, "core.query.plan.scape",
              static_cast<double>(s.plans[static_cast<int>(core::QueryMethod::kScape)]), "count");
  report->Add(Group::kLayer, "core.query.plan.wa",
              static_cast<double>(s.plans[static_cast<int>(core::QueryMethod::kAffine)]), "count");
  report->Add(Group::kLayer, "core.query.plan.wn",
              static_cast<double>(s.plans[static_cast<int>(core::QueryMethod::kNaive)]), "count");
  const double checked = static_cast<double>(s.prune.verified + s.prune.accepted_unverified);
  report->Add(Group::kLayer, "core.query.verified_ratio",
              checked > 0 ? static_cast<double>(s.prune.verified) / checked : 0.0, "ratio");
  report->Add(Group::kLayer, "trace.overhead_pct", s.overhead_pct, "%");
}

double ChunkedRate::PerSecond() const {
  if (!rates_.empty()) return Median(rates_);
  return last_ > start_ ? static_cast<double>(total_) / (last_ - start_) : 0.0;
}

ChunkedRate FlatOut(double seconds, std::size_t chunk,
                    const std::function<std::optional<std::size_t>()>& step) {
  const double start = NowSeconds();
  ChunkedRate rate(chunk, start);
  while (NowSeconds() - start < seconds) {
    const std::optional<std::size_t> rows = step();
    if (!rows) break;
    rate.Add(*rows, NowSeconds());
  }
  return rate;
}

void SleepUntil(double t) {
  const double wait = t - NowSeconds();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

void ToggleTracing(double now) {
  static const double start = now;
  Tracer::Get().SetEnabled(static_cast<long>((now - start) / 0.25) % 2 == 0);
}

void SummarizeSpans(const RunConfig& config, Report* report) {
  const std::vector<SpanRecord> spans = Tracer::Get().Collect();
  std::vector<std::vector<Interval>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back({s.begin_ns, s.end_ns});
    }
  }
  struct SpanStats {
    std::vector<double> duration_us;
    double self_seconds = 0.0;
  };
  std::map<std::string, SpanStats> stats;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    SpanStats& st = stats[s.name];
    st.duration_us.push_back(static_cast<double>(s.end_ns - s.begin_ns) * 1e-3);
    st.self_seconds +=
        static_cast<double>(SelfTime({s.begin_ns, s.end_ns}, children[i])) * 1e-9;
  }
  std::printf("# traced run: %zu spans; per layer: count, p50/p99 duration, self time\n",
              spans.size());
  for (const auto& [name, st] : stats) {
    std::printf("span %-28s n=%-7zu p50=%12.1fus p99=%12.1fus self=%10.4fs\n", name.c_str(),
                st.duration_us.size(), Percentile(st.duration_us, 50),
                Percentile(st.duration_us, 99), st.self_seconds);
    report->Add(Group::kDetail, "self." + name + "_s", st.self_seconds, "s");
  }
  report->Add(Group::kDetail, "trace.spans", static_cast<double>(spans.size()), "count");

  const std::string path = config.out_dir + "/trace-" + config.workload + "-seed" +
                           std::to_string(config.seed) + ".json";
  std::ofstream file(path);
  file << "{\"fields\": [\"name\", \"thread\", \"begin_us\", \"end_us\", \"parent\", "
          "\"request\"],\n\"spans\": [\n";
  const std::int64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    file << (i ? ",\n" : "") << "[\"" << s.name << "\", " << s.thread << ", "
         << (s.begin_ns - origin) / 1000 << ", " << (s.end_ns - origin) / 1000 << ", "
         << s.parent << ", " << s.request << "]";
  }
  file << "\n]}\n";
  std::printf("wrote %s\n", path.c_str());
}

std::size_t AvailableThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

void ReleaseFreedHeap() { malloc_trim(0); }

double SettledRssMb() {
  ReleaseFreedHeap();
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace affinity::perfbench

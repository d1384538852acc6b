#ifndef AFFINITY_PERFBENCH_BENCH_MATH_H_
#define AFFINITY_PERFBENCH_BENCH_MATH_H_

/// \file bench_math.h
/// The arithmetic every perfbench number rests on, kept free of engine
/// types so it can be unit-tested on its own: percentiles, the self time
/// of a span given its children, and the open-loop schedule.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace affinity::perfbench {

/// The q-th percentile (q in [0, 100]) of `values` by linear interpolation
/// between closest ranks — the same rule as numpy's default and Python's
/// `statistics.quantiles(method="inclusive")`. 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

/// Samples lying strictly above the q-th percentile — the support a tail
/// percentile rests on (a percentile is reported with at least ten).
inline std::size_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double cut = Percentile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

/// A closed time interval [begin, end] in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Self time of a span: its duration minus the part of it that the union
/// of its children covers. Children may overlap each other (work fanned
/// out to several threads) or stick out of the parent; only the covered
/// part inside the parent counts, once.
inline std::int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.begin;
  for (const Interval& c : children) {
    const std::int64_t begin = std::max(c.begin, cursor);
    const std::int64_t end = std::min(c.end, parent.end);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return (parent.end - parent.begin) - covered;
}

/// The open-loop schedule: item i of a feed running at `rate` items per
/// second from `start` (seconds on the steady clock) is due at
/// start + i / rate, whether or not the system kept up.
inline double DueTime(double start, double rate, std::size_t i) {
  return start + static_cast<double>(i) / rate;
}

/// How late the generator ran for one item: the time it actually issued
/// the item minus the time the item was due. Never negative — an item is
/// never issued before it is due.
inline double Lag(double due, double issued) { return std::max(0.0, issued - due); }

}  // namespace affinity::perfbench

#endif  // AFFINITY_PERFBENCH_BENCH_MATH_H_

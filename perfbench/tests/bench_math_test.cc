// Unit tests of the arithmetic behind perfbench's numbers.

#include "bench_math.h"

#include <gtest/gtest.h>

namespace affinity::perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 4.6);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
}

TEST(Percentile, EdgeCases) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 150), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, -5), 1.0);
}

TEST(Percentile, P99NeedsAThousandSamplesForTenBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 990.01);
  EXPECT_EQ(SamplesBeyond(v, 99), 10u);
  v.resize(500);
  EXPECT_EQ(SamplesBeyond(v, 99), 5u);
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) { EXPECT_EQ(SelfTime({10, 50}, {}), 40); }

TEST(SelfTime, SubtractsDisjointChildren) {
  EXPECT_EQ(SelfTime({0, 100}, {{10, 20}, {50, 80}}), 100 - 10 - 30);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two children fanned out in parallel over [10, 60] and [30, 70].
  EXPECT_EQ(SelfTime({0, 100}, {{30, 70}, {10, 60}}), 100 - 60);
}

TEST(SelfTime, ChildrenOutsideTheParentAreClipped) {
  EXPECT_EQ(SelfTime({0, 100}, {{-20, 10}, {90, 130}}), 100 - 10 - 10);
  EXPECT_EQ(SelfTime({0, 100}, {{200, 300}}), 100);
  EXPECT_EQ(SelfTime({0, 100}, {{-10, 110}}), 0);
}

TEST(SelfTime, NestedChildrenInsideOneAnother) {
  EXPECT_EQ(SelfTime({0, 100}, {{10, 90}, {20, 30}}), 20);
}

TEST(OpenLoop, DueTimesFollowTheRateNotTheSystem) {
  EXPECT_DOUBLE_EQ(DueTime(5.0, 80.0, 0), 5.0);
  EXPECT_DOUBLE_EQ(DueTime(5.0, 80.0, 80), 6.0);
  EXPECT_DOUBLE_EQ(DueTime(5.0, 300.0, 150), 5.5);
}

TEST(OpenLoop, LagIsHowLateTheItemWentOut) {
  EXPECT_DOUBLE_EQ(Lag(1.0, 1.25), 0.25);
  EXPECT_DOUBLE_EQ(Lag(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Lag(1.0, 0.9), 0.0);
}

TEST(OpenLoop, AStallDelaysEveryItemBehindIt) {
  // A 100 ms stall at item 10 of a 100/s feed: items 10..19 all go out
  // at 0.2 s, so each is charged its own wait from its due time.
  const double start = 0.0, rate = 100.0, resumed = 0.2;
  for (std::size_t i = 10; i < 20; ++i) {
    EXPECT_NEAR(Lag(DueTime(start, rate, i), resumed), resumed - static_cast<double>(i) / rate,
                1e-12);
  }
  EXPECT_DOUBLE_EQ(Lag(DueTime(start, rate, 25), 0.25), 0.0);
}

}  // namespace
}  // namespace affinity::perfbench

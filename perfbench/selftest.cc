// Checks of the benchmark's own arithmetic on hand-made inputs.

#include <gtest/gtest.h>

#include <vector>

#include "bench_util.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 50), 3);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile(v, 100), 5);
  EXPECT_EQ(Percentile(v, 20), 1);
  EXPECT_EQ(Percentile(v, 21), 2);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({7}), 7);
  EXPECT_EQ(Median({}), 0);
}

TEST(TailTest, LeavesTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Tail tail = TailPercentile(v);
  EXPECT_EQ(tail.value, 90);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.samples, 100u);
  EXPECT_EQ(tail.beyond, 10u);
  size_t above = 0;
  for (double x : v) above += x > tail.value ? 1 : 0;
  EXPECT_EQ(above, 10u);
}

TEST(TailTest, PercentileFollowsTheSampleCount) {
  std::vector<double> v;
  for (int i = 0; i < 320; ++i) v.push_back(i);
  const Tail tail = TailPercentile(v);
  EXPECT_EQ(tail.value, 309);
  EXPECT_NEAR(tail.percentile, 96.875, 1e-12);
}

TEST(TailTest, TooFewSamplesReportTheMaximum) {
  const Tail tail = TailPercentile({3, 9, 1});
  EXPECT_EQ(tail.value, 9);
  EXPECT_EQ(tail.beyond, 0u);
  EXPECT_EQ(TailPercentile({}).samples, 0u);
  // Exactly 11 samples: rank 1 has 10 beyond it.
  std::vector<double> eleven;
  for (int i = 0; i < 11; ++i) eleven.push_back(i);
  EXPECT_EQ(TailPercentile(eleven).value, 0);
  EXPECT_EQ(TailPercentile(eleven).beyond, 10u);
}

TEST(TailTest, WindowedTailIsTheMedianOfWindowTails) {
  // Three windows of 100: ranks 1..100 shifted by 0, 1000 and 5 — window
  // tails 90, 1090 and 95. A slow window does not set the result.
  std::vector<double> v;
  for (double shift : {0.0, 1000.0, 5.0}) {
    for (int i = 1; i <= 100; ++i) v.push_back(i + shift);
  }
  v.push_back(1e9);  // Leftover shorter than a window: not used.
  const Tail tail = WindowedTail(v, 100);
  EXPECT_EQ(tail.value, 95);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.samples, 301u);
  EXPECT_EQ(tail.beyond, 10u);
  // Fewer samples than one window: the plain rule over all of them.
  const std::vector<double> few = {4, 8, 15, 16, 23, 42, 1, 2, 3, 5, 6, 7};
  EXPECT_EQ(WindowedTail(few, 100).value, TailPercentile(few).value);
}

TEST(CalibrationTest, ScalingUsesTheMedianCalibration) {
  // Host twice as slow as the reference: calibration takes 2x as long.
  const std::vector<double> slow = {2 * kReferenceCalibrationNs,
                                    1.9 * kReferenceCalibrationNs,
                                    50 * kReferenceCalibrationNs};
  const double speed = SpeedFactor(slow);
  EXPECT_DOUBLE_EQ(speed, 0.5);
  EXPECT_DOUBLE_EQ(ScaleTime(10.0, speed), 5.0);
  EXPECT_DOUBLE_EQ(ScaleRate(1000.0, speed), 2000.0);
  EXPECT_DOUBLE_EQ(SpeedFactor({}), 1.0);
}

TEST(CalibrationTest, KernelTakesMeasurableTime) {
  const double ns = CalibrationKernel();
  EXPECT_GT(ns, 1e4);
  EXPECT_LT(ns, 1e9);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, -1, 0};
  spans[1] = {"a", 10, 30, 0, 0};
  spans[2] = {"b", 20, 50, 0, 0};  // Overlaps a: covered once.
  spans[3] = {"c", 90, 120, 0, 0};  // Runs past the parent: clipped.
  spans[4] = {"grandchild", 11, 29, 1, 0};  // Not a child of root.
  EXPECT_DOUBLE_EQ(SelfTimeNs(spans, 0), 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(SelfTimeNs(spans, 1), 20 - 18);
  EXPECT_DOUBLE_EQ(SelfTimeNs(spans, 2), 30);
}

TEST(SpanTest, ChromeJsonCarriesParentAndEpoch) {
  std::vector<Span> spans(2);
  spans[0] = {"epoch", 1000, 5000, -1, 7};
  spans[1] = {"engine.close", 2000, 3000, 0, 7};
  const std::string json = ToChromeTraceJson(spans, 1000);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"engine.close\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0,\"epoch\":7,\"self_us\":1.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"self_us\":3.000"), std::string::npos);
}

TEST(ReferenceTest, HandCheckedStream) {
  // Attributes A..D; group by B, D over records 1..4 (record 0 excluded).
  std::vector<streamagg::Record> records(5);
  const uint32_t rows[5][4] = {
      {9, 9, 9, 9}, {1, 2, 3, 4}, {5, 2, 6, 4}, {1, 2, 3, 5}, {0, 7, 0, 4}};
  for (int i = 0; i < 5; ++i) {
    for (int a = 0; a < 4; ++a) records[i].values[a] = rows[i][a];
  }
  RefGroups groups;
  ReferenceAggregate(records, 1, 5, {1, 3}, &groups);
  ASSERT_EQ(groups.size(), 3u);
  RefKey k24;
  k24.size = 2;
  k24.values = {2, 4, 0, 0};
  RefKey k25 = k24;
  k25.values[1] = 5;
  RefKey k74 = k24;
  k74.values[0] = 7;
  EXPECT_EQ(groups[k24], 2u);
  EXPECT_EQ(groups[k25], 1u);
  EXPECT_EQ(groups[k74], 1u);
  // Accumulates across calls.
  ReferenceAggregate(records, 0, 1, {1, 3}, &groups);
  EXPECT_EQ(groups.size(), 4u);
}

TEST(DigestTest, OrderAndContentMatter) {
  Digest a, b, c;
  a.Add(1);
  a.Add("AB");
  b.Add(1);
  b.Add("AB");
  c.Add("AB");
  c.Add(1);
  EXPECT_EQ(a.Hex(), b.Hex());
  EXPECT_NE(a.Hex(), c.Hex());
  EXPECT_EQ(a.Hex().size(), 16u);
}

}  // namespace
}  // namespace perfbench

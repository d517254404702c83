// Unit tests of the benchmark's own helpers.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyondTheRank) {
  // p99 of 1..999 has rank 990: only 9 samples lie beyond it.
  EXPECT_FALSE(tail_percentile(one_to(999), 0.99).has_value());
  // p99 of 1..1000 has rank 990 and 10 samples beyond.
  const auto p99 = tail_percentile(one_to(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);
  // The rule is a parameter: one sample beyond suffices when asked for.
  EXPECT_TRUE(tail_percentile(one_to(100), 0.99, 1).has_value());
}

TEST(TailPercentile, NearestRankOnUnsortedInput) {
  const std::vector<double> shuffled = {9, 3, 7, 1, 5, 2, 8, 4, 6, 10,
                                        19, 13, 17, 11, 15, 12, 18, 14, 16, 20};
  const auto p50 = tail_percentile(shuffled, 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(*p50, 10.0);
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
  EXPECT_FALSE(tail_percentile(one_to(100), 1.0).has_value());
  EXPECT_FALSE(tail_percentile(one_to(100), 0.0).has_value());
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(HostSpeedFactors, NominalOverTheLocalMedian) {
  // A host that slows to half speed for the last three samples.
  const std::vector<double> ref = {1, 1, 1, 1, 2, 2, 2};
  const std::vector<double> f = host_speed_factors(ref, 1, 1.0);
  ASSERT_EQ(f.size(), ref.size());
  EXPECT_EQ(f[0], 1.0);  // window {1, 1}: fewer samples at the ends
  EXPECT_EQ(f[3], 1.0);  // window {1, 1, 2}
  EXPECT_EQ(f[4], 0.5);  // window {1, 2, 2}
  EXPECT_EQ(f[6], 0.5);
  // One outlier inside a window is ignored; window 0 uses the sample alone.
  EXPECT_EQ(host_speed_factors({1, 9, 1}, 1, 2.0)[1], 2.0);
  EXPECT_EQ(host_speed_factors({1, 4, 1}, 0, 2.0)[1], 0.5);
  EXPECT_THROW((void)host_speed_factors({}, 1, 1.0), std::invalid_argument);
  EXPECT_THROW((void)host_speed_factors({1, 0, 0}, 1, 1.0), std::invalid_argument);
}

TEST(ReferenceKernel, TakesMeasurableTime) { EXPECT_GT(reference_kernel_ms(), 0.0); }

TEST(SelfTimes, SubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 40}, {2, 1, 15, 25}, {3, 0, 50, 90}};
  const std::vector<std::int64_t> self = self_times(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 100 - 30 - 40);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 40);
}

TEST(SpanLog, NestsAndRejectsOutOfOrderClose) {
  SpanLog log;
  {
    const ScopedSpan outer(&log, 7);
    const ScopedSpan inner(&log, 8);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_LE(log.spans()[1].end_ns, log.spans()[0].end_ns);
  const std::vector<std::int64_t> self = self_times(log.spans());
  EXPECT_GE(self[0], 0);

  const int a = log.open(1);
  (void)log.open(2);
  EXPECT_THROW(log.close(a), std::logic_error);
  // A null log records nothing.
  const ScopedSpan none(nullptr, 3);
}

TEST(VmHwm, ParsesKibIntoMib) {
  const std::string status =
      "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
  const auto mb = parse_vmhwm_mb(status);
  ASSERT_TRUE(mb.has_value());
  EXPECT_DOUBLE_EQ(*mb, 50.0);
}

TEST(VmHwm, RejectsMissingOrMalformedLines) {
  EXPECT_FALSE(parse_vmhwm_mb("VmRSS:\t 40000 kB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_mb("VmHWM:\t lots kB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_mb("VmHWM:\t 12 MB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_mb("").has_value());
  // The key must start the line.
  EXPECT_FALSE(parse_vmhwm_mb("XVmHWM:\t 12 kB\n").has_value());
}

TEST(MetricName, AllowsOnlyTheContractAlphabet) {
  EXPECT_TRUE(valid_metric_name("units_per_s"));
  EXPECT_TRUE(valid_metric_name("apps.warm_ms.h264"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name("quote\""));
}

TEST(RenderResult, ExactKeysAndFullPrecision) {
  const std::string line =
      render_result(true, 12, 0, {{"latency_ms", 1.2034567890123, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(RenderResult, RejectsBadNamesDuplicatesAndNonFinite) {
  EXPECT_THROW((void)render_result(true, 1, 0, {{"bad name", 1, "ms"}}), std::invalid_argument);
  EXPECT_THROW((void)render_result(true, 1, 0, {{"a", 1, "ms"}, {"a", 2, "ms"}}),
               std::invalid_argument);
  EXPECT_THROW((void)render_result(true, 1, 0, {{"a", 1.0 / 0.0, "ms"}}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench

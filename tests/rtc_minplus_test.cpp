// Min-plus algebra tests: known identities and cross-checks against dense
// brute-force evaluation.
#include <gtest/gtest.h>

#include "rtc/minplus.hpp"
#include "rtc/pjd.hpp"

namespace sccft::rtc {
namespace {

constexpr TimeNs kHorizon = 2'000;

/// Dense brute-force min-plus convolution for the oracle.
Tokens brute_conv(const Curve& f, const Curve& g, TimeNs delta) {
  Tokens best = std::numeric_limits<Tokens>::max();
  for (TimeNs lambda = 0; lambda <= delta; ++lambda) {
    best = std::min(best, f.value_at(lambda) + g.value_at(delta - lambda));
  }
  return best;
}

Tokens brute_deconv(const Curve& f, const Curve& g, TimeNs delta, TimeNs horizon) {
  Tokens best = std::numeric_limits<Tokens>::min();
  for (TimeNs lambda = 0; lambda <= horizon; ++lambda) {
    best = std::max(best, f.value_at(delta + lambda) - g.value_at(lambda));
  }
  return best;
}

StaircaseCurve staircase_a() {
  return StaircaseCurve(0, {{10, 1}, {30, 2}, {55, 1}}, 0, 0, 0, "a");
}
StaircaseCurve staircase_b() {
  return StaircaseCurve(1, {{20, 1}, {40, 1}}, 0, 0, 0, "b");
}

TEST(MinPlusConv, MatchesBruteForce) {
  const auto a = staircase_a();
  const auto b = staircase_b();
  for (TimeNs d = 0; d <= 100; d += 7) {
    EXPECT_EQ(minplus_conv_at(a, b, d), brute_conv(a, b, d)) << "delta " << d;
  }
}

TEST(MinPlusConv, ZeroIsAnnihilatorLike) {
  // conv with the zero curve: (f (x) 0)(d) = min over splits of f(l) + 0 =
  // min(f(0), ..., 0 + f-part) = 0 + min... = 0 if f(0)=0.
  const auto a = staircase_a();
  ZeroCurve zero;
  for (TimeNs d = 0; d <= 100; d += 10) {
    EXPECT_EQ(minplus_conv_at(a, zero, d), 0);
  }
}

TEST(MinPlusConv, Commutative) {
  const auto a = staircase_a();
  const auto b = staircase_b();
  for (TimeNs d = 0; d <= 120; d += 11) {
    EXPECT_EQ(minplus_conv_at(a, b, d), minplus_conv_at(b, a, d));
  }
}

TEST(MinPlusConv, MaterializedCurveMatchesPointQueries) {
  const auto a = staircase_a();
  const auto b = staircase_b();
  const auto conv = minplus_conv(a, b, 200);
  for (TimeNs d = 0; d <= 200; d += 3) {
    EXPECT_EQ(conv.value_at(d), minplus_conv_at(a, b, d)) << "delta " << d;
  }
}

TEST(MinPlusDeconv, MatchesBruteForce) {
  const auto a = staircase_a();
  const auto b = staircase_b();
  for (TimeNs d = 0; d <= 60; d += 5) {
    EXPECT_EQ(minplus_deconv_at(a, b, d, 100), brute_deconv(a, b, d, 100))
        << "delta " << d;
  }
}

TEST(MinPlusDeconv, DeconvBoundsBacklog) {
  // (alpha^u (/) beta^l)(0) is the classic backlog bound.
  PJDUpperCurve arrivals(PJD{100, 50, 0});
  PJDLowerCurve service(PJD{100, 20, 0});
  const auto backlog = minplus_deconv_at(arrivals, service, 0, kHorizon);
  Tokens dense = 0;
  for (TimeNs t = 0; t <= kHorizon; ++t) {
    dense = std::max(dense, arrivals.value_at(t) - service.value_at(t));
  }
  EXPECT_EQ(backlog, dense);
}

TEST(MinPlusConv, PjdUpperIsSubadditiveUnderSelfConv) {
  // For a (sub-additive) upper curve, f (x) f = f on the tested range.
  PJDUpperCurve upper(PJD{100, 30, 0});
  for (TimeNs d = 0; d <= 1'500; d += 50) {
    EXPECT_EQ(minplus_conv_at(upper, upper, d), upper.value_at(d)) << "delta " << d;
  }
}

TEST(Pointwise, MinMaxSum) {
  const auto a = staircase_a();
  const auto b = staircase_b();
  const auto mn = pointwise_min(a, b, 100);
  const auto mx = pointwise_max(a, b, 100);
  const auto sm = pointwise_sum(a, b, 100);
  for (TimeNs d = 0; d <= 100; d += 4) {
    EXPECT_EQ(mn.value_at(d), std::min(a.value_at(d), b.value_at(d)));
    EXPECT_EQ(mx.value_at(d), std::max(a.value_at(d), b.value_at(d)));
    EXPECT_EQ(sm.value_at(d), a.value_at(d) + b.value_at(d));
  }
}

TEST(Pointwise, WorksOnPjdCurves) {
  PJDUpperCurve u1(PJD{40, 10, 0}), u2(PJD{60, 5, 0});
  const auto mn = pointwise_min(u1, u2, 1'000);
  for (TimeNs d = 0; d <= 1'000; d += 13) {
    EXPECT_EQ(mn.value_at(d), std::min(u1.value_at(d), u2.value_at(d)));
  }
}

TEST(Pointwise, TailCarriesRatesAboveTwoTokensPerNs) {
  // Three tokens per ns each: the sum's tail must keep 6 tokens/ns beyond
  // the horizon rather than fail to express a sub-nanosecond period.
  const StaircaseCurve fast(0, {}, 0, 1, 3, "fast");
  const auto sum = pointwise_sum(fast, fast, 10);
  EXPECT_DOUBLE_EQ(sum.long_term_rate(), 6.0);
  EXPECT_EQ(sum.value_at(10), 60);
  EXPECT_EQ(sum.value_at(20), 120);
}

}  // namespace
}  // namespace sccft::rtc

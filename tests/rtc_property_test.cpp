// Parameterized property sweeps over the Section 3.4 analysis: monotonicity,
// scaling, and symmetry laws that must hold for every PJD configuration —
// plus brute-force oracles for the min-plus operators' candidate sets, and a
// sort-based reference for the merged sizing/pointwise candidate scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "rtc/curve.hpp"
#include "rtc/gpc.hpp"
#include "rtc/minplus.hpp"
#include "rtc/pjd.hpp"
#include "rtc/sizing.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sccft::rtc {
namespace {

struct ModelCase {
  PJD producer;
  PJD slow_replica;
};

class SizingLaws : public ::testing::TestWithParam<ModelCase> {
 protected:
  static constexpr TimeNs kHorizon = 5'000 * kNsPerMs;
};

TEST_P(SizingLaws, CapacityMonotoneInConsumerJitter) {
  const auto& param = GetParam();
  PJDUpperCurve producer_upper(param.producer);
  Tokens previous = 0;
  for (double factor : {0.5, 1.0, 1.5, 2.0}) {
    PJD consumer = param.slow_replica;
    consumer.jitter = static_cast<TimeNs>(consumer.jitter * factor);
    PJDLowerCurve lower(consumer);
    const auto capacity = min_fifo_capacity(producer_upper, lower, kHorizon);
    ASSERT_TRUE(capacity.has_value());
    EXPECT_GE(*capacity, previous);
    previous = *capacity;
  }
}

TEST_P(SizingLaws, ThresholdSymmetricUnderSwap) {
  const auto& param = GetParam();
  PJDUpperCurve u1(param.producer), u2(param.slow_replica);
  PJDLowerCurve l1(param.producer), l2(param.slow_replica);
  const auto d_ab = divergence_threshold(u1, l1, u2, l2, kHorizon);
  const auto d_ba = divergence_threshold(u2, l2, u1, l1, kHorizon);
  ASSERT_TRUE(d_ab.has_value());
  ASSERT_TRUE(d_ba.has_value());
  EXPECT_EQ(*d_ab, *d_ba);
}

TEST_P(SizingLaws, TimeScalingLaw) {
  // Scaling all time parameters by k scales every latency bound by k and
  // leaves all token quantities (capacities, D) unchanged.
  const auto& param = GetParam();
  auto scaled = [](const PJD& model, int k) {
    return PJD{model.period * k, model.jitter * k, model.delay * k};
  };
  for (int k : {2, 5}) {
    PJDUpperCurve u1(param.producer), u2(param.slow_replica);
    PJDLowerCurve l1(param.producer), l2(param.slow_replica);
    PJDUpperCurve su1(scaled(param.producer, k)), su2(scaled(param.slow_replica, k));
    PJDLowerCurve sl1(scaled(param.producer, k)), sl2(scaled(param.slow_replica, k));

    const auto capacity = min_fifo_capacity(u1, l2, kHorizon);
    const auto scaled_capacity = min_fifo_capacity(su1, sl2, k * kHorizon);
    ASSERT_TRUE(capacity && scaled_capacity);
    EXPECT_EQ(*capacity, *scaled_capacity);

    const auto d = divergence_threshold(u1, l1, u2, l2, kHorizon);
    const auto sd = divergence_threshold(su1, sl1, su2, sl2, k * kHorizon);
    ASSERT_TRUE(d && sd);
    EXPECT_EQ(*d, *sd);

    const auto bound = detection_latency_bound_silence(l2, *d, kHorizon);
    const auto scaled_bound = detection_latency_bound_silence(sl2, *sd, k * kHorizon);
    ASSERT_TRUE(bound && scaled_bound);
    EXPECT_EQ(*scaled_bound, k * *bound);
  }
}

TEST_P(SizingLaws, LatencyBoundDominatesCapacityFillTime) {
  // The divergence-rule bound (2D-1 tokens) is never faster than one token.
  const auto& param = GetParam();
  PJDUpperCurve u1(param.producer), u2(param.slow_replica);
  PJDLowerCurve l1(param.producer), l2(param.slow_replica);
  const auto d = divergence_threshold(u1, l1, u2, l2, kHorizon);
  ASSERT_TRUE(d.has_value());
  const auto bound = detection_latency_bound_silence(l2, *d, kHorizon);
  ASSERT_TRUE(bound.has_value());
  EXPECT_GE(*bound, param.slow_replica.period);
}

TEST_P(SizingLaws, ReportInternallyConsistent) {
  const auto& param = GetParam();
  NetworkTimingModel model;
  auto fill = [](const PJD& pjd, CurveRef& upper, CurveRef& lower) {
    upper = make_curve<PJDUpperCurve>(pjd);
    lower = make_curve<PJDLowerCurve>(pjd);
  };
  fill(param.producer, model.producer_upper, model.producer_lower);
  fill(param.producer, model.replica1_in_upper, model.replica1_in_lower);
  fill(param.slow_replica, model.replica2_in_upper, model.replica2_in_lower);
  fill(param.producer, model.replica1_out_upper, model.replica1_out_lower);
  fill(param.slow_replica, model.replica2_out_upper, model.replica2_out_lower);
  fill(param.producer, model.consumer_upper, model.consumer_lower);
  const auto report = analyze_duplicated_network(model, kHorizon);

  // The slow replica always needs at least as much of everything.
  EXPECT_GE(report.replicator_capacity2, report.replicator_capacity1);
  EXPECT_GE(report.selector_capacity2, report.selector_capacity1);
  EXPECT_GE(report.selector_initial2, report.selector_initial1);
  // Selector capacity covers its initial fill.
  EXPECT_GT(report.selector_capacity1, report.selector_initial1);
  EXPECT_GT(report.selector_capacity2, report.selector_initial2);
  // Thresholds and bounds are positive and ordered sanely.
  EXPECT_GE(report.selector_threshold, 2);
  EXPECT_GT(report.selector_latency_bound, 0);
  EXPECT_GT(report.replicator_overflow_bound, 0);
  // Divergence-rule bound is never tighter than the overflow-rule bound by
  // more than the capacity/threshold relationship allows.
  EXPECT_GE(report.replicator_divergence_bound, report.replicator_overflow_bound / 4);
}

// --- min-plus operator oracles ---------------------------------------------
// minplus_conv_at / minplus_deconv_at evaluate the inf/sup over lambda by
// probing a *candidate set* (endpoints, jump points, and their reflections)
// instead of every lambda. The candidate set is asymmetric between f and g
// (f is probed at its jump points, g at delta minus its own), so these
// oracles cross-check it exhaustively: on small random staircases the exact
// answer is the min/max over every integer lambda in range.

StaircaseCurve random_staircase(util::Xoshiro256& rng, const std::string& name) {
  const Tokens base = rng.uniform_int(0, 3);
  const int jump_count = static_cast<int>(rng.uniform_int(0, 6));
  std::vector<TimeNs> ats;
  for (int j = 0; j < jump_count; ++j) {
    ats.push_back(rng.uniform_int(1, 40));  // small: brute force stays cheap
  }
  std::sort(ats.begin(), ats.end());
  ats.erase(std::unique(ats.begin(), ats.end()), ats.end());
  std::vector<StaircaseCurve::Jump> jumps;
  for (const TimeNs at : ats) {
    jumps.push_back({at, rng.uniform_int(1, 4)});
  }
  return StaircaseCurve(base, std::move(jumps), 0, 0, 0, name);
}

Tokens conv_oracle(const Curve& f, const Curve& g, TimeNs delta) {
  Tokens best = std::numeric_limits<Tokens>::max();
  for (TimeNs lambda = 0; lambda <= delta; ++lambda) {
    best = std::min(best, f.value_at(lambda) + g.value_at(delta - lambda));
  }
  return best;
}

Tokens deconv_oracle(const Curve& f, const Curve& g, TimeNs delta, TimeNs horizon) {
  Tokens best = std::numeric_limits<Tokens>::min();
  for (TimeNs lambda = 0; lambda <= horizon; ++lambda) {
    best = std::max(best, f.value_at(delta + lambda) - g.value_at(lambda));
  }
  return best;
}

TEST(MinPlusOracle, ConvMatchesBruteForceOnRandomStaircases) {
  util::Xoshiro256 rng(2014);
  for (int trial = 0; trial < 200; ++trial) {
    const StaircaseCurve f = random_staircase(rng, "f");
    const StaircaseCurve g = random_staircase(rng, "g");
    for (TimeNs delta = 0; delta <= 50; ++delta) {
      ASSERT_EQ(minplus_conv_at(f, g, delta), conv_oracle(f, g, delta))
          << "trial " << trial << " delta " << delta << " f=" << f.describe()
          << " g=" << g.describe();
    }
  }
}

TEST(MinPlusOracle, ConvIsCommutativeOnRandomStaircases) {
  util::Xoshiro256 rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    const StaircaseCurve f = random_staircase(rng, "f");
    const StaircaseCurve g = random_staircase(rng, "g");
    for (TimeNs delta = 0; delta <= 50; ++delta) {
      ASSERT_EQ(minplus_conv_at(f, g, delta), minplus_conv_at(g, f, delta))
          << "trial " << trial << " delta " << delta;
    }
  }
}

TEST(MinPlusOracle, DeconvMatchesBruteForceOnRandomStaircases) {
  util::Xoshiro256 rng(77);
  constexpr TimeNs kHorizon = 50;
  for (int trial = 0; trial < 200; ++trial) {
    const StaircaseCurve f = random_staircase(rng, "f");
    const StaircaseCurve g = random_staircase(rng, "g");
    for (TimeNs delta = 0; delta <= 50; delta += 5) {
      ASSERT_EQ(minplus_deconv_at(f, g, delta, kHorizon),
                deconv_oracle(f, g, delta, kHorizon))
          << "trial " << trial << " delta " << delta << " f=" << f.describe()
          << " g=" << g.describe();
    }
  }
}

TEST(MinPlusOracle, ConvAgreesWithPjdCurves) {
  // The production callers convolve PJD-derived curves; spot-check those too
  // (small periods keep the brute force over integer lambda affordable).
  const PJDUpperCurve upper(PJD{10, 4, 0});
  const PJDLowerCurve lower(PJD{10, 4, 0});
  for (TimeNs delta = 0; delta <= 60; ++delta) {
    ASSERT_EQ(minplus_conv_at(upper, lower, delta), conv_oracle(upper, lower, delta))
        << "delta " << delta;
  }
}

// --- merged candidate scans vs the sort-based reference ---------------------
// sup_difference, first_time_difference_reaches and the pointwise operators
// merge each curve's jump-point list (increasing by the Curve contract) into
// their candidate set. The reference below is the concatenate-and-sort
// generator those scans used before; on random curve pairs and horizons both
// must produce identical results, field for field.

std::vector<TimeNs> sorted_candidates(const Curve& f, const Curve& g, TimeNs horizon,
                                      bool bracket) {
  std::vector<TimeNs> candidates{0};
  for (const Curve* curve : {&f, &g}) {
    for (TimeNs at : curve->jump_points_up_to(horizon)) {
      candidates.push_back(at);
      if (bracket && at > 0) candidates.push_back(at - 1);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  return candidates;
}

SupResult reference_sup(const Curve& f, const Curve& g, TimeNs horizon) {
  SupResult result;
  result.value = f.value_at(0) - g.value_at(0);
  result.at = 0;
  for (TimeNs at : sorted_candidates(f, g, horizon, true)) {
    const Tokens diff = f.value_at(at) - g.value_at(at);
    if (diff > result.value) {
      result.value = diff;
      result.at = at;
    }
  }
  const double rf = f.long_term_rate();
  const double rg = g.long_term_rate();
  result.bounded = rf <= rg * (1.0 + 1e-9) + 1e-18;
  result.stabilized = result.at <= horizon / 2;
  return result;
}

std::optional<TimeNs> reference_first_reach(const Curve& f, const Curve& g, Tokens target,
                                            TimeNs horizon) {
  for (TimeNs at : sorted_candidates(f, g, horizon, true)) {
    if (f.value_at(at) - g.value_at(at) >= target) return at;
  }
  return std::nullopt;
}

/// The staircase a pointwise operator must materialize: its value at 0 and
/// one jump wherever `eval` rises across the sorted candidates.
StaircaseCurve reference_pointwise(const Curve& f, const Curve& g, TimeNs horizon,
                                   const std::function<Tokens(TimeNs)>& eval) {
  const std::vector<TimeNs> candidates = sorted_candidates(f, g, horizon, false);
  std::vector<StaircaseCurve::Jump> jumps;
  Tokens prev = eval(0);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const Tokens v = eval(candidates[i]);
    if (v > prev) {
      jumps.push_back({candidates[i], v - prev});
      prev = v;
    }
  }
  return StaircaseCurve(eval(0), std::move(jumps));
}

/// One of every Curve kind the sizing code sees: PJD upper/lower, explicit
/// staircases with and without a periodic tail, the zero curve, and
/// rate-latency service curves. Small parameters keep jump lists dense
/// relative to the horizon, so the lists interleave and collide.
CurveRef random_curve(util::Xoshiro256& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
    case 1: {
      const TimeNs period = rng.uniform_int(1, 60);
      const PJD model{period, rng.uniform_int(0, 3 * period), rng.uniform_int(0, 60)};
      if (rng.uniform_int(0, 1) == 0) return make_curve<PJDUpperCurve>(model);
      return make_curve<PJDLowerCurve>(model);
    }
    case 2:
      return CurveRef(random_staircase(rng, "s").clone());
    case 3: {
      const StaircaseCurve head = random_staircase(rng, "s");
      const TimeNs last = head.jumps().empty() ? 0 : head.jumps().back().at;
      return make_curve<StaircaseCurve>(head.base(), head.jumps(),
                                        last + rng.uniform_int(0, 20),
                                        rng.uniform_int(1, 30), rng.uniform_int(1, 3),
                                        "tail");
    }
    case 4:
      return make_curve<ZeroCurve>();
    default:
      return make_curve<RateLatencyCurve>(rng.uniform_int(1, 50), rng.uniform_int(0, 100));
  }
}

TEST(MergedScan, SupDifferenceMatchesSortedReference) {
  util::Xoshiro256 rng(1303);
  for (int trial = 0; trial < 2000; ++trial) {
    const CurveRef f = random_curve(rng);
    const CurveRef g = random_curve(rng);
    const TimeNs horizon = rng.uniform_int(1, 600);
    const SupResult got = sup_difference(*f, *g, horizon);
    const SupResult want = reference_sup(*f, *g, horizon);
    SCOPED_TRACE("trial " + std::to_string(trial) + " f=" + f->describe() +
                 " g=" + g->describe() + " horizon=" + std::to_string(horizon));
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.at, want.at);
    EXPECT_EQ(got.bounded, want.bounded);
    EXPECT_EQ(got.stabilized, want.stabilized);
  }
}

TEST(MergedScan, FirstReachMatchesSortedReference) {
  util::Xoshiro256 rng(1304);
  for (int trial = 0; trial < 2000; ++trial) {
    const CurveRef f = random_curve(rng);
    const CurveRef g = random_curve(rng);
    const TimeNs horizon = rng.uniform_int(1, 600);
    const Tokens target = rng.uniform_int(-2, 12);
    EXPECT_EQ(first_time_difference_reaches(*f, *g, target, horizon),
              reference_first_reach(*f, *g, target, horizon))
        << "trial " << trial << " f=" << f->describe() << " g=" << g->describe()
        << " target=" << target << " horizon=" << horizon;
  }
}

void expect_same_staircase(const StaircaseCurve& got, const StaircaseCurve& want,
                           const std::string& what) {
  EXPECT_EQ(got.base(), want.base()) << what;
  ASSERT_EQ(got.jumps().size(), want.jumps().size()) << what;
  for (std::size_t i = 0; i < got.jumps().size(); ++i) {
    EXPECT_EQ(got.jumps()[i].at, want.jumps()[i].at) << what << " jump " << i;
    EXPECT_EQ(got.jumps()[i].step, want.jumps()[i].step) << what << " jump " << i;
  }
}

TEST(MergedScan, PointwiseOperatorsMatchSortedReference) {
  util::Xoshiro256 rng(1305);
  for (int trial = 0; trial < 1000; ++trial) {
    const CurveRef fr = random_curve(rng);
    const CurveRef gr = random_curve(rng);
    const Curve& f = *fr;
    const Curve& g = *gr;
    const TimeNs horizon = rng.uniform_int(1, 600);
    const std::string what = "trial " + std::to_string(trial) + " f=" + f.describe() +
                             " g=" + g.describe();
    expect_same_staircase(
        pointwise_min(f, g, horizon),
        reference_pointwise(f, g, horizon,
                            [&](TimeNs d) { return std::min(f.value_at(d), g.value_at(d)); }),
        "min " + what);
    expect_same_staircase(
        pointwise_max(f, g, horizon),
        reference_pointwise(f, g, horizon,
                            [&](TimeNs d) { return std::max(f.value_at(d), g.value_at(d)); }),
        "max " + what);
    expect_same_staircase(
        pointwise_sum(f, g, horizon),
        reference_pointwise(f, g, horizon,
                            [&](TimeNs d) { return f.value_at(d) + g.value_at(d); }),
        "sum " + what);
  }
}

/// A curve whose jump points come back out of order: the merge would skip
/// candidates, so the scans must refuse it instead.
class UnorderedCurve final : public Curve {
 public:
  [[nodiscard]] Tokens value_at(TimeNs delta) const override { return delta >= 5 ? 2 : 0; }
  [[nodiscard]] std::vector<TimeNs> jump_points_up_to(TimeNs) const override {
    return {7, 5};
  }
  [[nodiscard]] double long_term_rate() const override { return 0.0; }
  [[nodiscard]] std::string describe() const override { return "unordered"; }
  [[nodiscard]] std::unique_ptr<Curve> clone() const override {
    return std::make_unique<UnorderedCurve>(*this);
  }
};

TEST(MergedScan, UnorderedJumpPointsViolateTheContract) {
  const UnorderedCurve bad;
  const ZeroCurve zero;
  EXPECT_THROW((void)sup_difference(bad, zero, 10), util::ContractViolation);
  EXPECT_THROW((void)first_time_difference_reaches(zero, bad, 1, 10),
               util::ContractViolation);
  EXPECT_THROW((void)pointwise_max(bad, zero, 10), util::ContractViolation);
}

INSTANTIATE_TEST_SUITE_P(
    ModelSweep, SizingLaws,
    ::testing::Values(
        ModelCase{PJD::from_ms(30, 2, 30), PJD::from_ms(30, 30, 30)},    // MJPEG
        ModelCase{PJD::from_ms(6.3, 0.1, 6.3), PJD::from_ms(6.3, 12.6, 6.3)},  // ADPCM
        ModelCase{PJD::from_ms(30, 1, 30), PJD::from_ms(30, 20, 30)},    // H.264
        ModelCase{PJD::from_ms(10, 0, 10), PJD::from_ms(10, 5, 10)},
        ModelCase{PJD::from_ms(8, 4, 8), PJD::from_ms(8, 24, 8)},
        ModelCase{PJD::from_ms(100, 10, 100), PJD::from_ms(100, 150, 100)},
        ModelCase{PJD::from_ms(1, 0.2, 1), PJD::from_ms(1, 2, 1)}));

}  // namespace
}  // namespace sccft::rtc

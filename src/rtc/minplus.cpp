#include "rtc/minplus.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace sccft::rtc {

namespace {

/// Delta = 0 plus every jump point of f or g up to `horizon`: the points at
/// which a pointwise combination can change. Both lists arrive sorted
/// (ordered_jump_points), so they merge in linear time.
std::vector<TimeNs> merged_points(const Curve& f, const Curve& g, TimeNs horizon) {
  const std::vector<TimeNs> from_f = ordered_jump_points(f, horizon);
  const std::vector<TimeNs> from_g = ordered_jump_points(g, horizon);
  std::vector<TimeNs> points;
  points.reserve(1 + from_f.size() + from_g.size());
  points.push_back(0);
  std::merge(from_f.begin(), from_f.end(), from_g.begin(), from_g.end(),
             std::back_inserter(points));
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

/// Builds a staircase by sampling `eval` at each candidate point (assumed to
/// include every point at which the result can change). The result is exact
/// on [0, horizon]; beyond it, a periodic tail continues at `tail_rate`
/// tokens/ns (0 = no tail) so long-term-rate-based reasoning (boundedness
/// checks in sizing.hpp) stays correct for composed curves.
StaircaseCurve materialize(const std::vector<TimeNs>& candidates,
                           const std::function<Tokens(TimeNs)>& eval,
                           const std::string& name, TimeNs horizon,
                           double tail_rate) {
  SCCFT_EXPECTS(!candidates.empty() && candidates.front() == 0);
  const Tokens base = eval(0);
  std::vector<StaircaseCurve::Jump> jumps;
  Tokens prev = base;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const Tokens v = eval(candidates[i]);
    SCCFT_ASSERT(v >= prev);  // results of these operators are monotone
    if (v > prev) {
      jumps.push_back({candidates[i], v - prev});
      prev = v;
    }
  }
  TimeNs tail_start = 0;
  TimeNs tail_period = 0;
  Tokens tail_step = 0;
  if (tail_rate > 0.0) {
    tail_period = static_cast<TimeNs>(std::llround(1.0 / tail_rate));
    tail_step = 1;
    if (tail_period == 0) {
      // Faster than two tokens per ns: one period of 1 ns carries the rate.
      tail_period = 1;
      tail_step = static_cast<Tokens>(std::llround(tail_rate));
    }
    tail_start = std::max(horizon, jumps.empty() ? 0 : jumps.back().at);
  }
  return StaircaseCurve(base, std::move(jumps), tail_start, tail_period, tail_step,
                        name);
}

}  // namespace

Tokens minplus_conv_at(const Curve& f, const Curve& g, TimeNs delta) {
  SCCFT_EXPECTS(delta >= 0);
  // inf over lambda of f(lambda) + g(delta - lambda). For staircases the
  // infimum is attained at lambda = 0, lambda = delta, a jump point of f, or
  // delta minus a jump point of g (approaching from below: jump - 1).
  Tokens best = std::numeric_limits<Tokens>::max();
  auto consider = [&](TimeNs lambda) {
    if (lambda < 0 || lambda > delta) return;
    best = std::min(best, f.value_at(lambda) + g.value_at(delta - lambda));
  };
  consider(0);
  consider(delta);
  for (TimeNs at : f.jump_points_up_to(delta)) {
    consider(at);
    consider(at - 1);
  }
  for (TimeNs at : g.jump_points_up_to(delta)) {
    consider(delta - at);
    consider(delta - at + 1);
  }
  return best;
}

Tokens minplus_deconv_at(const Curve& f, const Curve& g, TimeNs delta, TimeNs horizon) {
  SCCFT_EXPECTS(delta >= 0);
  SCCFT_EXPECTS(horizon >= 0);
  Tokens best = std::numeric_limits<Tokens>::min();
  auto consider = [&](TimeNs lambda) {
    if (lambda < 0 || lambda > horizon) return;
    best = std::max(best, f.value_at(delta + lambda) - g.value_at(lambda));
  };
  consider(0);
  consider(horizon);
  for (TimeNs at : g.jump_points_up_to(horizon)) {
    consider(at);
    consider(at - 1);
  }
  for (TimeNs at : f.jump_points_up_to(delta + horizon)) {
    consider(at - delta);
    consider(at - delta - 1);
  }
  return best;
}

StaircaseCurve minplus_conv(const Curve& f, const Curve& g, TimeNs horizon) {
  SCCFT_EXPECTS(horizon > 0);
  // Breakpoints of the convolution lie in pairwise sums of operand breakpoints.
  std::vector<TimeNs> f_points = f.jump_points_up_to(horizon);
  std::vector<TimeNs> g_points = g.jump_points_up_to(horizon);
  f_points.insert(f_points.begin(), 0);
  g_points.insert(g_points.begin(), 0);
  std::vector<TimeNs> candidates;
  candidates.reserve(f_points.size() * g_points.size());
  for (TimeNs a : f_points) {
    for (TimeNs b : g_points) {
      if (a + b <= horizon) candidates.push_back(a + b);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  return materialize(
      candidates, [&](TimeNs d) { return minplus_conv_at(f, g, d); },
      "(" + f.describe() + " conv " + g.describe() + ")", horizon,
      std::min(f.long_term_rate(), g.long_term_rate()));
}

StaircaseCurve minplus_deconv(const Curve& f, const Curve& g, TimeNs horizon) {
  SCCFT_EXPECTS(horizon > 0);
  std::vector<TimeNs> candidates{0};
  for (TimeNs at : f.jump_points_up_to(2 * horizon)) {
    for (TimeNs b : g.jump_points_up_to(horizon)) {
      const TimeNs d = at - b;
      if (d >= 0 && d <= horizon) candidates.push_back(d);
      if (d - 1 >= 0 && d - 1 <= horizon) candidates.push_back(d - 1);
    }
    if (at <= horizon) candidates.push_back(at);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  return materialize(
      candidates, [&](TimeNs d) { return minplus_deconv_at(f, g, d, horizon); },
      "(" + f.describe() + " deconv " + g.describe() + ")", horizon,
      f.long_term_rate());
}

StaircaseCurve pointwise_min(const Curve& f, const Curve& g, TimeNs horizon) {
  return materialize(
      merged_points(f, g, horizon),
      [&](TimeNs d) { return std::min(f.value_at(d), g.value_at(d)); },
      "min(" + f.describe() + ", " + g.describe() + ")", horizon,
      std::min(f.long_term_rate(), g.long_term_rate()));
}

StaircaseCurve pointwise_max(const Curve& f, const Curve& g, TimeNs horizon) {
  return materialize(
      merged_points(f, g, horizon),
      [&](TimeNs d) { return std::max(f.value_at(d), g.value_at(d)); },
      "max(" + f.describe() + ", " + g.describe() + ")", horizon,
      std::max(f.long_term_rate(), g.long_term_rate()));
}

StaircaseCurve pointwise_sum(const Curve& f, const Curve& g, TimeNs horizon) {
  return materialize(
      merged_points(f, g, horizon),
      [&](TimeNs d) { return f.value_at(d) + g.value_at(d); },
      "sum(" + f.describe() + ", " + g.describe() + ")", horizon,
      f.long_term_rate() + g.long_term_rate());
}

}  // namespace sccft::rtc

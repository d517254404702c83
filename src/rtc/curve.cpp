#include "rtc/curve.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sccft::rtc {

StaircaseCurve::StaircaseCurve(Tokens base, std::vector<Jump> jumps, TimeNs tail_start,
                               TimeNs tail_period, Tokens tail_step, std::string name)
    : base_(base),
      jumps_(std::move(jumps)),
      tail_start_(tail_start),
      tail_period_(tail_period),
      tail_step_(tail_step),
      name_(std::move(name)) {
  SCCFT_EXPECTS(base_ >= 0);
  SCCFT_EXPECTS(tail_period_ >= 0);
  SCCFT_EXPECTS(tail_period_ == 0 || tail_step_ >= 0);
  TimeNs prev = 0;
  for (const auto& jump : jumps_) {
    SCCFT_EXPECTS(jump.at > prev);
    SCCFT_EXPECTS(jump.step > 0);
    prev = jump.at;
  }
  if (tail_period_ > 0) {
    SCCFT_EXPECTS(tail_start_ >= prev);
  }
}

Tokens StaircaseCurve::value_at(TimeNs delta) const {
  SCCFT_EXPECTS(delta >= 0);
  Tokens value = base_;
  for (const auto& jump : jumps_) {
    if (jump.at > delta) break;
    value += jump.step;
  }
  if (tail_period_ > 0 && delta > tail_start_) {
    // Tail contributes tail_step at tail_start + k * tail_period, k >= 1.
    const std::int64_t k = (delta - tail_start_) / tail_period_;
    value += k * tail_step_;
  }
  return value;
}

std::vector<TimeNs> StaircaseCurve::jump_points_up_to(TimeNs horizon) const {
  SCCFT_EXPECTS(horizon >= 0);
  std::vector<TimeNs> points;
  for (const auto& jump : jumps_) {
    if (jump.at > horizon) return points;
    points.push_back(jump.at);
  }
  if (tail_period_ > 0 && tail_step_ > 0) {
    for (TimeNs at = tail_start_ + tail_period_; at <= horizon; at += tail_period_) {
      points.push_back(at);
    }
  }
  return points;
}

double StaircaseCurve::long_term_rate() const {
  if (tail_period_ == 0) return 0.0;
  return static_cast<double>(tail_step_) / static_cast<double>(tail_period_);
}

CurveRef::CurveRef(std::unique_ptr<Curve> curve) : curve_(std::move(curve)) {
  SCCFT_EXPECTS(curve_ != nullptr);
}

CurveRef& CurveRef::operator=(const CurveRef& other) {
  if (this != &other) curve_ = other.curve_->clone();
  return *this;
}

std::vector<TimeNs> ordered_jump_points(const Curve& curve, TimeNs horizon) {
  std::vector<TimeNs> points = curve.jump_points_up_to(horizon);
  TimeNs prev = 0;
  for (const TimeNs at : points) {
    SCCFT_ASSERT(at > prev && at <= horizon);
    prev = at;
  }
  return points;
}

}  // namespace sccft::rtc

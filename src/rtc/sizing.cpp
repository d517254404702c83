#include "rtc/sizing.hpp"

#include "rtc/pjd.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace sccft::rtc {

namespace {

/// Candidate window lengths at which an extremum of f - g can occur: Delta = 0
/// and every jump point of f. f is constant from one of its jump points up to
/// the next and g is non-decreasing, so f - g cannot rise between f's jumps:
/// the supremum, its earliest argmax and the first Delta reaching a target
/// are all attained at 0 or at a jump of f. g's jump points are never
/// enumerated; f's arrive strictly increasing (ordered_jump_points), so the
/// list is sorted as built.
std::vector<TimeNs> candidate_points(const Curve& f, TimeNs horizon) {
  std::vector<TimeNs> candidates = ordered_jump_points(f, horizon);
  candidates.insert(candidates.begin(), 0);
  return candidates;
}

}  // namespace

SupResult sup_difference(const Curve& f, const Curve& g, TimeNs horizon) {
  SCCFT_EXPECTS(horizon > 0);
  SupResult result;
  result.value = f.value_at(0) - g.value_at(0);
  result.at = 0;
  for (TimeNs at : candidate_points(f, horizon)) {
    const Tokens diff = f.value_at(at) - g.value_at(at);
    if (diff > result.value) {
      result.value = diff;
      result.at = at;
    }
  }
  // Rates are tokens/ns (~1e-7 scale); compare with a relative tolerance.
  const double rf = f.long_term_rate();
  const double rg = g.long_term_rate();
  result.bounded = rf <= rg * (1.0 + 1e-9) + 1e-18;
  result.stabilized = result.at <= horizon / 2;
  return result;
}

std::optional<TimeNs> first_time_difference_reaches(const Curve& f, const Curve& g,
                                                    Tokens target, TimeNs horizon) {
  SCCFT_EXPECTS(horizon > 0);
  for (TimeNs at : candidate_points(f, horizon)) {
    if (f.value_at(at) - g.value_at(at) >= target) return at;
  }
  return std::nullopt;
}

std::optional<Tokens> min_fifo_capacity(const Curve& producer_upper,
                                        const Curve& consumer_lower, TimeNs horizon) {
  const SupResult sup = sup_difference(producer_upper, consumer_lower, horizon);
  if (!sup.bounded || !sup.stabilized) return std::nullopt;
  return std::max<Tokens>(sup.value, 1);
}

std::optional<Tokens> min_initial_fill(const Curve& replica_out_lower,
                                       const Curve& consumer_upper, TimeNs horizon) {
  const SupResult sup = sup_difference(consumer_upper, replica_out_lower, horizon);
  if (!sup.bounded || !sup.stabilized) return std::nullopt;
  return std::max<Tokens>(sup.value, 0);
}

std::optional<Tokens> divergence_threshold(const Curve& out1_upper,
                                           const Curve& out1_lower,
                                           const Curve& out2_upper,
                                           const Curve& out2_lower, TimeNs horizon) {
  const SupResult s12 = sup_difference(out1_upper, out2_lower, horizon);
  const SupResult s21 = sup_difference(out2_upper, out1_lower, horizon);
  if (!s12.bounded || !s21.bounded || !s12.stabilized || !s21.stabilized) {
    return std::nullopt;
  }
  // Eq. (5): smallest integer strictly greater than the supremum.
  return std::max(s12.value, s21.value) + 1;
}

std::optional<TimeNs> detection_latency_bound(const Curve& healthy_lower,
                                              const Curve& faulty_upper,
                                              Tokens threshold_d, TimeNs horizon) {
  SCCFT_EXPECTS(threshold_d >= 1);
  return first_time_difference_reaches(healthy_lower, faulty_upper,
                                       2 * threshold_d - 1, horizon);
}

std::optional<TimeNs> detection_latency_bound_rate_fault(const Curve& healthy_lower,
                                                         const PJD& faulty_model,
                                                         double slowdown_factor,
                                                         Tokens threshold_d,
                                                         TimeNs horizon) {
  SCCFT_EXPECTS(slowdown_factor > 1.0);
  // Post-fault upper curve: the faulty replica's period stretches by the
  // slowdown factor (its jitter envelope stretches with it).
  PJD degraded = faulty_model;
  degraded.period =
      static_cast<TimeNs>(static_cast<double>(faulty_model.period) * slowdown_factor);
  degraded.jitter =
      static_cast<TimeNs>(static_cast<double>(faulty_model.jitter) * slowdown_factor);
  const PJDUpperCurve faulty_upper(degraded);
  if (healthy_lower.long_term_rate() <= faulty_upper.long_term_rate() * (1.0 + 1e-9)) {
    return std::nullopt;  // divergence never accumulates
  }
  return detection_latency_bound(healthy_lower, faulty_upper, threshold_d, horizon);
}

std::optional<TimeNs> detection_latency_bound_silence(const Curve& healthy_lower,
                                                      Tokens threshold_d,
                                                      TimeNs horizon) {
  const ZeroCurve silent;
  return detection_latency_bound(healthy_lower, silent, threshold_d, horizon);
}

std::optional<TimeNs> detection_latency_bound_both(const Curve& out1_lower,
                                                   const Curve& out1_faulty_upper,
                                                   const Curve& out2_lower,
                                                   const Curve& out2_faulty_upper,
                                                   Tokens threshold_d, TimeNs horizon) {
  // Eq. (7): the max over both fault assignments. Replica 1 faulty means
  // replica 2 (healthy, lower curve) races against replica 1's residual
  // post-fault output (faulty upper curve), and vice versa.
  const auto fault1 =
      detection_latency_bound(out2_lower, out1_faulty_upper, threshold_d, horizon);
  const auto fault2 =
      detection_latency_bound(out1_lower, out2_faulty_upper, threshold_d, horizon);
  if (!fault1 || !fault2) return std::nullopt;
  return std::max(*fault1, *fault2);
}

SizingReport analyze_duplicated_network(const NetworkTimingModel& model,
                                        TimeNs horizon) {
  SizingReport report;

  // Eq. (3): replicator FIFO capacities. The producer must never block on a
  // fault-free replica's input FIFO.
  const auto r1 = min_fifo_capacity(*model.producer_upper, *model.replica1_in_lower, horizon);
  const auto r2 = min_fifo_capacity(*model.producer_upper, *model.replica2_in_lower, horizon);
  SCCFT_ENSURES(r1.has_value() && r2.has_value());
  report.replicator_capacity1 = *r1;
  report.replicator_capacity2 = *r2;

  // Eq. (4): initial tokens so the consumer never stalls.
  const auto init1 =
      min_initial_fill(*model.replica1_out_lower, *model.consumer_upper, horizon);
  const auto init2 =
      min_initial_fill(*model.replica2_out_lower, *model.consumer_upper, horizon);
  SCCFT_ENSURES(init1.has_value() && init2.has_value());
  report.selector_initial1 = *init1;
  report.selector_initial2 = *init2;

  // Selector FIFO capacities: the virtual queue for replica i must absorb the
  // initial fill plus the largest lead of replica i's production over the
  // consumer's guaranteed consumption (same Eq. (3) construction applied to
  // the consumer side).
  const auto lead1 =
      sup_difference(*model.replica1_out_upper, *model.consumer_lower, horizon);
  const auto lead2 =
      sup_difference(*model.replica2_out_upper, *model.consumer_lower, horizon);
  SCCFT_ENSURES(lead1.bounded && lead2.bounded);
  report.selector_capacity1 = report.selector_initial1 + std::max<Tokens>(lead1.value, 1);
  report.selector_capacity2 = report.selector_initial2 + std::max<Tokens>(lead2.value, 1);

  // Eq. (5): divergence thresholds. At the selector the divergence is between
  // the replicas' output streams; at the replicator between their input
  // consumption streams ("computations for the replicator are analogous").
  const auto d_sel =
      divergence_threshold(*model.replica1_out_upper, *model.replica1_out_lower,
                           *model.replica2_out_upper, *model.replica2_out_lower, horizon);
  const auto d_rep =
      divergence_threshold(*model.replica1_in_upper, *model.replica1_in_lower,
                           *model.replica2_in_upper, *model.replica2_in_lower, horizon);
  SCCFT_ENSURES(d_sel.has_value() && d_rep.has_value());
  report.selector_threshold = *d_sel;
  report.replicator_threshold = *d_rep;

  // Eq. (7)/(8): worst-case detection latency for a silence fault.
  const auto lat_sel_1 =
      detection_latency_bound_silence(*model.replica2_out_lower, *d_sel, horizon);
  const auto lat_sel_2 =
      detection_latency_bound_silence(*model.replica1_out_lower, *d_sel, horizon);
  const auto lat_rep_1 =
      detection_latency_bound_silence(*model.replica2_in_lower, *d_rep, horizon);
  const auto lat_rep_2 =
      detection_latency_bound_silence(*model.replica1_in_lower, *d_rep, horizon);
  SCCFT_ENSURES(lat_sel_1 && lat_sel_2 && lat_rep_1 && lat_rep_2);
  report.selector_latency_bound = std::max(*lat_sel_1, *lat_sel_2);
  report.replicator_divergence_bound = std::max(*lat_rep_1, *lat_rep_2);

  // Replicator overflow rule: detection on the write attempt that finds the
  // dead replica's FIFO full. Worst case: FIFO empty at fault time, producer
  // at its minimum rate.
  const ZeroCurve silent;
  const auto ovf1 = first_time_difference_reaches(
      *model.producer_lower, silent, report.replicator_capacity1 + 1, horizon);
  const auto ovf2 = first_time_difference_reaches(
      *model.producer_lower, silent, report.replicator_capacity2 + 1, horizon);
  SCCFT_ENSURES(ovf1.has_value() && ovf2.has_value());
  report.replicator_overflow_bound = std::max(*ovf1, *ovf2);

  return report;
}

}  // namespace sccft::rtc

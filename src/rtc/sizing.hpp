// Queue sizing, divergence thresholds, and fault-detection latency bounds.
//
// Implements the design-time analyses of the paper's Section 3.4:
//   Eq. (3)  replicator/producer FIFO capacity,
//   Eq. (4)  initial token count at the consumer-side FIFO,
//   Eq. (5)  selector divergence threshold D (no-false-positive bound),
//   Eq. (6)-(8)  worst-case fault-detection latency.
//
// All computations are exact for staircase curves: a difference f - g of a
// staircase f and a non-decreasing g is evaluated at Delta = 0 and at f's
// jump points, which is where its suprema and first crossings occur.
#pragma once

#include <optional>
#include <string>

#include "rtc/curve.hpp"
#include "rtc/time.hpp"

namespace sccft::rtc {

/// Result of a supremum computation over a bounded horizon.
struct SupResult {
  Tokens value = 0;      ///< the supremum of f - g over (0, horizon]
  TimeNs at = 0;         ///< a window length attaining it
  bool bounded = true;   ///< false if long_term_rate(f) > long_term_rate(g)
  bool stabilized = true;///< true if the supremum was attained in the first
                         ///< half of the horizon (heuristic convergence check)
};

/// sup over Delta in [0, horizon] of f(Delta) - g(Delta), with `at` the
/// earliest Delta attaining it.
///
/// Precondition: g is non-decreasing (every Curve is). Only Delta = 0 and
/// f's jump points are evaluated, so g's jump list is not read.
///
/// If f's long-term rate exceeds g's the difference grows without bound and
/// `bounded` is false (`value` then holds the horizon-limited maximum).
[[nodiscard]] SupResult sup_difference(const Curve& f, const Curve& g, TimeNs horizon);

/// Smallest Delta in [0, horizon] with f(Delta) - g(Delta) >= target, if any.
/// Same precondition and evaluation points as sup_difference.
[[nodiscard]] std::optional<TimeNs> first_time_difference_reaches(const Curve& f,
                                                                  const Curve& g,
                                                                  Tokens target,
                                                                  TimeNs horizon);

/// Eq. (3): smallest FIFO capacity |F| such that
/// alpha_P^u(Delta) <= alpha_in^l(Delta) + |F| for all Delta.
/// Returns nullopt if the producer's rate exceeds the consumer-side rate
/// (no finite FIFO suffices).
[[nodiscard]] std::optional<Tokens> min_fifo_capacity(const Curve& producer_upper,
                                                      const Curve& consumer_lower,
                                                      TimeNs horizon);

/// Eq. (4): smallest initial fill F_C0 such that
/// alpha_out^l(Delta) >= alpha_C^u(Delta) - F_C0 for all Delta.
[[nodiscard]] std::optional<Tokens> min_initial_fill(const Curve& replica_out_lower,
                                                     const Curve& consumer_upper,
                                                     TimeNs horizon);

/// Eq. (5): smallest integer D with
/// D > sup_{i != j, lambda >= 0} { alpha_i^u(lambda) - alpha_j^l(lambda) }.
/// Guarantees no false positives of the divergence detector.
[[nodiscard]] std::optional<Tokens> divergence_threshold(const Curve& out1_upper,
                                                         const Curve& out1_lower,
                                                         const Curve& out2_upper,
                                                         const Curve& out2_lower,
                                                         TimeNs horizon);

/// Eq. (6): inf { Delta | (alpha_healthy^l - alpha_faulty^u)(Delta) >= 2D-1 },
/// the worst-case detection latency when the faulty replica still emits
/// tokens bounded by `faulty_upper`.
[[nodiscard]] std::optional<TimeNs> detection_latency_bound(const Curve& healthy_lower,
                                                            const Curve& faulty_upper,
                                                            Tokens threshold_d,
                                                            TimeNs horizon);

/// Eq. (8): special case of Eq. (6) for a replica that falls completely
/// silent (faulty upper curve identically zero).
[[nodiscard]] std::optional<TimeNs> detection_latency_bound_silence(
    const Curve& healthy_lower, Tokens threshold_d, TimeNs horizon);

/// Eq. (7): maximum over both fault assignments (replica 1 faulty with
/// replica 2 healthy, and vice versa).
[[nodiscard]] std::optional<TimeNs> detection_latency_bound_both(
    const Curve& out1_lower, const Curve& out1_faulty_upper, const Curve& out2_lower,
    const Curve& out2_faulty_upper, Tokens threshold_d, TimeNs horizon);

/// Bundle of all design-time quantities for one duplicated network, as
/// produced by `analyze_duplicated_network`.
struct SizingReport {
  Tokens replicator_capacity1 = 0;  ///< |R1| (Eq. 3, replica 1 input)
  Tokens replicator_capacity2 = 0;  ///< |R2|
  Tokens selector_capacity1 = 0;    ///< |S1| (consumer-side, replica 1)
  Tokens selector_capacity2 = 0;    ///< |S2|
  Tokens selector_initial1 = 0;     ///< |S1|_0 initial tokens (Eq. 4)
  Tokens selector_initial2 = 0;     ///< |S2|_0
  Tokens replicator_threshold = 0;  ///< divergence threshold D at replicator (Eq. 5)
  Tokens selector_threshold = 0;    ///< divergence threshold D at selector (Eq. 5)
  /// Worst-case silence-fault detection latency of the replicator's
  /// queue-overflow rule: the producer, writing no faster than its lower
  /// curve requires, fills the dead replica's FIFO (|R_i| tokens from an
  /// empty queue) and detects on the (|R_i|+1)-th write attempt.
  TimeNs replicator_overflow_bound = 0;
  /// Eq. (7)/(8) divergence-rule bound applied to the replicas' input
  /// consumption streams ("computations for the replicator are analogous").
  TimeNs replicator_divergence_bound = 0;
  TimeNs selector_latency_bound = 0;    ///< Eq. (7)/(8) at the selector

  bool operator==(const SizingReport&) const = default;
};

/// Inputs to the sizing analysis: arrival-curve pairs for the producer, each
/// replica's input consumption, each replica's output production, and the
/// consumer's consumption.
struct NetworkTimingModel {
  CurveRef producer_upper, producer_lower;
  CurveRef replica1_in_upper, replica1_in_lower;
  CurveRef replica2_in_upper, replica2_in_lower;
  CurveRef replica1_out_upper, replica1_out_lower;
  CurveRef replica2_out_upper, replica2_out_lower;
  CurveRef consumer_upper, consumer_lower;
};

/// Runs the complete Section 3.4 analysis. Throws util::ContractViolation if
/// any bound is infeasible within `horizon` (e.g. producer faster than a
/// replica can consume).
[[nodiscard]] SizingReport analyze_duplicated_network(const NetworkTimingModel& model,
                                                      TimeNs horizon);

/// Eq. (6) for a *rate-degradation* fault: the faulty replica keeps emitting,
/// but `slowdown_factor` times slower — its post-fault upper curve is its
/// healthy model stretched in time. Returns the worst-case detection latency
/// of the divergence rule via detection_latency_bound(), or nullopt if the
/// degradation is too mild to accumulate 2D-1 tokens of divergence within
/// the horizon (the detectability limit: a replica only infinitesimally
/// slower than its contract takes arbitrarily long to convict).
[[nodiscard]] std::optional<TimeNs> detection_latency_bound_rate_fault(
    const Curve& healthy_lower, const struct PJD& faulty_model,
    double slowdown_factor, Tokens threshold_d, TimeNs horizon);

}  // namespace sccft::rtc

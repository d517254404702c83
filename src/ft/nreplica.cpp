#include "ft/nreplica.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sccft::ft {

// ---------------------------------------------------------------------------
// Sizing
// ---------------------------------------------------------------------------

NSizingReport analyze_n_replica_network(const NReplicaTimingModel& model,
                                        rtc::TimeNs horizon) {
  const std::size_t n = model.in_upper.size();
  SCCFT_EXPECTS(n >= 2);
  SCCFT_EXPECTS(model.in_lower.size() == n);
  SCCFT_EXPECTS(model.out_upper.size() == n);
  SCCFT_EXPECTS(model.out_lower.size() == n);

  NSizingReport report;
  report.replicator_capacity.reserve(n);
  report.selector_capacity.reserve(n);
  report.selector_initial.reserve(n);

  rtc::TimeNs worst_overflow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto capacity = rtc::min_fifo_capacity(*model.producer_upper,
                                                 *model.in_lower[i], horizon);
    SCCFT_ENSURES(capacity.has_value());
    report.replicator_capacity.push_back(*capacity);

    const auto initial = rtc::min_initial_fill(*model.out_lower[i],
                                               *model.consumer_upper, horizon);
    SCCFT_ENSURES(initial.has_value());
    report.selector_initial.push_back(*initial);

    const auto lead =
        rtc::sup_difference(*model.out_upper[i], *model.consumer_lower, horizon);
    SCCFT_ENSURES(lead.bounded);
    report.selector_capacity.push_back(*initial + std::max<rtc::Tokens>(lead.value, 1));

    const rtc::ZeroCurve silent;
    const auto fill_time = rtc::first_time_difference_reaches(
        *model.producer_lower, silent, *capacity + 1, horizon);
    SCCFT_ENSURES(fill_time.has_value());
    worst_overflow = std::max(worst_overflow, *fill_time);
  }
  report.replicator_overflow_bound = worst_overflow;

  // D = 1 + max over ordered pairs of sup(alpha_i,out^u - alpha_j,out^l).
  rtc::Tokens worst_sup = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto sup =
          rtc::sup_difference(*model.out_upper[i], *model.out_lower[j], horizon);
      SCCFT_ENSURES(sup.bounded && sup.stabilized);
      worst_sup = std::max(worst_sup, sup.value);
    }
  }
  report.divergence_threshold = worst_sup + 1;

  // Eq. (7)/(8): worst silence-fault detection latency over healthy replicas.
  rtc::TimeNs worst_latency = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto bound = rtc::detection_latency_bound_silence(
        *model.out_lower[i], report.divergence_threshold, horizon);
    SCCFT_ENSURES(bound.has_value());
    worst_latency = std::max(worst_latency, *bound);
  }
  report.selector_latency_bound = worst_latency;
  return report;
}

ReplicationCost replication_cost(const NSizingReport& sizing,
                                 std::size_t token_bytes) {
  SCCFT_EXPECTS(!sizing.replicator_capacity.empty());
  SCCFT_EXPECTS(sizing.selector_capacity.size() == sizing.replicator_capacity.size());
  SCCFT_EXPECTS(token_bytes > 0);
  ReplicationCost cost;
  cost.cores = static_cast<int>(sizing.replicator_capacity.size());
  rtc::Tokens slots = 0;
  for (rtc::Tokens c : sizing.replicator_capacity) slots += c;
  for (rtc::Tokens c : sizing.selector_capacity) slots += c;
  cost.mpb_bytes = static_cast<std::size_t>(slots) * token_bytes;
  cost.noc_links = 2 * cost.cores;
  return cost;
}

ReplicationCost unreplicated_cost(rtc::Tokens fifo_capacity,
                                  std::size_t token_bytes) {
  SCCFT_EXPECTS(fifo_capacity > 0);
  SCCFT_EXPECTS(token_bytes > 0);
  ReplicationCost cost;
  cost.cores = 1;
  cost.mpb_bytes = static_cast<std::size_t>(fifo_capacity) * token_bytes;
  cost.noc_links = 2;
  return cost;
}

}  // namespace sccft::ft
